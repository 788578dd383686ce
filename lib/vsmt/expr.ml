type origin = Config | Workload | Internal

type var = { name : string; dom : Dom.t; origin : origin }

type binop = Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or

(* Hash-consed expressions: every structurally distinct expression exists
   exactly once per process, so equality is an integer comparison, hashing
   is a field read, and tables keyed on expressions never re-serialize
   them.  [node] is the shape; [t] wraps it with the unique id and the
   structural hash.  [str] memoizes the rendered form ("" = not yet
   rendered). *)
type t = { id : int; hkey : int; node : node; mutable str : string }

and node =
  | Const of int
  | Var of var
  | Not of t
  | Neg of t
  | Binop of binop * t * t
  | Ite of t * t * t

let view e = e.node
let id e = e.id

(* ------------------------------------------------------------------ *)
(* The intern table: one per process, keyed by node shape.             *)
(* ------------------------------------------------------------------ *)

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4 | Eq -> 5 | Ne -> 6
  | Lt -> 7 | Le -> 8 | Gt -> 9 | Ge -> 10 | And -> 11 | Or -> 12

let mix h v = (h * 0x01000193) lxor v land max_int

let node_hash = function
  | Const v -> mix 0x11 v
  | Var v -> mix 0x22 (Hashtbl.hash v.name)
  | Not a -> mix 0x33 a.id
  | Neg a -> mix 0x44 a.id
  | Binop (op, a, b) -> mix (mix (mix 0x55 (binop_tag op)) a.id) b.id
  | Ite (c, a, b) -> mix (mix (mix 0x66 c.id) a.id) b.id

(* children are already interned, so one level of physical comparison
   decides structural equality *)
let node_equal n1 n2 =
  match n1, n2 with
  | Const a, Const b -> a = b
  | Var a, Var b ->
    String.equal a.name b.name && a.origin = b.origin && a.dom = b.dom
  | Not a, Not b | Neg a, Neg b -> a == b
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
  | (Const _ | Var _ | Not _ | Neg _ | Binop _ | Ite _), _ -> false

module Intern = Hashtbl.Make (struct
  type t = node

  let equal = node_equal
  let hash = node_hash
end)

(* Every table in this library starts small and doubles as it fills: a
   fleet worker interns a few hundred nodes per model, an analysis far
   more, and buckets reserved up front are live heap either way. *)
let table : t Intern.t = Intern.create 256
let next_id = ref 0

let intern node =
  match Intern.find_opt table node with
  | Some e -> e
  | None ->
    let e = { id = !next_id; hkey = node_hash node; node; str = "" } in
    incr next_id;
    Intern.add table node e;
    e

(* current number of live interned nodes — telemetry only *)
let interned_count () = !next_id

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let const v = intern (Const v)
let of_var v = intern (Var v)
let var ?(origin = Config) name dom = of_var { name; dom; origin }
let tru = const 1
let fls = const 0
let not_ e = intern (Not e)
let neg e = intern (Neg e)
let binop op a b = intern (Binop (op, a, b))
let ite c a b = intern (Ite (c, a, b))

let ( ==. ) a b = binop Eq a b
let ( <>. ) a b = binop Ne a b
let ( <. ) a b = binop Lt a b
let ( <=. ) a b = binop Le a b
let ( >. ) a b = binop Gt a b
let ( >=. ) a b = binop Ge a b
let ( &&. ) a b = binop And a b
let ( ||. ) a b = binop Or a b
let ( +. ) a b = binop Add a b
let ( -. ) a b = binop Sub a b
let ( *. ) a b = binop Mul a b
let ( /. ) a b = binop Div a b
let ( %. ) a b = binop Mod a b

(* Re-intern an expression whose nodes came from another process
   (e.g. a checkpoint loaded with [Marshal]): the marshalled ids are
   meaningless here, so rebuild bottom-up through the intern table.
   The memo is keyed on the *marshalled* ids, which are consistent
   within one unmarshalled value. *)
let rehash e =
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.id with
    | Some e' -> e'
    | None ->
      let e' =
        match e.node with
        | Const v -> const v
        | Var v -> of_var v
        | Not a -> not_ (go a)
        | Neg a -> neg (go a)
        | Binop (op, a, b) -> binop op (go a) (go b)
        | Ite (c, a, b) -> ite (go c) (go a) (go b)
      in
      Hashtbl.add memo e.id e';
      e'
  in
  go e

(* ------------------------------------------------------------------ *)
(* Equality, hashing, ordering                                         *)
(* ------------------------------------------------------------------ *)

(* O(1): interning makes structural and physical equality coincide *)
let equal a b = a == b
let hash e = e.hkey

(* Structural (not id) order so sorts are stable across processes and
   across runs — the deterministic-reduction step of the parallel
   executor sorts with this. *)
let node_tag = function
  | Const _ -> 0 | Var _ -> 1 | Not _ -> 2 | Neg _ -> 3 | Binop _ -> 4 | Ite _ -> 5

let rec compare a b =
  if a == b then 0
  else
    match a.node, b.node with
    | Const x, Const y -> Int.compare x y
    | Var x, Var y ->
      let c = String.compare x.name y.name in
      if c <> 0 then c
      else
        let c = Stdlib.compare x.origin y.origin in
        if c <> 0 then c else Stdlib.compare x.dom y.dom
    | Not x, Not y | Neg x, Neg y -> compare x y
    | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      let c = Int.compare (binop_tag o1) (binop_tag o2) in
      if c <> 0 then c
      else
        let c = compare a1 a2 in
        if c <> 0 then c else compare b1 b2
    | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      let c = compare c1 c2 in
      if c <> 0 then c
      else
        let c = compare a1 a2 in
        if c <> 0 then c else compare b1 b2
    | n1, n2 -> Int.compare (node_tag n1) (node_tag n2)

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let is_const e = match e.node with Const v -> Some v | Var _ | Not _ | Neg _ | Binop _ | Ite _ -> None

let truthy v = v <> 0

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Mod -> if b = 0 then 0 else a mod b
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | And -> if truthy a && truthy b then 1 else 0
  | Or -> if truthy a || truthy b then 1 else 0

let rec eval env e =
  match e.node with
  | Const v -> v
  | Var v -> env v
  | Not e -> if truthy (eval env e) then 0 else 1
  | Neg e -> -eval env e
  | Binop (And, a, b) -> if truthy (eval env a) then (if truthy (eval env b) then 1 else 0) else 0
  | Binop (Or, a, b) -> if truthy (eval env a) then 1 else if truthy (eval env b) then 1 else 0
  | Binop (op, a, b) -> apply_binop op (eval env a) (eval env b)
  | Ite (c, a, b) -> if truthy (eval env c) then eval env a else eval env b

let vars e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go e =
    match e.node with
    | Const _ -> ()
    | Var v ->
      if not (Hashtbl.mem seen v.name) then begin
        Hashtbl.add seen v.name ();
        acc := v :: !acc
      end
    | Not e | Neg e -> go e
    | Binop (_, a, b) -> go a; go b
    | Ite (c, a, b) -> go c; go a; go b
  in
  go e;
  List.rev !acc

let rec subst f e =
  match e.node with
  | Const _ -> e
  | Var v -> ( match f v with Some e' -> e' | None -> e)
  | Not a -> not_ (subst f a)
  | Neg a -> neg (subst f a)
  | Binop (op, a, b) -> binop op (subst f a) (subst f b)
  | Ite (c, a, b) -> ite (subst f c) (subst f a) (subst f b)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

(* [friendly] renders var-vs-constant comparisons in domain vocabulary. *)
let pp_gen ~friendly ppf e =
  let rec go ppf ~ctx e =
    match e.node with
    | Const v -> Fmt.int ppf v
    | Var v -> Fmt.string ppf v.name
    | Not e -> Fmt.pf ppf "!%a" (fun ppf -> go ppf ~ctx:9) e
    | Neg e -> Fmt.pf ppf "-%a" (fun ppf -> go ppf ~ctx:9) e
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), { node = Var v; _ }, { node = Const c; _ })
      when friendly ->
      Fmt.pf ppf "%s%s%s" v.name (binop_to_string op) (Dom.value_to_string v.dom c)
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), { node = Const c; _ }, { node = Var v; _ })
      when friendly ->
      Fmt.pf ppf "%s%s%s" (Dom.value_to_string v.dom c) (binop_to_string op) v.name
    | Binop (op, a, b) ->
      let p = prec op in
      let body ppf () =
        Fmt.pf ppf "%a %s %a"
          (fun ppf -> go ppf ~ctx:p)
          a (binop_to_string op)
          (fun ppf -> go ppf ~ctx:(p + 1))
          b
      in
      if p < ctx then Fmt.pf ppf "(%a)" body () else body ppf ()
    | Ite (c, a, b) ->
      Fmt.pf ppf "(%a ? %a : %a)"
        (fun ppf -> go ppf ~ctx:0)
        c
        (fun ppf -> go ppf ~ctx:0)
        a
        (fun ppf -> go ppf ~ctx:0)
        b
  in
  go ppf ~ctx:0 e

let pp ppf e = pp_gen ~friendly:false ppf e
let pp_friendly ppf e = pp_gen ~friendly:true ppf e

(* Rendered once per unique node, then read off the memo field.  Used as
   the memo key by [Vsched.Solver_cache]. *)
let to_string e =
  if e.str <> "" then e.str
  else begin
    let s = Fmt.str "%a" pp e in
    e.str <- s;
    s
  end
