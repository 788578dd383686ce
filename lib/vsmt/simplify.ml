open Expr

let truthy v = v <> 0

(* Hash-consing gives every expression a stable id, so simplification is
   memoized once per node, so repeated path-condition prefixes simplify
   once.  The memo resets wholesale when it reaches its cap, so unbounded
   interning on long runs cannot grow it without bound. *)
let memo : (int, t) Hashtbl.t = Hashtbl.create 256
let memo_cap = ref (1 lsl 18)
let set_memo_cap n = memo_cap := max 1024 n
let memo_size () = Hashtbl.length memo
let clear_memo () = Hashtbl.reset memo
let memo_find i = Hashtbl.find_opt memo i

let memo_add i e' =
  if Hashtbl.length memo >= !memo_cap then Hashtbl.reset memo;
  Hashtbl.replace memo i e'

(* One rewriting pass, bottom-up.  Kept to local rules so each is obviously
   semantics-preserving; the qcheck suite checks the composition. *)
let rec simplify e =
  match memo_find (id e) with
  | Some e' -> e'
  | None ->
    let e' = simplify_uncached e in
    memo_add (id e) e';
    (* a fixpoint result maps to itself so re-simplifying is free *)
    if not (equal e e') then memo_add (id e') e';
    e'

and simplify_uncached e =
  match view e with
  | Const _ | Var _ -> e
  | Not a -> begin
    let a' = simplify a in
    match view a' with
    | Const v -> const (if truthy v then 0 else 1)
    | Not b -> simplify_bool b
    | Binop (Eq, x, y) -> binop Ne x y
    | Binop (Ne, x, y) -> binop Eq x y
    | Binop (Lt, x, y) -> binop Ge x y
    | Binop (Le, x, y) -> binop Gt x y
    | Binop (Gt, x, y) -> binop Le x y
    | Binop (Ge, x, y) -> binop Lt x y
    | _ -> not_ a'
  end
  | Neg a -> begin
    let a' = simplify a in
    match view a' with
    | Const v -> const (-v)
    | Neg b -> b
    | _ -> neg a'
  end
  | Binop (op, a, b) -> simplify_binop op (simplify a) (simplify b)
  | Ite (c, a, b) -> begin
    let c' = simplify c in
    match view c' with
    | Const v -> if truthy v then simplify a else simplify b
    | _ ->
      let a' = simplify a and b' = simplify b in
      if equal a' b' then a' else ite c' a' b'
  end

(* [Not] distinguishes 0 from non-zero; double negation only collapses to the
   operand when the operand is known boolean-valued (0/1). *)
and simplify_bool e =
  match view e with
  | Const v -> const (if truthy v then 1 else 0)
  | Not _ | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> e
  | Var v when Dom.equal v.dom Dom.bool -> e
  | Var _ | Neg _ | Binop _ | Ite _ -> not_ (not_ e)

and simplify_binop op a b =
  match op, view a, view b with
  | _, Const x, Const y -> const (apply_binop op x y)
  | Add, _, Const 0 -> a
  | Add, Const 0, _ -> b
  | Sub, _, Const 0 -> a
  | Sub, _, _ when equal a b -> const 0
  | Mul, _, Const 0 | Mul, Const 0, _ -> const 0
  | Mul, _, Const 1 -> a
  | Mul, Const 1, _ -> b
  | Div, _, Const 1 -> a
  | Div, Const 0, _ -> const 0
  | Mod, _, Const 1 -> const 0
  | And, _, Const c -> if truthy c then simplify_bool a else const 0
  | And, Const c, _ -> if truthy c then simplify_bool b else const 0
  | Or, _, Const c -> if truthy c then const 1 else simplify_bool a
  | Or, Const c, _ -> if truthy c then const 1 else simplify_bool b
  | And, _, _ when equal a b -> simplify_bool a
  | Or, _, _ when equal a b -> simplify_bool a
  | Eq, _, _ when equal a b -> const 1
  | Ne, _, _ when equal a b -> const 0
  | Le, _, _ when equal a b -> const 1
  | Ge, _, _ when equal a b -> const 1
  | Lt, _, _ when equal a b -> const 0
  | Gt, _, _ when equal a b -> const 0
  (* domain-based comparison folding: x cmp c decided by x's range *)
  | (Eq | Ne | Lt | Le | Gt | Ge), Var v, Const c -> fold_cmp op v c (binop op a b)
  | (Eq | Ne | Lt | Le | Gt | Ge), Const c, Var v ->
    fold_cmp (flip op) v c (binop op a b)
  | _, _, _ -> binop op a b

and flip = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | (Eq | Ne | Add | Sub | Mul | Div | Mod | And | Or) as op -> op

and fold_cmp op v c keep =
  let lo = Dom.lo v.dom and hi = Dom.hi v.dom in
  let decided b = const (if b then 1 else 0) in
  match op with
  | Eq -> if c < lo || c > hi then decided false else if lo = hi then decided (lo = c) else keep
  | Ne -> if c < lo || c > hi then decided true else if lo = hi then decided (lo <> c) else keep
  | Lt -> if hi < c then decided true else if lo >= c then decided false else keep
  | Le -> if hi <= c then decided true else if lo > c then decided false else keep
  | Gt -> if lo > c then decided true else if hi <= c then decided false else keep
  | Ge -> if lo >= c then decided true else if hi < c then decided false else keep
  | Add | Sub | Mul | Div | Mod | And | Or -> keep

let rec flatten_and e acc =
  match view e with
  | Binop (And, a, b) -> flatten_and a (flatten_and b acc)
  | _ -> e :: acc

let simplify_conj cs =
  let cs = List.concat_map (fun c -> flatten_and (simplify c) []) cs in
  (* a conjunct and its (normalized) negation make the whole conjunction
     false — catches complementary branch conditions over non-invertible
     shapes (e.g. [x*y > c] with [x*y <= c]) that interval propagation
     cannot decide *)
  let negation_of c = simplify (not_ c) in
  let rec dedup seen = function
    | [] -> List.rev seen
    | c :: rest -> begin
      match view c with
      | Const v when truthy v -> dedup seen rest
      | Const _ -> [ fls ]
      | _ ->
        if List.exists (equal (negation_of c)) seen then [ fls ]
        else if List.exists (equal c) seen then dedup seen rest
        else dedup (c :: seen) rest
    end
  in
  dedup [] cs
