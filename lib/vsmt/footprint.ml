(* Free-symbol footprints of hash-consed expressions.

   A footprint is the set of symbolic variables an expression reads,
   represented as a sorted array of interned symbol ids so set operations
   are linear merges and equality is an array compare.  Symbol ids — like
   expression ids — are process-local allocation order: anything that must
   survive [Marshal] (cache dumps, snapshots) goes through {!names}
   instead, and partitions over rehashed expressions are rebuilt from
   scratch ({!Sym_state.map_exprs}). *)

(* ------------------------------------------------------------------ *)
(* The symbol intern table: name -> id, plus the reverse arrays.       *)
(* ------------------------------------------------------------------ *)

type sym_info = { s_name : string; s_origin : Expr.origin }

let sym_ids : (string, int) Hashtbl.t = Hashtbl.create 256
let sym_infos : sym_info array ref = ref (Array.make 64 { s_name = ""; s_origin = Expr.Internal })
let sym_next = ref 0

(* Variables are identified by name alone, matching [Expr.vars]'s dedup
   semantics: two [Expr.var]s with the same name are the same symbol. *)
let intern_sym (v : Expr.var) =
  match Hashtbl.find_opt sym_ids v.Expr.name with
  | Some id -> id
  | None ->
    let id = !sym_next in
    sym_next := id + 1;
    if id >= Array.length !sym_infos then begin
      let bigger = Array.make (2 * Array.length !sym_infos) { s_name = ""; s_origin = Expr.Internal } in
      Array.blit !sym_infos 0 bigger 0 (Array.length !sym_infos);
      sym_infos := bigger
    end;
    !sym_infos.(id) <- { s_name = v.Expr.name; s_origin = v.Expr.origin };
    Hashtbl.add sym_ids v.Expr.name id;
    id

let sym_info id = !sym_infos.(id)

(* ------------------------------------------------------------------ *)
(* Footprints: sorted int arrays with merge-based set operations.      *)
(* ------------------------------------------------------------------ *)

type t = int array

let empty : t = [||]
let is_empty (f : t) = Array.length f = 0
let cardinal (f : t) = Array.length f
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let mem id (f : t) =
  let rec go lo hi =
    if lo >= hi then false
    else
      let m = (lo + hi) / 2 in
      if f.(m) = id then true else if f.(m) < id then go (m + 1) hi else go lo m
  in
  go 0 (Array.length f)

let union (a : t) (b : t) : t =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let na = Array.length a and nb = Array.length b in
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x = y then begin out.(!k) <- x; incr i; incr j end
      else if x < y then begin out.(!k) <- x; incr i end
      else begin out.(!k) <- y; incr j end;
      incr k
    done;
    while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = na + nb then out else Array.sub out 0 !k
  end

let overlaps (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na || j >= nb then false
    else if a.(i) = b.(j) then true
    else if a.(i) < b.(j) then go (i + 1) j
    else go i (j + 1)
  in
  go 0 0

let subset (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let names (f : t) =
  List.sort String.compare (List.map (fun id -> (sym_info id).s_name) (Array.to_list f))

let exists_origin origin (f : t) =
  Array.exists (fun id -> (sym_info id).s_origin = origin) f

let for_all_origin origin (f : t) =
  Array.for_all (fun id -> (sym_info id).s_origin = origin) f

(* ------------------------------------------------------------------ *)
(* Per-node memoization.                                               *)
(* ------------------------------------------------------------------ *)

(* Footprints are memoized per hash-consed node id.  The memo is capped: a
   week-long checker run interns expressions without bound, so an uncapped
   memo would too.  On overflow it resets wholesale — footprints are cheap
   to recompute and the working set re-fills immediately. *)
let memo : (int, t) Hashtbl.t = Hashtbl.create 256
let memo_cap = ref (1 lsl 17)
let set_memo_cap n = memo_cap := max 1024 n
let memo_size () = Hashtbl.length memo
let clear_memo () = Hashtbl.reset memo
let memo_find i = Hashtbl.find_opt memo i

let memo_add i f =
  if Hashtbl.length memo >= !memo_cap then Hashtbl.reset memo;
  Hashtbl.replace memo i f

let rec of_expr (e : Expr.t) : t =
  match memo_find (Expr.id e) with
  | Some f -> f
  | None ->
    let f =
      match Expr.view e with
      | Expr.Const _ -> empty
      | Expr.Var v -> [| intern_sym v |]
      | Expr.Not a | Expr.Neg a -> of_expr a
      | Expr.Binop (_, a, b) -> union (of_expr a) (of_expr b)
      | Expr.Ite (c, a, b) -> union (of_expr c) (union (of_expr a) (of_expr b))
    in
    memo_add (Expr.id e) f;
    f

let of_list cs = List.fold_left (fun acc c -> union acc (of_expr c)) empty cs

let pp ppf (f : t) = Fmt.pf ppf "{%s}" (String.concat "," (names f))
