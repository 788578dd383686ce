(* Free-symbol footprints of hash-consed expressions.

   A footprint is the set of symbolic variables an expression reads,
   represented as a sorted array of interned symbol ids so union and
   overlap are linear merges.  Symbol ids — like expression ids — are
   process-local allocation order, so nothing persists them: slices are
   grouped per query ({!Partition}). *)

(* Variables are identified by name alone, matching [Expr.vars]'s dedup
   semantics: two [Expr.var]s with the same name are the same symbol. *)
let sym_ids : (string, int) Hashtbl.t = Hashtbl.create 256

let intern_sym (v : Expr.var) =
  match Hashtbl.find_opt sym_ids v.Expr.name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length sym_ids in
    Hashtbl.add sym_ids v.Expr.name id;
    id

(* ------------------------------------------------------------------ *)
(* Footprints: sorted int arrays with merge-based set operations.      *)
(* ------------------------------------------------------------------ *)

type t = int array

let empty : t = [||]
let is_empty (f : t) = Array.length f = 0

(* [subset] and [overlaps] walk the two sorted arrays in loops, not in a
   local recursive function: a query tests a footprint per conjunct, and
   a closure per test was most of what a query allocated. *)
let subset (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 in
  (* a.(!i) can still be in b only while it is not below b.(!j) *)
  while !i < na && !j < nb && Array.unsafe_get a !i >= Array.unsafe_get b !j do
    if Array.unsafe_get a !i = Array.unsafe_get b !j then incr i;
    incr j
  done;
  !i = na

(* [a] itself when [b] adds no symbol, so a union that adds nothing
   allocates nothing and a caller can test growth with [!=]. *)
let union (a : t) (b : t) : t =
  if subset b a then a
  else if is_empty a then b
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
  let i = ref 0 and j = ref 0 and found = ref false in
  while (not !found) && !i < na && !j < nb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x = y then found := true else if x < y then incr i else incr j
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Per-node memoization.                                               *)
(* ------------------------------------------------------------------ *)

(* Footprints are memoized per hash-consed node id.  The memo is capped: a
   week-long checker run interns expressions without bound, so an uncapped
   memo would too.  On overflow it resets wholesale — footprints are cheap
   to recompute and the working set re-fills immediately.  A query looks
   up every conjunct's footprint, so a hit allocates nothing and hashes
   no boxed key: node ids are small sequential ints. *)
module Memo = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (id : int) = id land max_int
end)

let memo : t Memo.t = Memo.create 256
let memo_cap = ref (1 lsl 17)
let set_memo_cap n = memo_cap := max 1024 n
let memo_size () = Memo.length memo
let clear_memo () = Memo.reset memo

let memo_add i f =
  if Memo.length memo >= !memo_cap then Memo.reset memo;
  Memo.replace memo i f

let rec of_expr (e : Expr.t) : t =
  match Memo.find memo (Expr.id e) with
  | f -> f
  | exception Not_found ->
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
