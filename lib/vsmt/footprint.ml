(* Free-symbol footprints of hash-consed expressions.

   A footprint is the set of symbolic variables an expression reads,
   represented as a sorted array of interned symbol ids so a union is a
   linear merge.  Symbol ids — like expression ids — are process-local
   allocation order, so partitions over rehashed expressions are rebuilt
   from scratch ({!Sym_state.map_exprs}). *)

(* ------------------------------------------------------------------ *)
(* The symbol intern table: name -> id, plus each id's origin.         *)
(* ------------------------------------------------------------------ *)

let sym_ids : (string, int) Hashtbl.t = Hashtbl.create 256
let sym_origins : Expr.origin array ref = ref (Array.make 64 Expr.Internal)
let sym_next = ref 0

(* Variables are identified by name alone, matching [Expr.vars]'s dedup
   semantics: two [Expr.var]s with the same name are the same symbol. *)
let intern_sym (v : Expr.var) =
  match Hashtbl.find_opt sym_ids v.Expr.name with
  | Some id -> id
  | None ->
    let id = !sym_next in
    sym_next := id + 1;
    if id >= Array.length !sym_origins then begin
      let bigger = Array.make (2 * Array.length !sym_origins) Expr.Internal in
      Array.blit !sym_origins 0 bigger 0 (Array.length !sym_origins);
      sym_origins := bigger
    end;
    !sym_origins.(id) <- v.Expr.origin;
    Hashtbl.add sym_ids v.Expr.name id;
    id

(* ------------------------------------------------------------------ *)
(* Footprints: sorted int arrays, united by a merge.                   *)
(* ------------------------------------------------------------------ *)

type t = int array

let empty : t = [||]
let is_empty (f : t) = Array.length f = 0

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

let exists_origin origin (f : t) = Array.exists (fun id -> !sym_origins.(id) = origin) f
let for_all_origin origin (f : t) = Array.for_all (fun id -> !sym_origins.(id) = origin) f

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
