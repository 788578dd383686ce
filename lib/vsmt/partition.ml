(* Symbol-disjoint partition of a path condition.

   A partition groups a constraint list into slices such that constraints
   in different slices share no symbols.  It is a persistent structure
   maintained incrementally as the executor appends constraints: forked
   states share their common prefix's partition, and a query only pays
   for the constraints it actually depends on (see [relevant]).

   Constraints carry their position in the source list, so every slice
   (and every [relevant] result) lists its constraints in original path
   order — a canonical order that is a pure function of the constraint
   sequence, independent of symbol or expression ids.  That is what makes
   per-slice solving deterministic across runs and cache on/off. *)

module Imap = Map.Make (Int)

type slice = {
  s_foot : Footprint.t;
  s_rev : (int * Expr.t) list;  (* (position, constraint), descending position *)
}

type t = {
  by_sym : int Imap.t;  (* symbol id -> slice id *)
  slices : slice Imap.t;
  next : int;  (* next slice id *)
  count : int;  (* constraints folded in so far *)
  src : Expr.t list;  (* the constraint list this partition was built from *)
  ground : (int * Expr.t) list;  (* var-free non-constant leftovers, descending *)
  falsified : bool;
}

let empty =
  { by_sym = Imap.empty; slices = Imap.empty; next = 0; count = 0; src = []; ground = []; falsified = false }

let count p = p.count
let n_slices p = Imap.cardinal p.slices
let falsified p = p.falsified

let clean p = p.ground = [] && not p.falsified

(* Merge two position-descending lists (positions are unique). *)
let rec merge_desc a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((ia, _) as ha) :: ta, ((ib, _) as hb) :: tb ->
    if ia > ib then ha :: merge_desc ta b else hb :: merge_desc a tb

let touched_ids by_sym (f : Footprint.t) =
  Array.fold_left
    (fun acc sy ->
      match Imap.find_opt sy by_sym with
      | Some i when not (List.mem i acc) -> i :: acc
      | _ -> acc)
    []
    (f :> int array)

let add1 part c =
  if part.falsified then { part with count = part.count + 1 }
  else
    match Expr.is_const c with
    | Some 0 -> { part with falsified = true; count = part.count + 1 }
    | Some _ -> { part with count = part.count + 1 }
    | None ->
      let f = Footprint.of_expr c in
      if Footprint.is_empty f then
        (* var-free but not a literal constant: keep it aside so [relevant]
           stays sound.  Simplified path conditions never produce these. *)
        { part with ground = (part.count, c) :: part.ground; count = part.count + 1 }
      else begin
        let ids = touched_ids part.by_sym f in
        let merged_foot, merged_rev =
          List.fold_left
            (fun (fo, rev) i ->
              let s = Imap.find i part.slices in
              (Footprint.union fo s.s_foot, merge_desc rev s.s_rev))
            (f, []) ids
        in
        let s = { s_foot = merged_foot; s_rev = (part.count, c) :: merged_rev } in
        let slices = List.fold_left (fun m i -> Imap.remove i m) part.slices ids in
        let slices = Imap.add part.next s slices in
        let by_sym =
          Array.fold_left (fun m sy -> Imap.add sy part.next m) part.by_sym (merged_foot :> int array)
        in
        { part with by_sym; slices; next = part.next + 1; count = part.count + 1 }
      end

let of_list cs = { (List.fold_left add1 empty cs) with src = cs }

let extend part cs =
  (* The executor's path conditions grow by suffix ([Simplify.simplify_conj]
     keeps an already-simplified prefix intact), so the common case folds in
     only the new constraints.  Anything else — including falsification to
     [[fls]] — rebuilds from scratch, which is always correct. *)
  let rec split old fresh =
    match (old, fresh) with
    | [], rest -> Some rest
    | _ :: _, [] -> None
    | o :: os, f :: fs -> if Expr.equal o f then split os fs else None
  in
  match split part.src cs with
  | Some suffix -> { (List.fold_left add1 part suffix) with src = cs }
  | None -> of_list cs

let relevant part (fp : Footprint.t) =
  if part.falsified then [ Expr.fls ]
  else
    let ids = touched_ids part.by_sym fp in
    let rev =
      List.fold_left (fun rev i -> merge_desc rev (Imap.find i part.slices).s_rev) part.ground ids
    in
    List.rev_map snd rev

let slices part =
  if part.falsified then [ ([ Expr.fls ], Footprint.empty) ]
  else
    Imap.bindings part.slices
    |> List.map (fun (_, s) ->
           let min_pos = match List.rev s.s_rev with (p, _) :: _ -> p | [] -> 0 in
           (min_pos, (List.rev_map snd s.s_rev, s.s_foot)))
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
    |> List.map snd

let ground part = List.rev_map snd part.ground

let pp ppf part =
  if part.falsified then Fmt.pf ppf "partition(false)"
  else
    Fmt.pf ppf "partition(%d constraints, %d slices%s)" part.count (n_slices part)
      (if part.ground = [] then "" else Fmt.str ", %d ground" (List.length part.ground))
