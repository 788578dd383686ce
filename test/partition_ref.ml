(* The incremental, persistent path-condition partition as it was first
   written: every state carried one, [extend] folded in the suffix a fork
   appended, and queries read the slices off the structure.  The library
   now groups conjuncts per query ([Vsmt.Partition]); this is the reference
   its property compares with, as [Model_v2] is for the format-2 reader. *)

module Expr = Vsmt.Expr
module Footprint = Vsmt.Footprint
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
