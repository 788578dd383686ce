(* Expressions are hash-consed, so "the same constraint appears in both
   rows" is physical equality — no text rendering, no structural walks.
   [List.memq] keeps the historical appearance-count semantics: the
   pre-hashconsing code compared rendered constraint text, and two
   constraints print alike exactly when they are the same node. *)
let appearance_count a b =
  List.fold_left (fun acc c -> if List.memq c b then acc + 1 else acc) 0 a

(* Footprint screen: config/workload constraint lists only ever hold
   expressions that mention a variable, so two lists with symbol-disjoint
   footprints cannot share a node — the count is 0 without any memq walk.
   Footprints are memoized per hash-consed node, so the screen costs a
   couple of sorted-array merges per pair. *)
let shared fa fb a b = if not (Vsmt.Footprint.overlaps fa fb) then 0 else appearance_count a b

let screened_count a b = shared (Vsmt.Footprint.of_list a) (Vsmt.Footprint.of_list b) a b

let score (a : Cost_row.t) (b : Cost_row.t) =
  screened_count a.Cost_row.config_constraints b.Cost_row.config_constraints

let workload_score (a : Cost_row.t) (b : Cost_row.t) =
  screened_count a.Cost_row.workload_pred b.Cost_row.workload_pred
