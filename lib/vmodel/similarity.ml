(* Expressions are hash-consed, so "the same constraint appears in both
   rows" is physical equality — no text rendering, no structural walks.
   [List.memq] keeps the historical appearance-count semantics: the
   pre-hashconsing code compared rendered constraint text, and two
   constraints print alike exactly when they are the same node. *)
let appearance_count a b =
  List.fold_left (fun acc c -> if List.memq c b then acc + 1 else acc) 0 a

let score (a : Cost_row.t) (b : Cost_row.t) =
  appearance_count a.Cost_row.config_constraints b.Cost_row.config_constraints

let workload_score (a : Cost_row.t) (b : Cost_row.t) =
  appearance_count a.Cost_row.workload_pred b.Cost_row.workload_pred
