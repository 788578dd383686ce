type t = { workload : (string * int) list; description : string }

let describe vars assignment =
  let part (v : Vsmt.Expr.var) =
    match List.assoc_opt v.Vsmt.Expr.name assignment with
    | Some x -> Some (Printf.sprintf "%s=%s" v.Vsmt.Expr.name (Vsmt.Dom.value_to_string v.Vsmt.Expr.dom x))
    | None -> None
  in
  String.concat ", " (List.filter_map part vars)

let of_predicate_live preds =
  match preds with
  | [] -> Some { workload = []; description = "any workload" }
  | _ -> begin
    match Vsmt.Solver.check ~max_nodes:Vsmt.Solver.default_max_nodes preds with
    | Vsmt.Solver.Sat m ->
      let vars = List.concat_map Vsmt.Expr.vars preds in
      let vars =
        List.fold_left
          (fun acc (v : Vsmt.Expr.var) ->
            if List.exists (fun (w : Vsmt.Expr.var) -> w.Vsmt.Expr.name = v.Vsmt.Expr.name) acc
            then acc
            else acc @ [ v ])
          [] vars
      in
      let m = Vsmt.Solver.complete ~vars m in
      Some { workload = m; description = "run workload with " ^ describe vars m }
    | Vsmt.Solver.Unsat | Vsmt.Solver.Unknown -> None
  end

(* [of_predicate_live] is deterministic in its predicate list (the solver
   budget is pinned), so repeated findings over the same rows answer from a
   bounded memo: steady-state serving builds each witness's test case once.
   Keys are expression ids, never the expressions: a structural hash reads
   an expression's render cache, so a key stored before its expressions are
   rendered would not be found after.  The table resets rather than evicts
   when full. *)
let ids = List.map Vsmt.Expr.id
let memo : (int list, t option) Hashtbl.t = Hashtbl.create 64

let of_predicate preds =
  let key = ids preds in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
    let r = of_predicate_live preds in
    if Hashtbl.length memo >= 4_096 then Hashtbl.reset memo;
    Hashtbl.replace memo key r;
    r

let of_row (row : Vmodel.Cost_row.t) = of_predicate row.Vmodel.Cost_row.workload_pred

(* Residual input constraints of a row's configuration constraints under a
   concrete configuration: mixed constraints like "row_bytes > buf/2" become
   pure input predicates once the configuration is pinned. *)
let residuals assignment constraints =
  List.filter_map
    (fun c ->
      let r =
        Vsmt.Simplify.simplify
          (Vsmt.Expr.subst
             (fun v ->
               match List.assoc_opt v.Vsmt.Expr.name assignment with
               | Some x -> Some (Vsmt.Expr.const x)
               | None -> None)
             c)
      in
      match Vsmt.Expr.is_const r with Some _ -> None | None -> Some r)
    constraints

(* Everything [of_pair] reads is in this key — both assignments and both
   rows' predicate lists — so the memo is exact across models and modes;
   the win is skipping the residual substitution/simplification, not just
   the solver call. *)
let pair_memo :
    ( ((string * int) list * (string * int) list)
      * (int list * int list)
      * (int list * int list),
      t option )
    Hashtbl.t =
  Hashtbl.create 64

let of_pair ~poor ~good ~(slow : Vmodel.Cost_row.t) ~(fast : Vmodel.Cost_row.t) =
  let key =
    ( (poor, good),
      (ids slow.Vmodel.Cost_row.workload_pred, ids fast.Vmodel.Cost_row.workload_pred),
      (ids slow.Vmodel.Cost_row.config_constraints, ids fast.Vmodel.Cost_row.config_constraints) )
  in
  match Hashtbl.find_opt pair_memo key with
  | Some r -> r
  | None ->
    let r =
      of_predicate
        (slow.Vmodel.Cost_row.workload_pred
        @ fast.Vmodel.Cost_row.workload_pred
        @ residuals poor slow.Vmodel.Cost_row.config_constraints
        @ residuals good fast.Vmodel.Cost_row.config_constraints)
    in
    if Hashtbl.length pair_memo >= 4_096 then Hashtbl.reset pair_memo;
    Hashtbl.replace pair_memo key r;
    r
