module CP = Vtrace.Callpath

type t = {
  state_id : int;
  config_constraints : Vsmt.Expr.t list;
  workload_pred : Vsmt.Expr.t list;
  cost : Vruntime.Cost.t;
  traced_latency_us : float;
  chain : string list;
  nodes : CP.node list;
  critical_ops : string list;
}

(* Greedy hottest-child descent from the root; the display form of the
   slow-operation chain keeps only the deepest components, where the cost
   concentrates (paper Table 1 shows "{log_write_buf -> fil_flush}"). *)
let critical_ops_of nodes =
  match CP.roots nodes with
  | [] -> []
  | root :: _ ->
    let rec descend acc (n : CP.node) =
      match CP.children nodes n.CP.cid with
      | [] -> List.rev acc
      | c :: cs ->
        let hottest =
          List.fold_left
            (fun best (k : CP.node) ->
              if k.CP.latency_us > best.CP.latency_us then k else best)
            c cs
        in
        descend (hottest.CP.fname :: acc) hottest
    in
    let path = descend [] root in
    let n = List.length path in
    if n <= 3 then path else List.filteri (fun idx _ -> idx >= n - 3) path

let of_profile (p : Vtrace.Profile.t) =
  {
    state_id = p.Vtrace.Profile.state_id;
    config_constraints = p.Vtrace.Profile.config_constraints;
    workload_pred = p.Vtrace.Profile.workload_constraints;
    cost = p.Vtrace.Profile.cost;
    traced_latency_us = p.Vtrace.Profile.traced_latency_us;
    chain = CP.chain_names p.Vtrace.Profile.nodes;
    nodes = p.Vtrace.Profile.nodes;
    critical_ops = critical_ops_of p.Vtrace.Profile.nodes;
  }

let mentions row params =
  List.exists
    (fun c ->
      List.exists (fun (v : Vsmt.Expr.var) -> List.mem v.Vsmt.Expr.name params) (Vsmt.Expr.vars c))
    row.config_constraints

(* joined with " && " by callers, so Or-rooted constraints need parens *)
let pp_constraint ppf e =
  match Vsmt.Expr.view e with
  | Vsmt.Expr.Binop (Vsmt.Expr.Or, _, _) -> Fmt.pf ppf "(%a)" Vsmt.Expr.pp_friendly e
  | _ -> Vsmt.Expr.pp_friendly ppf e

(* Substitute the assignment, then decide: a fully-concretized constraint
   must evaluate true; a residual constraint (config constraints can mix in
   workload variables, e.g. "row_bytes * 5/4 > buf_size / 4") must remain
   satisfiable for some input — the setting can then trigger the state. *)
(* residual predicates are tiny (the open conjuncts of one row), so the
   default budget is far below [Solver.default_max_nodes] *)
let residual_max_nodes = 2_000

let all_satisfied ?(max_nodes = residual_max_nodes) constraints assignment =
  let residuals =
    List.map
      (fun c ->
        Vsmt.Simplify.simplify
          (Vsmt.Expr.subst
             (fun v ->
               match List.assoc_opt v.Vsmt.Expr.name assignment with
               | Some x -> Some (Vsmt.Expr.const x)
               | None -> None)
             c))
      constraints
  in
  let decided, open_ = List.partition (fun c -> Vsmt.Expr.is_const c <> None) residuals in
  List.for_all (fun c -> Vsmt.Expr.is_const c <> Some 0) decided
  && (open_ = [] || Vsmt.Solver.is_feasible ~max_nodes open_)

let satisfied_by ?max_nodes row assignment =
  all_satisfied ?max_nodes row.config_constraints assignment

let workload_satisfied_by ?max_nodes row assignment =
  all_satisfied ?max_nodes row.workload_pred assignment

let constraint_string row =
  match row.config_constraints with
  | [] -> "true"
  | cs -> String.concat " && " (List.map (Fmt.str "%a" pp_constraint) cs)

(* Everything but [state_id] and the call tree: two rows with equal keys are
   interchangeable as checker witnesses, so the key orders candidates by
   what they say, never by which id the analyzer gave them. *)
let content_key row =
  let b = Buffer.create 128 in
  List.iter
    (fun e ->
      Buffer.add_string b (Vsmt.Expr.to_string e);
      Buffer.add_char b ';')
    row.config_constraints;
  Buffer.add_char b '|';
  List.iter
    (fun e ->
      Buffer.add_string b (Vsmt.Expr.to_string e);
      Buffer.add_char b ';')
    row.workload_pred;
  Buffer.add_char b '|';
  Buffer.add_string b (Vruntime.Cost.summary row.cost);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_float row.traced_latency_us);
  Buffer.add_char b '|';
  List.iter
    (fun s ->
      Buffer.add_string b s;
      Buffer.add_char b ';')
    row.chain;
  Buffer.add_char b '|';
  List.iter
    (fun s ->
      Buffer.add_string b s;
      Buffer.add_char b ';')
    row.critical_ops;
  Buffer.contents b

let pp ppf row =
  Fmt.pf ppf "| %s | %s, {%s} | %s |" (constraint_string row)
    (Vruntime.Cost.summary row.cost)
    (String.concat " -> " row.critical_ops)
    (match row.workload_pred with
    | [] -> "any"
    | cs -> String.concat " && " (List.map (Fmt.str "%a" pp_constraint) cs))
