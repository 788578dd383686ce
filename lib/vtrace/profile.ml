module S = Vsymexec.Sym_state

type t = {
  state_id : int;
  status : S.status;
  pc : Vsmt.Expr.t list;
  config_constraints : Vsmt.Expr.t list;
  workload_constraints : Vsmt.Expr.t list;
  cost : Vruntime.Cost.t;
  traced_latency_us : float;
  nodes : Callpath.node list;
}

(* every origin test reads each variable's own [origin] *)
let has_origin origin (v : Vsmt.Expr.var) = v.Vsmt.Expr.origin = origin
let mentions_origin origin e = List.exists (has_origin origin) (Vsmt.Expr.vars e)
let only_origin origin e = List.for_all (has_origin origin) (Vsmt.Expr.vars e)

let make ~state_id ~status ~pc ~cost ~clock ~records =
  let entries = Record_match.match_records records in
  let nodes = Callpath.reconstruct entries in
  let traced_latency_us =
    match Callpath.roots nodes with
    | root :: _ -> root.Callpath.latency_us
    | [] -> clock
  in
  {
    state_id;
    status;
    pc;
    config_constraints = List.filter (mentions_origin Vsmt.Expr.Config) pc;
    workload_constraints =
      List.filter
        (fun e ->
          let vs = Vsmt.Expr.vars e in
          vs <> [] && List.for_all (has_origin Vsmt.Expr.Workload) vs)
        pc;
    cost;
    traced_latency_us;
    nodes;
  }

let of_state (st : S.t) =
  make ~state_id:st.S.id ~status:st.S.status ~pc:st.S.pc ~cost:st.S.cost ~clock:st.S.clock
    ~records:(S.signals_in_order st)

let of_result (r : Vsymexec.Executor.result) =
  List.filter_map
    (fun (st : S.t) ->
      match st.S.status with
      | S.Terminated _ -> Some (of_state st)
      | S.Killed _ | S.Running -> None)
    r.Vsymexec.Executor.states
