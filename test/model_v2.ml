(* The format-2 impact-model printer as it was first written: it builds the
   model's whole [Sexp.t] tree and prints it with [Sexp.to_string].  The
   library now appends one small tree per item to one buffer; this
   rendering is the reference the byte-identity property compares it
   with, as [Model_v1] is for format 1. *)

module M = Vmodel.Impact_model
module Row = Vmodel.Cost_row
module E = Vsmt.Expr
module Sexp = Vsmt.Sexp
module Serial = Vsmt.Serial
module Expr_tbl = Hashtbl.Make (E)

let cost_to_sexp (c : Vruntime.Cost.t) =
  Sexp.list
    (Sexp.float c.latency_us
    :: List.map Sexp.int
         [ c.instructions; c.syscalls; c.io_calls; c.io_bytes; c.sync_ops; c.net_ops;
           c.allocations; c.cache_ops ])

let pair_to_sexp (p : M.poor_pair_summary) =
  Sexp.list
    [ Sexp.atom "pair"; Sexp.int p.slow_id; Sexp.int p.fast_id; Sexp.int p.similarity;
      Sexp.float p.latency_ratio; Sexp.atom p.trigger;
      Sexp.list (List.map Sexp.atom p.critical_path); Sexp.float p.max_differential_us ]

let to_string (t : M.t) =
  let index = Expr_tbl.create 256 and vars = ref [] and n_vars = ref 0 and nodes = ref [] in
  let rec node e =
    match Expr_tbl.find_opt index e with
    | Some i -> i
    | None ->
      let tag, children =
        match E.view e with
        | E.Const v -> ("const", [ v ])
        | E.Var v ->
          vars := Serial.var_to_sexp v :: !vars;
          incr n_vars;
          ("var", [ !n_vars - 1 ])
        | E.Not a -> ("not", [ node a ])
        | E.Neg a -> ("neg", [ node a ])
        | E.Binop (op, a, b) ->
          let a = node a in
          (Serial.binop_atom op, [ a; node b ])
        | E.Ite (c, a, b) ->
          let c = node c in
          let a = node a in
          ("ite", [ c; a; node b ])
      in
      nodes := Sexp.list (Sexp.atom tag :: List.map Sexp.int children) :: !nodes;
      let i = Expr_tbl.length index in
      Expr_tbl.add index e i;
      i
  in
  let refs es = Sexp.list (List.map (fun e -> Sexp.int (node e)) es) in
  let field name items = Sexp.list (Sexp.atom name :: items) in
  (* rows and dropped paths number the nodes, so they render first *)
  let rows =
    List.map
      (fun (r : Row.t) ->
        let configs = refs r.config_constraints in
        let workloads = refs r.workload_pred in
        Sexp.list
          [ Sexp.int r.state_id; configs; workloads; cost_to_sexp r.cost;
            Sexp.float r.traced_latency_us; Sexp.list (List.map Sexp.atom r.critical_ops) ])
      t.rows
  in
  let dropped_path (dp : M.dropped_path) =
    let configs = refs dp.dp_config_constraints in
    field "dp" [ Sexp.int dp.dp_state_id; configs; Sexp.float dp.dp_latency_so_far_us ]
  in
  let degradation =
    Option.map
      (fun (d : M.degradation_summary) ->
        let dropped = List.map dropped_path d.dropped_paths in
        field "degradation"
          [ field "rungs" (List.map Sexp.atom d.rungs);
            field "deadline-hit" [ Sexp.atom (string_of_bool d.deadline_hit) ];
            field "dropped" dropped ])
      t.degradation
  in
  Sexp.to_string
    (field "impact-model-v2"
       ([ field "system" [ Sexp.atom t.system ]; field "target" [ Sexp.atom t.target ];
          field "related" (List.map Sexp.atom t.related);
          field "threshold" [ Sexp.float t.threshold ]; field "vars" (List.rev !vars);
          field "nodes" (List.rev !nodes); field "rows" rows;
          field "pairs" (List.map pair_to_sexp t.poor_pairs);
          field "poor-states" (List.map Sexp.int t.poor_state_ids);
          field "max-ratio" [ Sexp.float t.max_ratio ];
          field "explored-states" [ Sexp.int t.explored_states ];
          field "analysis-wall-s" [ Sexp.float t.analysis_wall_s ];
          field "virtual-analysis-s" [ Sexp.float t.virtual_analysis_s ] ]
       @ Option.to_list degradation))
