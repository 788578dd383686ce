(* The format-1 impact-model printer, kept as the reference rendering the
   identity tests compare through.  Format 1 wrote every constraint in
   full at each occurrence; the library now writes and reads format 2
   only.  Two models with equal format-1 renderings hold the same
   analysis result, so the golden digests below are md5s of this text
   and keep meaning what they meant before format 2. *)

module M = Vmodel.Impact_model
module Row = Vmodel.Cost_row
module Cost = Vruntime.Cost
module Sexp = Vsmt.Sexp
module Serial = Vsmt.Serial

let cost_to_sexp (c : Cost.t) =
  Sexp.list
    [
      Sexp.float c.Cost.latency_us;
      Sexp.int c.Cost.instructions;
      Sexp.int c.Cost.syscalls;
      Sexp.int c.Cost.io_calls;
      Sexp.int c.Cost.io_bytes;
      Sexp.int c.Cost.sync_ops;
      Sexp.int c.Cost.net_ops;
      Sexp.int c.Cost.allocations;
      Sexp.int c.Cost.cache_ops;
    ]

let exprs es = Sexp.list (List.map Serial.expr_to_sexp es)

let row_to_sexp (r : Row.t) =
  Sexp.list
    [
      Sexp.atom "row";
      Sexp.int r.Row.state_id;
      exprs r.Row.config_constraints;
      exprs r.Row.workload_pred;
      cost_to_sexp r.Row.cost;
      Sexp.float r.Row.traced_latency_us;
      Sexp.list (List.map Sexp.atom r.Row.critical_ops);
    ]

let pair_to_sexp (p : M.poor_pair_summary) =
  Sexp.list
    [
      Sexp.atom "pair";
      Sexp.int p.M.slow_id;
      Sexp.int p.M.fast_id;
      Sexp.int p.M.similarity;
      Sexp.float p.M.latency_ratio;
      Sexp.atom p.M.trigger;
      Sexp.list (List.map Sexp.atom p.M.critical_path);
      Sexp.float p.M.max_differential_us;
    ]

let dropped_path_to_sexp (dp : M.dropped_path) =
  Sexp.list
    [
      Sexp.atom "dp";
      Sexp.int dp.M.dp_state_id;
      exprs dp.M.dp_config_constraints;
      Sexp.float dp.M.dp_latency_so_far_us;
    ]

let degradation_to_sexp (d : M.degradation_summary) =
  Sexp.list
    [
      Sexp.atom "degradation";
      Sexp.list (Sexp.atom "rungs" :: List.map Sexp.atom d.M.rungs);
      Sexp.list [ Sexp.atom "deadline-hit"; Sexp.atom (string_of_bool d.M.deadline_hit) ];
      Sexp.list (Sexp.atom "dropped" :: List.map dropped_path_to_sexp d.M.dropped_paths);
    ]

let to_sexp (t : M.t) =
  Sexp.list
    ([
       Sexp.atom "impact-model";
       Sexp.list [ Sexp.atom "system"; Sexp.atom t.M.system ];
       Sexp.list [ Sexp.atom "target"; Sexp.atom t.M.target ];
       Sexp.list (Sexp.atom "related" :: List.map Sexp.atom t.M.related);
       Sexp.list [ Sexp.atom "threshold"; Sexp.float t.M.threshold ];
       Sexp.list (Sexp.atom "rows" :: List.map row_to_sexp t.M.rows);
       Sexp.list (Sexp.atom "pairs" :: List.map pair_to_sexp t.M.poor_pairs);
       Sexp.list (Sexp.atom "poor-states" :: List.map Sexp.int t.M.poor_state_ids);
       Sexp.list [ Sexp.atom "max-ratio"; Sexp.float t.M.max_ratio ];
       Sexp.list [ Sexp.atom "explored-states"; Sexp.int t.M.explored_states ];
       Sexp.list [ Sexp.atom "analysis-wall-s"; Sexp.float t.M.analysis_wall_s ];
       Sexp.list [ Sexp.atom "virtual-analysis-s"; Sexp.float t.M.virtual_analysis_s ];
     ]
    @ match t.M.degradation with None -> [] | Some d -> [ degradation_to_sexp d ])

let to_string t = Sexp.to_string (to_sexp t)

(* md5 of the format-1 rendering with wall time zeroed: what
   [Vinc.Baseline.model_digest] computed while models were format 1 *)
let digest t = Digest.to_hex (Digest.string (to_string { t with M.analysis_wall_s = 0. }))

(* what a format-1 [Pipeline.export_model] wrote: the rendering above in a
   version-1 envelope *)
let export t path =
  Result.map_error Vresilience.Checkpoint.error_to_string
    (Vresilience.Checkpoint.write ~path ~kind:Violet.Pipeline.model_kind ~version:1
       (to_string t))
