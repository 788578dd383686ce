(* analyze-mysql: Pipeline.analyze + Pipeline.export_model at default
   options on three mysql parameters, closed loop, sequential, each cycle
   over the three in a fresh child process.

   The trace diff dominates this workload and exploration is a small
   share.  The parameters vary the diff's two cost drivers, row count and
   kept-pair count: autocommit (~600 rows, ~200 kept pairs),
   query_cache_type (~760 rows, ~1,300 kept) and max_allowed_packet
   (~1,000 rows, ~100 kept).  autocommit and query_cache_type are paper
   Table 3 cases c1 and c4, whose poor settings must be detected.

   Analyses leave memos behind that outlive them (the expression intern
   table and its renderings, simplifier and footprint memos, test-case
   memos), so a second cycle in one process would time a warm analysis no
   CLI run performs.

   The traced run also times the check path (Check_layers) on the
   exported autocommit model, so every per-layer metric is measured here
   too.  The other two models answer with hundreds of KB after tens of ms
   per check, so the thousand checks a p99 needs would take a minute. *)

module P = Violet.Pipeline
module S = Perfbench.Stats
module Span = Perfbench.Span
module W = Vserve.Wire
module C = Common

let params = [ "autocommit"; "query_cache_type"; "max_allowed_packet" ]
let case_of_param = [ ("autocommit", "c1"); ("query_cache_type", "c4") ]
let checked_params = [ "autocommit" ]
let setup () = Targets.Cases.target_of "mysql"

(* ------------------------------------------------------------------ *)
(* One analysis, layer by layer                                        *)
(* ------------------------------------------------------------------ *)

(* Per-layer values of one analysis, by metric name.  Ratios are carried
   as numerator and denominator so they can be summed before dividing. *)
type layers = (string * float) list

let ms s = s *. 1e3

(* Run Pipeline.analyze.  With [traced], the stages it runs internally —
   static analysis, profiles and rows, the diff and the model build — are
   re-invoked on its result and timed; exploration's self time is what the
   analyze span leaves once they are subtracted.  A re-invocation that
   does not reproduce the pipeline's own rows and pairs comes back as an
   [Engine_failure]. *)
let analysis ?(opts = P.default_options) ~traced (target : P.target) param :
    (P.analysis, P.error) result * float * layers =
  let aid = Span.fresh_id () in
  let static_s =
    if traced then
      snd
        (Span.timed ~parent:aid "vanalysis.static_ms" (fun () ->
             ignore (Vanalysis.Related_config.analyze target.P.program param);
             ignore (Vanalysis.Usage.analyze target.P.program)))
    else 0.
  in
  let g0 = Gc.quick_stat () in
  let r, analyze_s = Span.timed ~id:aid "vsymexec.explore_ms" (fun () -> P.analyze ~opts target param) in
  let g1 = Gc.quick_stat () in
  match r with
  | Error e -> (Error e, analyze_s, [])
  | Ok a when not traced -> (Ok a, analyze_s, [])
  | Ok a ->
    let rows, profile_s =
      Span.timed ~parent:aid "vtrace.profile_ms" (fun () ->
          List.map Vmodel.Cost_row.of_profile (Vtrace.Profile.of_result a.P.result))
    in
    let diff, diff_s =
      Span.timed ~parent:aid "vmodel.diff_ms" (fun () ->
          Vmodel.Diff_analysis.analyze ~threshold:opts.P.threshold
            ~max_nodes:opts.P.budget.Vresilience.Budget.solver_max_nodes ~jobs:opts.P.jobs
            ~slice:opts.P.slice rows)
    in
    let model = a.P.model in
    let _, build_s =
      Span.timed ~parent:aid "vmodel.build_ms" (fun () ->
          Vmodel.Impact_model.build ?degradation:model.Vmodel.Impact_model.degradation
            ~system:model.Vmodel.Impact_model.system ~target:param
            ~related:model.Vmodel.Impact_model.related ~rows ~analysis:diff
            ~explored_states:model.Vmodel.Impact_model.explored_states
            ~analysis_wall_s:model.Vmodel.Impact_model.analysis_wall_s
            ~virtual_analysis_s:model.Vmodel.Impact_model.virtual_analysis_s ())
    in
    let n = List.length rows in
    let kept = List.length diff.Vmodel.Diff_analysis.pairs in
    if n <> List.length a.P.rows || kept <> List.length a.P.diff.Vmodel.Diff_analysis.pairs
    then (Error (P.Engine_failure "re-invoked stages disagree with the pipeline's result"), analyze_s, [])
    else begin
      let sched = a.P.result.Vsymexec.Executor.sched in
      let hits, lookups =
        match sched.Vsched.Exploration_stats.cache with
        | Some c -> (Vsched.Solver_cache.hits c, c.Vsched.Solver_cache.lookups)
        | None -> (0, 0)
      in
      let explore_s =
        Span.self_time ~duration:analyze_s ~children:(static_s +. profile_s +. diff_s +. build_s)
      in
      ( Ok a,
        analyze_s,
        [
          ("vanalysis.static_ms", ms static_s);
          ("vsymexec.explore_ms", ms explore_s);
          ( "vsymexec.reported_wall_ms",
            ms a.P.result.Vsymexec.Executor.stats.Vsymexec.Executor.wall_time_s );
          ( "vsymexec.states",
            float_of_int a.P.result.Vsymexec.Executor.stats.Vsymexec.Executor.states_created );
          ("vsched.solver_queries", float_of_int sched.Vsched.Exploration_stats.solver_queries);
          ("vsched.solver_solves", float_of_int sched.Vsched.Exploration_stats.solver_solves);
          ("cache.hits", float_of_int hits);
          ("cache.lookups", float_of_int lookups);
          ("vtrace.profile_ms", ms profile_s);
          ("vtrace.rows", float_of_int n);
          ("vmodel.diff_ms", ms diff_s);
          ("vmodel.diff_pairs_screened", float_of_int (n * (n - 1) / 2));
          ("vmodel.diff_pairs_kept", float_of_int kept);
          ("vmodel.build_ms", ms build_s);
          ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
        ] )
    end

let get name (l : layers) = Option.value ~default:0. (List.assoc_opt name l)

let sum_layers (ls : layers list) : layers =
  match List.filter (fun l -> l <> []) ls with
  | [] -> []
  | first :: _ -> List.map (fun (k, _) -> (k, List.fold_left (fun acc l -> acc +. get k l) 0. ls)) first

let ratio a b = if b = 0. then 0. else a /. b

(* Turn summed layer values into the reported metrics, with [suffix]
   appended to each name; [only] restricts the names reported. *)
let layer_metrics ?(suffix = "") ?only (l : layers) =
  let l =
    List.filter (fun (k, _) -> k <> "cache.hits" && k <> "cache.lookups") l
    @ [
        ("vsched.cache_hit_ratio", ratio (get "cache.hits" l) (get "cache.lookups" l));
        ( "vmodel.diff_keep_ratio",
          ratio (get "vmodel.diff_pairs_kept" l) (get "vmodel.diff_pairs_screened" l) );
      ]
  in
  let unit_of k =
    if String.ends_with ~suffix:"_ms" k then "ms"
    else if String.ends_with ~suffix:"_bytes" k then "B"
    else if String.ends_with ~suffix:"_ratio" k then "ratio"
    else if k = "gc.minor_mwords" then "Mwords"
    else "count"
  in
  List.filter_map
    (fun (k, v) ->
      match only with
      | Some names when not (List.mem k names) -> None
      | _ -> Some (C.m (k ^ suffix) (unit_of k) v))
    l

(* Element-wise median of several runs' layer values. *)
let median_layers (ls : layers list) : layers =
  match List.filter (fun l -> l <> []) ls with
  | [] -> []
  | first :: _ as ls ->
    List.map (fun (k, _) -> (k, S.median (Array.of_list (List.map (get k) ls)))) first

(* Pipeline.export_model, timed: the result, the time, the bytes written
   and, with [traced], the export's layer values. *)
let export ~traced path (model : Vmodel.Impact_model.t) =
  let r, d = Span.timed "core.export_ms" (fun () -> P.export_model model path) in
  let bytes = match r with Ok () -> C.file_size path | Error _ -> 0 in
  (r, d, bytes, if traced then [ ("core.export_ms", ms d); ("vmodel.model_bytes", float_of_int bytes) ] else [])

(* The analysis-side per-layer metrics of a workload: the layer values of
   its analyses (each with its export) summed, and the size of the
   expression intern table at the end. *)
let analysis_metrics ~interned (ls : layers list) =
  layer_metrics (sum_layers ls) @ [ C.m "vsmt.interned_nodes" "count" interned ]

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

type one = {
  param : string;
  outcome : S.outcome;
  problem : string option;
  digest : string;  (** model digest, "" without a model *)
  bytes : int;
  work_s : float;  (** analyze + export, without any re-invocation; nan on error *)
  layers : layers;
}

(* One cycle over the three parameters, as a fresh child returns it: its
   peak resident set, the intern table's size at its end and, traced, its
   spans come back with it. *)
type cycle = { ones : one list; rss_mb : float; interned : int; spans : Span.t list }

(* Printed per parameter in the traced run's summary: the layers the
   diff-bound work of this workload moves.  The per-layer metrics are
   these summed over the three parameters. *)
let per_param_names =
  [
    "vsymexec.explore_ms"; "vtrace.profile_ms"; "vtrace.rows"; "vmodel.diff_ms";
    "vmodel.diff_pairs_screened"; "vmodel.diff_pairs_kept"; "vmodel.diff_keep_ratio";
    "vmodel.build_ms"; "gc.minor_mwords"; "core.export_ms"; "vmodel.model_bytes";
  ]

let model_path ~dir param = Filename.concat dir (param ^ ".vmodel")

(* Analyze, export and check one parameter. *)
let one ~traced ~dir target param =
  let r, analyze_s, layers = analysis ~traced target param in
  match r with
  | Error e ->
    {
      param;
      outcome = S.Errored;
      problem = Some (P.error_to_string e);
      digest = "";
      bytes = 0;
      work_s = nan;
      layers = [];
    }
  | Ok a ->
    let exported, export_s, bytes, export_layers = export ~traced (model_path ~dir param) a.P.model in
    let detected =
      match List.assoc_opt param case_of_param with
      | None -> true
      | Some case ->
        Violet.Detect.detected target.P.registry a
          ~poor:(Targets.Cases.find_known case).Targets.Cases.poor_setting
    in
    let outcome, problem =
      match exported with
      | Error e -> (S.Errored, Some ("export: " ^ e))
      | Ok () when not detected -> (S.Wrong, Some "the Table 3 poor setting is not detected")
      | Ok () -> (S.Ok_, None)
    in
    {
      param;
      outcome;
      problem;
      digest = Vinc.Baseline.model_digest a.P.model;
      bytes;
      work_s = analyze_s +. export_s;
      layers = layers @ export_layers;
    }

(* Runs in the child: the spans it inherited are the parent's to keep. *)
let cycle ~traced ~dir target () =
  Span.spans := [];
  let ones = List.map (one ~traced ~dir target) params in
  {
    ones;
    rss_mb = Option.value ~default:nan (S.vm_hwm_mb 0);
    interned = Vsmt.Expr.interned_count ();
    spans = !Span.spans;
  }

let run (args : C.args) =
  let target = setup () in
  if args.C.probe then exit 0;
  let traced = args.C.trace in
  let setups = ref [] in
  C.sample_setup args setups;
  let dir = C.run_dir args "analyze" in
  Span.reset ~on:traced;
  let t0 = C.now () in
  (* closed loop: each cycle runs in a child forked from this process, which
     has loaded the target and analyzed nothing, so every cycle is the cold
     analysis a CLI run performs.  The next cycle starts if it can end
     within --seconds at the last one's pace; at least one runs.  Set-up
     samples are taken between cycles. *)
  let rec cycles acc =
    let c0 = C.now () in
    let c = C.in_child (cycle ~traced ~dir target) in
    Span.absorb c.spans;
    C.sample_setup args setups;
    C.sample_setup args setups;
    let now = C.now () in
    if now -. t0 +. (now -. c0) <= args.C.seconds then cycles (c :: acc) else List.rev (c :: acc)
  in
  let all = cycles [] in
  let tally = S.tally () in
  let problems = ref [] in
  (* every cycle must export the model the first one exported *)
  let reference = Hashtbl.create 3 in
  List.iter
    (fun c ->
      List.iter
        (fun o ->
          let consistent =
            match Hashtbl.find_opt reference o.param with
            | _ when o.digest = "" -> true
            | None ->
              Hashtbl.replace reference o.param o.digest;
              true
            | Some d -> String.equal d o.digest
          in
          let outcome, problem =
            match o.problem with
            | Some _ -> (o.outcome, o.problem)
            | None when not consistent -> (S.Wrong, Some "model digest differs from the first cycle's")
            | None -> (o.outcome, None)
          in
          S.record tally outcome;
          Option.iter (fun p -> problems := (o.param ^ ": " ^ p) :: !problems) problem)
        c.ones)
    all;
  let samples p =
    List.concat_map (fun c -> List.filter (fun o -> o.param = p) c.ones) all
  in
  (* each parameter's fastest cycle, summed over the three: a shared host
     only ever adds time, and its speed drifts over seconds, so the
     fastest fresh run is the steadiest estimate of the program's own
     cost *)
  let analyze_s =
    List.fold_left
      (fun acc p ->
        acc
        +. List.fold_left
             (fun m o -> if Float.is_finite o.work_s then Float.min m o.work_s else m)
             infinity (samples p))
      0. params
  in
  let per_cycle f = S.median (Array.of_list (List.map f all)) in
  let setup_s = Array.of_list !setups in
  if not (C.setup_ok setup_s) then problems := "a set-up probe failed" :: !problems;
  let end_to_end =
    [ C.m "setup_s" "s" (S.median setup_s); C.m "peak_rss_mb" "MB" (per_cycle (fun c -> c.rss_mb)) ]
  in
  (* Throughput is a per-layer metric, not an end-to-end one: the medians
     of two ten-seed sets of the analysis time differed by more than the
     largest bound a regression check may use, on a host whose speed
     shifts ~1.4x over minutes (see CHANGES.md).  An operation here is one
     parameter analyzed and exported. *)
  let timing = [ C.m "ops_per_s" "1/s" (float_of_int (List.length params) /. analyze_s) ] in
  C.note "analyze-mysql: %d cycle(s), each a fresh child; seconds per parameter and cycle:" (List.length all);
  List.iter
    (fun p ->
      C.note "  %-20s %s" p
        (String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.work_s) (samples p))))
    params;
  C.note "analyze_s %.3f s (each parameter's fastest cycle), model_kb %.1f KB" analyze_s
    (per_cycle (fun c -> float_of_int (List.fold_left (fun s o -> s + o.bytes) 0 c.ones)) /. 1024.);
  let layers =
    if not traced then []
    else begin
      let per_param =
        List.map (fun p -> (p, median_layers (List.map (fun o -> o.layers) (samples p)))) params
      in
      C.print_summary
        (List.concat_map (fun (p, l) -> layer_metrics ~suffix:("." ^ p) ~only:per_param_names l) per_param);
      let checks =
        Check_layers.measure ~seed:args.C.seed ~tally
          (List.map
             (fun p -> { Check_layers.key = p; file = model_path ~dir p; registry = target.P.registry })
             checked_params)
      in
      analysis_metrics ~interned:(per_cycle (fun c -> float_of_int c.interned)) (List.map snd per_param)
      @ checks
      @ [ C.m "fail_ratio" "ratio" (S.fail_ratio tally) ]
    end
  in
  List.iter (fun p -> C.note "FAIL %s" p) (List.rev !problems);
  C.print_extra "digests"
    (W.Obj (List.map (fun p -> (p, W.String (Option.value ~default:"" (Hashtbl.find_opt reference p)))) params));
  let correct = !problems = [] && S.failed tally = 0 in
  if traced then
    Span.write
      ~path:(Filename.concat args.C.out_dir (Printf.sprintf "trace-analyze-mysql-%d-%d.json" args.C.seed (Unix.getpid ())))
      ~stamp:(C.stamp args ~offered_rate:0.) !Span.spans;
  C.finish ~untraced_layers:timing ~trace:traced ~correct ~tally ~end_to_end ~layers ();
  C.rm_rf dir
