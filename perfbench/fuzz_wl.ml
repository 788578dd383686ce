(* fuzz-corpus: Vfuzz.Harness.run over a fixed Vfuzz.Generate.corpus,
   analyzed in an order drawn from --seed.

   Many small independent analyses: exploration and per-analysis fixed
   costs dominate and the diff is a few percent, the opposite of
   analyze-mysql.  It is the fan-out unit of independent analyses, and
   the planted ground truth gives a known answer for every verdict.

   One pass per process: a second pass in the same process runs against
   the first pass's interned expressions and is slower, so it would not
   represent a fresh run.  The untraced run therefore forks a fresh child
   per pass over the same corpus, for as many passes as --seconds holds.
   Each system is timed (Harness.score_spec, the unit Harness.run maps
   over), and throughput is the analyses of one pass over the sum of each
   system's fastest time: a shared host only ever adds time, and its speed
   drifts over seconds, so per-system minima are the steadiest estimate of
   the program's own cost.

   The traced run is one pass in this process that also exports every
   model it builds, then times the check path (Check_layers) on the plant
   models of the first [checked_systems] systems, so every per-layer
   metric is measured here too. *)

module P = Violet.Pipeline
module S = Perfbench.Stats
module Span = Perfbench.Span
module W = Vserve.Wire
module C = Common
module A = Analyze_wl
module H = Vfuzz.Harness
module G = Vfuzz.Genspec

(* The telemetry walk at the end of every exploration costs in proportion
   to everything interned so far, so a pass's cost grows faster than its
   corpus: the corpus size is fixed, not scaled with the run length.  500
   systems (~1,700 analyses) leave room for several passes per run. *)
let corpus_size = 500

(* Every system of the seed-42 corpus scores correctly at the commit that
   defined this benchmark; the seed-35 corpus, for one, holds a system
   whose decoy is flagged. *)
let corpus_seed = 42

let checked_systems = 20

let setup (args : C.args) = Perfbench.Mix.corpus ~corpus_seed ~count:corpus_size ~seed:args.C.seed

(* One untraced pass in a fresh child: verdicts, each system's time and
   the child's peak resident set. *)
let pass_in_child corpus : H.verdict list * float array * float =
  C.in_child (fun () ->
      let timed = List.map (fun spec -> Span.timed "system" (fun () -> H.score_spec spec)) corpus in
      ( List.map fst timed,
        Array.of_list (List.map snd timed),
        Option.value ~default:nan (S.vm_hwm_mb 0) ))

let mentions param (row : Vmodel.Cost_row.t) =
  List.exists
    (fun c ->
      List.exists
        (fun (v : Vsmt.Expr.var) -> String.equal v.Vsmt.Expr.name param)
        (Vsmt.Expr.vars c))
    row.Vmodel.Cost_row.config_constraints

(* Harness.score_spec with every analysis traced and its model exported:
   the same verdict rules, so both runs must reach the same verdicts.
   Also returns the exported plant models, for the check path. *)
let score_traced ~dir (spec : G.t) : H.verdict * A.layers list * Check_layers.model list =
  let opts = Vfuzz.Oracle.default_opts in
  let target = G.to_target spec in
  let registry = target.P.registry in
  let errors = ref [] in
  let layers = ref [] in
  let models = ref [] in
  let analyze param =
    let r, _, l = A.analysis ~opts ~traced:true target param in
    (match r with
    | Ok a ->
      let key = spec.G.g_name ^ "." ^ param in
      let file = Filename.concat dir (key ^ ".vmodel") in
      let exported, _, _, el = A.export ~traced:true file a.P.model in
      layers := (l @ el) :: !layers;
      if Result.is_ok exported then models := { Check_layers.key; file; registry } :: !models
      else errors := (param, "the model could not be exported") :: !errors
    | Error _ -> ());
    r
  in
  let plants =
    List.map
      (fun (pl : G.plant) ->
        let param = pl.G.p_param in
        let detected =
          match analyze param with
          | Error e ->
            errors := (param, P.error_to_string e) :: !errors;
            false
          | Ok a ->
            let p = Vruntime.Config_registry.find registry param in
            Violet.Detect.detected registry a
              ~poor:[ (param, Vruntime.Config_registry.decode p pl.G.p_poor) ]
        in
        (param, detected))
      spec.G.g_plants
  in
  let decoys =
    List.map
      (fun d ->
        let flagged =
          match analyze d with
          | Error (P.Unused_parameter _) -> false
          | Error e ->
            errors := (d, P.error_to_string e) :: !errors;
            false
          | Ok a -> List.exists (mentions d) (Vmodel.Impact_model.poor_rows a.P.model)
        in
        (d, flagged))
      spec.G.g_decoys
  in
  let is_plant (m : Check_layers.model) =
    List.exists (fun (pl : G.plant) -> m.Check_layers.key = spec.G.g_name ^ "." ^ pl.G.p_param) spec.G.g_plants
  in
  ( { H.v_system = spec.G.g_name; v_plants = plants; v_decoys = decoys; v_errors = List.rev !errors },
    !layers,
    List.rev (List.filter is_plant !models) )

(* Missed plants, flagged decoys and analysis errors all count as failed. *)
let tally_of (verdicts : H.verdict list) =
  let t = S.tally () in
  List.iter
    (fun (v : H.verdict) ->
      let outcome param good =
        if List.mem_assoc param v.H.v_errors then S.Errored else if good then S.Ok_ else S.Wrong
      in
      List.iter (fun (p, detected) -> S.record t (outcome p detected)) v.H.v_plants;
      List.iter (fun (d, flagged) -> S.record t (outcome d (not flagged))) v.H.v_decoys)
    verdicts;
  t

let verdicts_digest (verdicts : H.verdict list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (v : H.verdict) ->
      Buffer.add_string b v.H.v_system;
      List.iter
        (fun (p, x) -> Buffer.add_string b (Printf.sprintf " %s=%b" p x))
        (v.H.v_plants @ v.H.v_decoys);
      List.iter (fun (p, e) -> Buffer.add_string b (Printf.sprintf " !%s:%s" p e)) v.H.v_errors;
      Buffer.add_char b '\n')
    verdicts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the stages the traced run re-invokes or adds, which are not the pass's
   own work *)
let reinvoked_ms l =
  List.fold_left
    (fun acc k -> acc +. A.get k l)
    0.
    [ "vanalysis.static_ms"; "vtrace.profile_ms"; "vmodel.diff_ms"; "vmodel.build_ms"; "core.export_ms" ]

let run (args : C.args) =
  if args.C.probe then begin
    ignore (setup args);
    exit 0
  end;
  let setups = ref [] in
  C.sample_setup args setups;
  C.sample_setup args setups;
  let corpus = setup args in
  Span.reset ~on:args.C.trace;
  let dir = C.run_dir args "fuzz" in
  (* [passes]: verdicts, per-system times and peak RSS of each pass;
     [models]: the traced pass's exported plant models *)
  let passes, layers, models =
    if args.C.trace then begin
      (* one traced pass, in this process *)
      let t0 = C.now () in
      let results = List.map (score_traced ~dir) corpus in
      let layers = List.concat_map (fun (_, l, _) -> l) results in
      let wall = C.now () -. t0 in
      let work_s = wall -. (List.fold_left (fun acc l -> acc +. reinvoked_ms l) 0. layers /. 1e3) in
      let verdicts = List.map (fun (v, _, _) -> v) results in
      let models = List.concat (List.filteri (fun i _ -> i < checked_systems) (List.map (fun (_, _, m) -> m) results)) in
      ([ (verdicts, [| work_s |], Option.value ~default:nan (S.vm_hwm_mb 0)) ], layers, models)
    end
    else begin
      let t0 = C.now () in
      (* another pass starts if it can end within --seconds at the last
         pass's pace; at least one runs *)
      let rec go acc =
        C.sample_setup args setups;
        let (_, ts, _) as p = pass_in_child corpus in
        if C.now () -. t0 +. S.sum ts <= args.C.seconds then go (p :: acc) else List.rev (p :: acc)
      in
      (go [], [], [])
    end
  in
  let verdicts = match passes with (v, _, _) :: _ -> v | [] -> [] in
  let digests = List.map (fun (v, _, _) -> verdicts_digest v) passes in
  let stable = List.for_all (String.equal (List.hd digests)) digests in
  let setup_s = Array.of_list !setups in
  let tally = S.tally () in
  List.iter
    (fun (v, _, _) ->
      let t = tally_of v in
      tally.S.attempted <- tally.S.attempted + t.S.attempted;
      tally.S.ok <- tally.S.ok + t.S.ok;
      tally.S.wrong <- tally.S.wrong + t.S.wrong;
      tally.S.errored <- tally.S.errored + t.S.errored)
    passes;
  let fastest =
    match passes with
    | [] -> [||]
    | (_, ts, _) :: rest -> List.fold_left (fun acc (_, ts, _) -> Array.map2 Float.min acc ts) ts rest
  in
  let per_pass = tally.S.attempted / max 1 (List.length passes) in
  let end_to_end =
    [
      C.m "setup_s" "s" (S.median setup_s);
      (* the median pass's: each pass is a child forked from the same
         state, and the peak differs between them only by when the GC ran *)
      C.m "peak_rss_mb" "MB" (S.median (Array.of_list (List.map (fun (_, _, m) -> m) passes)));
    ]
  in
  (* Throughput is a per-layer metric, not an end-to-end one: over ten
     seeds its spread exceeded the largest bound a regression check may use,
     on a host whose speed shifts ~1.4x over minutes (see CHANGES.md).  An
     operation here is one plant or decoy analysis. *)
  let throughput = [ C.m "ops_per_s" "1/s" (float_of_int per_pass /. S.sum fastest) ] in
  let score = H.aggregate verdicts in
  C.note "fuzz-corpus: %d systems, %d pass(es) of %s s, %d analyses; recall %.3f precision %.3f, %d errors"
    (List.length corpus) (List.length passes)
    (String.concat " " (List.map (fun (_, ts, _) -> Printf.sprintf "%.3f" (S.sum ts)) passes))
    tally.S.attempted score.H.s_recall score.H.s_precision score.H.s_errors;
  if not stable then C.note "FAIL verdicts differ between passes";
  List.iter
    (fun (v : H.verdict) ->
      List.iter (fun (p, d) -> if not d then C.note "FAIL %s: plant %s missed" v.H.v_system p) v.H.v_plants;
      List.iter (fun (p, f) -> if f then C.note "FAIL %s: decoy %s flagged" v.H.v_system p) v.H.v_decoys;
      List.iter (fun (p, e) -> C.note "FAIL %s: %s: %s" v.H.v_system p e) v.H.v_errors)
    verdicts;
  let setup_ok = C.setup_ok setup_s in
  if not setup_ok then C.note "FAIL a set-up probe failed";
  C.print_extra "digests" (W.Obj [ ("verdicts", W.String (verdicts_digest verdicts)) ]);
  let layers =
    if not args.C.trace then []
    else
      let interned = float_of_int (Vsmt.Expr.interned_count ()) in
      let checks = Check_layers.measure ~seed:args.C.seed ~tally models in
      A.analysis_metrics ~interned layers @ checks @ [ C.m "fail_ratio" "ratio" (S.fail_ratio tally) ]
  in
  let correct = setup_ok && stable && S.failed tally = 0 in
  if args.C.trace then
    Span.write
      ~path:
        (Filename.concat args.C.out_dir
           (Printf.sprintf "trace-fuzz-corpus-%d-%d.json" args.C.seed (Unix.getpid ())))
      ~stamp:(C.stamp args ~offered_rate:0.) !Span.spans;
  C.finish ~untraced_layers:throughput ~trace:args.C.trace ~correct ~tally ~end_to_end ~layers ();
  C.rm_rf dir
