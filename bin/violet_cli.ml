(* The Violet command-line tool.

   Subcommands mirror the paper's workflow (Figure 6):
     violet list-params <system>            parameter registry inventory
     violet related <system> <param>        static related-parameter analysis
     violet analyze <system> <param>        run the pipeline, print the report
     violet check <system> <param> <file>   checker mode 2 on a config file
     violet check-update <system> <param> <old> <new>   checker mode 1
     violet serve --models <dir>            continuous-checking daemon
     violet client <verb> ...               talk to a running daemon

   Systems are the bundled target models: mysql, postgres, apache, squid.
   Models exported with --export are reused by the checker with --model,
   the deployment the paper describes (analyze once, check continuously),
   and served by the vserve daemon from a model-registry directory. *)

open Cmdliner

let system_arg =
  let doc = "Target system (mysql, postgres, apache or squid)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)

let param_arg pos_idx =
  let doc = "Configuration parameter name." in
  Arg.(required & pos pos_idx (some string) None & info [] ~docv:"PARAM" ~doc)

let target_of_system system =
  match Targets.Cases.find_target system with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown system %s (expected one of: %s)" system
         (String.concat ", " Targets.Cases.systems))

let or_die = function
  | Ok v -> v
  | Error msg ->
    Fmt.epr "violet: %s@." msg;
    exit 1

(* ------------------------------------------------------------------ *)

let list_params system =
  let target = or_die (target_of_system system) in
  let reg = target.Violet.Pipeline.registry in
  Fmt.pr "%-34s %-22s %-8s %-6s %s@." "parameter" "type" "perf" "hook" "description";
  List.iter
    (fun (p : Vruntime.Config_registry.param) ->
      let ty =
        match p.Vruntime.Config_registry.kind with
        | Vruntime.Config_registry.Bool -> "bool"
        | Vruntime.Config_registry.Int { lo; hi } -> Printf.sprintf "int[%d..%d]" lo hi
        | Vruntime.Config_registry.Enum vs -> "enum{" ^ String.concat "," vs ^ "}"
        | Vruntime.Config_registry.Float_choices fs ->
          "float{" ^ String.concat "," (List.map (Printf.sprintf "%g") fs) ^ "}"
      in
      let ty = if String.length ty > 22 then String.sub ty 0 19 ^ "..." else ty in
      let hook =
        match p.Vruntime.Config_registry.hook with
        | Vruntime.Config_registry.Hooked -> "yes"
        | Vruntime.Config_registry.No_hook_function_pointer -> "fnptr"
        | Vruntime.Config_registry.No_hook_complex_type -> "complex"
      in
      Fmt.pr "%-34s %-22s %-8s %-6s %s@." p.Vruntime.Config_registry.name ty
        (if p.Vruntime.Config_registry.perf_related then "perf" else "-")
        hook p.Vruntime.Config_registry.summary)
    (Vruntime.Config_registry.params reg);
  0

let related system param =
  let target = or_die (target_of_system system) in
  let r = Violet.Pipeline.related_params target param in
  Fmt.pr "target:     %s@." r.Vanalysis.Related_config.target;
  Fmt.pr "enablers:   [%s]@." (String.concat ", " r.Vanalysis.Related_config.enablers);
  Fmt.pr "influenced: [%s]@." (String.concat ", " r.Vanalysis.Related_config.influenced);
  Fmt.pr "related:    [%s]@." (String.concat ", " r.Vanalysis.Related_config.related);
  0

(* Whole-system incremental analysis (DESIGN.md Section 5k).  The first
   run (or --no-incremental) builds the baseline directory from scratch;
   later runs diff the current program against the manifest's content
   keys, re-explore only invalidated slices, splice the rest in verbatim
   and report upgrade findings against the previous baseline's models.  A
   manifest that exists but does not load (corrupt, or written by another
   manifest version) forces a rebuild from scratch, still checked against
   the previous models. *)
let analyze_incremental ~opts ~dir ~no_incremental (target : Violet.Pipeline.target) =
  (* pre-load the previous version's models: the rebuild or splice
     rewrites the directory in place, and upgrade checking needs both
     sides *)
  let load_models params =
    List.filter_map
      (fun param ->
        match Vinc.Baseline.load_model ~dir ~param with
        | Ok md -> Some (param, md)
        | Error _ -> None)
      params
  in
  let scratch () =
    let t, analyses = or_die (Vinc.Baseline.build ~opts ~dir target) in
    Fmt.pr "baseline %s: built from scratch, %d slices@." dir
      (List.length t.Vinc.Baseline.mf_slices);
    List.map (fun (param, a) -> param, a.Violet.Pipeline.model) analyses
  in
  let upgrade_check old_models new_models =
    let findings = ref 0 in
    List.iter
      (fun (param, new_model) ->
        match List.assoc_opt param old_models with
        | None -> () (* parameter new in this version: nothing to compare *)
        | Some (old_model, old_digest) ->
          let report =
            Vchecker.Checker.check_upgrade ~old_digest
              ~new_digest:(Vinc.Baseline.model_digest new_model) ~old_model ~new_model ()
          in
          if report.Vchecker.Checker.findings <> [] then begin
            findings := !findings + List.length report.Vchecker.Checker.findings;
            Fmt.pr "%s: %a" param Vchecker.Checker.pp_report report
          end)
      new_models;
    if !findings = 0 then begin
      Fmt.pr "upgrade check: no specious configuration findings@.";
      0
    end
    else 2
  in
  match Vinc.Baseline.load ~dir with
  | _ when no_incremental ->
    ignore (scratch ());
    0
  | Error e when Sys.file_exists (Vinc.Baseline.manifest_file ~dir) ->
    Fmt.pr "baseline %s: manifest unreadable (%s)@." dir e;
    let old_models = load_models (Violet.Pipeline.analyzable_params target) in
    let new_models = scratch () in
    if old_models = [] then begin
      Fmt.pr "upgrade check: skipped, no model of the previous baseline loads@.";
      0
    end
    else upgrade_check old_models new_models
  | Error _ ->
    ignore (scratch ());
    0
  | Ok old_manifest ->
    let old_models =
      load_models
        (List.map (fun (s : Vinc.Baseline.slice) -> s.Vinc.Baseline.sl_param)
           old_manifest.Vinc.Baseline.mf_slices)
    in
    let r = or_die (Vinc.Splice.run ~opts ~baseline:dir ~out:dir target) in
    let d = r.Vinc.Splice.sp_diff in
    Fmt.pr "incremental: %d unchanged, %d modified, %d added, %d removed functions@."
      (List.length d.Vinc.Irdiff.unchanged)
      (List.length d.Vinc.Irdiff.modified)
      (List.length d.Vinc.Irdiff.added)
      (List.length d.Vinc.Irdiff.removed);
    (match r.Vinc.Splice.sp_conservative with
    | Some reason -> Fmt.pr "incremental: conservative re-exploration (%s)@." reason
    | None -> ());
    Fmt.pr "incremental: reused %d slices, re-explored %d (%.0f%% reused)@."
      (List.length r.Vinc.Splice.sp_reused)
      (List.length r.Vinc.Splice.sp_reexplored)
      (100. *. Vinc.Splice.reuse_fraction r);
    upgrade_check old_models r.Vinc.Splice.sp_models

let analyze system param export max_states threshold no_related deadline checkpoint resume
    chaos baseline no_incremental =
  let target = or_die (target_of_system system) in
  let chaos =
    match chaos with
    | None -> None
    | Some spec -> Some (or_die (Vresilience.Chaos.of_string spec))
  in
  let budget =
    Vresilience.Budget.with_deadline
      (Vresilience.Budget.with_max_states Vresilience.Budget.default max_states)
      deadline
  in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.budget;
      threshold;
      include_related = not no_related;
      checkpoint =
        Option.map
          (fun path -> { Violet.Pipeline.path; every_picks = 32 })
          checkpoint;
      resume;
      chaos;
    }
  in
  match baseline with
  | Some dir -> analyze_incremental ~opts ~dir ~no_incremental target
  | None ->
  let param =
    match param with
    | Some p -> p
    | None ->
      Fmt.epr "violet: PARAM is required unless --baseline is given@.";
      exit 1
  in
  (match Violet.Pipeline.analyze ~opts target param with
  | Error e ->
    Fmt.epr "violet: %s@." (Violet.Pipeline.error_to_string e);
    1
  | Ok a ->
    Fmt.pr "%a" Violet.Report.pp_analysis a;
    (if Vmodel.Impact_model.is_degraded a.Violet.Pipeline.model then
       Fmt.pr
         "WARNING: analysis was degraded under budget pressure; the model is \
          conservative, not complete@.");
    (match export with
    | Some path ->
      or_die (Violet.Pipeline.export_model a.Violet.Pipeline.model path);
      Fmt.pr "impact model exported to %s (registry format)@." path
    | None -> ());
    0)

let load_model_or_analyze target param model_path =
  match model_path with
  | Some path -> Violet.Pipeline.import_model path
  | None ->
    Result.map_error Violet.Pipeline.error_to_string
      (Result.map
         (fun (a : Violet.Pipeline.analysis) -> a.Violet.Pipeline.model)
         (Violet.Pipeline.analyze target param))

let load_config_file path =
  let file = or_die (Vchecker.Config_file.load path) in
  List.iter
    (fun (line, msg) -> Fmt.epr "violet: %s:%d: %s (line skipped)@." path line msg)
    (Vchecker.Config_file.issues file);
  file

let check system param file model_path =
  let target = or_die (target_of_system system) in
  let model = or_die (load_model_or_analyze target param model_path) in
  let file = load_config_file file in
  let report =
    or_die
      (Vchecker.Checker.check_current ~model ~registry:target.Violet.Pipeline.registry
         ~file ())
  in
  Fmt.pr "%a" Vchecker.Checker.pp_report report;
  if report.Vchecker.Checker.findings = [] then 0 else 2

let check_update system param old_file new_file model_path =
  let target = or_die (target_of_system system) in
  let model = or_die (load_model_or_analyze target param model_path) in
  let old_file = load_config_file old_file in
  let new_file = load_config_file new_file in
  let report =
    or_die
      (Vchecker.Checker.check_update ~model ~registry:target.Violet.Pipeline.registry
         ~old_file ~new_file ())
  in
  Fmt.pr "%a" Vchecker.Checker.pp_report report;
  if report.Vchecker.Checker.findings = [] then 0 else 2

let coverage system =
  let target = or_die (target_of_system system) in
  let params = Vruntime.Config_registry.params target.Violet.Pipeline.registry in
  let analyzable = Violet.Pipeline.analyzable_params target in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.budget =
        Vresilience.Budget.with_max_states Vresilience.Budget.default 512;
    }
  in
  let derived =
    List.filter
      (fun p ->
        match Violet.Pipeline.analyze ~opts target p with
        | Ok a -> a.Violet.Pipeline.rows <> []
        | Error _ -> false)
      analyzable
  in
  Fmt.pr "%s: %d parameters, %d analyzable, %d models derived (%.1f%%)@." system
    (List.length params) (List.length analyzable) (List.length derived)
    (100. *. float_of_int (List.length derived) /. float_of_int (List.length params));
  List.iter (fun p -> Fmt.pr "  %s@." p) derived;
  0

let dump_trace system param out =
  let target = or_die (target_of_system system) in
  match Violet.Pipeline.analyze target param with
  | Error e ->
    Fmt.epr "violet: %s@." (Violet.Pipeline.error_to_string e);
    1
  | Ok a ->
    let traces = Vtrace.Trace_file.of_result a.Violet.Pipeline.result in
    Vtrace.Trace_file.save traces out;
    Fmt.pr "wrote %d state traces to %s@." (List.length traces) out;
    0

let analyze_trace path threshold =
  let traces = or_die (Vtrace.Trace_file.load path) in
  let rows =
    List.map
      (fun t -> Vmodel.Cost_row.of_profile (Vtrace.Trace_file.profile_of_state_trace t))
      traces
  in
  let diff = Vmodel.Diff_analysis.analyze ~threshold rows in
  Fmt.pr "%d states, %d poor, %d suspicious pairs (threshold %.0f%%)@." (List.length rows)
    (List.length diff.Vmodel.Diff_analysis.poor_state_ids)
    (List.length diff.Vmodel.Diff_analysis.pairs)
    (100. *. threshold);
  List.iter
    (fun (p : Vmodel.Diff_analysis.poor_pair) ->
      Fmt.pr "  state %d vs %d: %.1fx (%s)@." p.Vmodel.Diff_analysis.slow.Vmodel.Cost_row.state_id
        p.Vmodel.Diff_analysis.fast.Vmodel.Cost_row.state_id
        p.Vmodel.Diff_analysis.worst_ratio
        (Vmodel.Diff_analysis.trigger_label p.Vmodel.Diff_analysis.triggers))
    (List.filteri (fun i _ -> i < 12) diff.Vmodel.Diff_analysis.pairs);
  0

(* ------------------------------------------------------------------ *)
(* The continuous-checking service: a daemon serving the model registry,
   and a thin client speaking the newline-delimited JSON protocol. *)

let serve addr models max_queue request_deadline shed_pressure refresh no_shutdown =
  let addr = or_die (Vserve.Client.addr_of_string addr) in
  let resolve_registry (m : Vmodel.Impact_model.t) =
    Option.map
      (fun t -> t.Violet.Pipeline.registry)
      (Targets.Cases.find_target m.Vmodel.Impact_model.system)
  in
  let opts =
    {
      (Vserve.Server.default_options ~addr ~models_dir:models) with
      Vserve.Server.resolve_registry;
      max_queue;
      request_deadline_s = request_deadline;
      shed_pressure;
      refresh_every_s = refresh;
      allow_shutdown = not no_shutdown;
    }
  in
  Fmt.pr "violet serve: listening on %s, models from %s@."
    (Vserve.Client.addr_to_string addr)
    models;
  or_die (Vserve.Server.run opts);
  0

let with_client addr f =
  let addr = or_die (Vserve.Client.addr_of_string addr) in
  (* retry briefly: "start the daemon, then the client" scripts race the bind *)
  let c = or_die (Vserve.Client.connect_retry ~deadline_s:2.0 addr) in
  Fun.protect ~finally:(fun () -> Vserve.Client.close c) (fun () -> f c)

(* Mirrors the in-process [check]/[check-update] convention: exit 0 when
   clean, 2 when the daemon reported findings, 1 on errors. *)
let print_response (resp : Vserve.Protocol.response) =
  match resp with
  | Vserve.Protocol.Report o ->
    let report =
      {
        Vchecker.Checker.findings = o.Vserve.Protocol.findings;
        checked_in_s = o.Vserve.Protocol.checked_in_s;
      }
    in
    Fmt.pr "%a" Vchecker.Checker.pp_report report;
    Fmt.pr "served by model generation %d%s@." o.Vserve.Protocol.generation
      (if o.Vserve.Protocol.degraded then ", DEGRADED (overload shed)" else "");
    if o.Vserve.Protocol.findings = [] then 0 else 2
  | Vserve.Protocol.Health_info { status; models } ->
    Fmt.pr "status: %s@." status;
    List.iter
      (fun (m : Vserve.Protocol.model_info) ->
        Fmt.pr "  %s  generation %d  digest %s@." m.Vserve.Protocol.mi_key
          m.Vserve.Protocol.mi_generation m.Vserve.Protocol.mi_digest)
      models;
    0
  | Vserve.Protocol.Stats_info w ->
    Fmt.pr "%s@." (Vserve.Wire.to_string w);
    0
  | Vserve.Protocol.Reload_info { phase; ok; entries } ->
    Fmt.pr "reload %s: %s@." phase (if ok then "ok" else "FAILED");
    List.iter (fun (k, v) -> Fmt.pr "  %s  %s@." k v) entries;
    if ok then 0 else 1
  | Vserve.Protocol.Error_resp { code; message } ->
    Fmt.epr "violet: daemon error (%s): %s@."
      (Vserve.Protocol.error_code_to_string code)
      message;
    1
  | Vserve.Protocol.Bye ->
    Fmt.pr "daemon shutting down@.";
    0

let client_call addr req = with_client addr (fun c -> print_response (or_die (Vserve.Client.call c req)))

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg -> or_die (Error msg)

(* "reads=80,writes=20" — the workload-class assignments mode 3b compares;
   "" is the empty assignment *)
let parse_workload = function
  | "" -> []
  | spec ->
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> begin
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match int_of_string_opt v with
          | Some n -> (k, n)
          | None -> or_die (Error (Printf.sprintf "workload %s: %s is not an integer" kv v))
        end
        | None -> or_die (Error (Printf.sprintf "workload entry %s is not KEY=INT" kv)))
      (String.split_on_char ',' spec)

let client_check_current addr key config =
  client_call addr
    (Vserve.Protocol.Check_current { key; config = read_file config })

let client_check_update addr key old_config new_config =
  client_call addr
    (Vserve.Protocol.Check_update
       { key; old_config = read_file old_config; new_config = read_file new_config })

let client_check_upgrade addr key old_workload new_workload =
  let workloads =
    match old_workload, new_workload with
    | None, None -> None
    | Some o, Some n -> Some (parse_workload o, parse_workload n)
    | _ ->
      or_die
        (Error "check-upgrade needs both --old-workload and --new-workload, or neither")
  in
  client_call addr (Vserve.Protocol.Check_upgrade { key; workloads })

let client_health addr = client_call addr Vserve.Protocol.Health
let client_stats addr = client_call addr Vserve.Protocol.Stats
let client_shutdown addr = client_call addr Vserve.Protocol.Shutdown

(* ------------------------------------------------------------------ *)

let list_params_cmd =
  Cmd.v
    (Cmd.info "list-params" ~doc:"List a system's configuration registry")
    Term.(const list_params $ system_arg)

let related_cmd =
  Cmd.v
    (Cmd.info "related" ~doc:"Static control-dependency analysis of related parameters")
    Term.(const related $ system_arg $ param_arg 1)

let analyze_cmd =
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE"
          ~doc:
            "Export the impact model in the vserve registry format (versioned, \
             checksummed envelope).  Name it $(i,KEY).vmodel inside the daemon's \
             $(b,--models) directory and the daemon hot-loads it.")
  in
  let max_states =
    Arg.(value & opt int 4096 & info [ "max-states" ] ~doc:"State exploration cap.")
  in
  let threshold =
    Arg.(
      value & opt float 1.0
      & info [ "threshold" ] ~doc:"Differential threshold (1.0 = 100%).")
  in
  let no_related =
    Arg.(
      value & flag
      & info [ "no-related" ] ~doc:"Make only the target parameter symbolic.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget.  Exploration degrades gracefully as the deadline \
             nears and always terminates by it; a degraded model is flagged.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically snapshot the exploration frontier to $(docv) (atomic, \
             versioned, checksummed), so a killed run can be continued with \
             $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the $(b,--checkpoint) file instead of starting fresh.  The \
             resumed run's impact model is byte-identical to an uninterrupted one.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SEED[:PROB]"
          ~doc:
            "Engine-fault injection for robustness testing: with the given seed, \
             solver queries return unknown, tracer signals are dropped or delayed \
             and checkpoint files are truncated, each with its default (or $(i,PROB)) \
             probability.")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"DIR"
          ~doc:
            "Whole-system incremental mode.  $(docv) holds one exported model per \
             parameter plus a checksummed manifest; the first run (or \
             $(b,--no-incremental)) builds it from scratch, later runs diff the \
             program against the manifest, re-explore only invalidated slices, \
             splice the rest in verbatim and report upgrade findings against the \
             previous baseline.  PARAM is ignored and may be omitted.")
  in
  let no_incremental =
    Arg.(
      value & flag
      & info [ "no-incremental" ]
          ~doc:
            "With $(b,--baseline), rebuild the baseline from scratch instead of \
             splicing into the existing one.")
  in
  let param_opt =
    let doc = "Configuration parameter name (optional with --baseline)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"PARAM" ~doc)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Symbolically analyze a parameter's performance impact")
    Term.(
      const analyze $ system_arg $ param_opt $ export $ max_states $ threshold $ no_related
      $ deadline $ checkpoint $ resume $ chaos $ baseline $ no_incremental)

let model_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "model" ] ~docv:"FILE"
        ~doc:
          "Use an impact model written by $(b,violet analyze --export) instead of \
           re-analyzing.")

let check_cmd =
  let file =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"CONFIG" ~doc:"Config file.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a configuration file against the impact model (mode 2)")
    Term.(
      const check $ system_arg $ param_arg 1 $ file $ model_opt)

let check_update_cmd =
  let old_file =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"OLD" ~doc:"Old config file.")
  in
  let new_file =
    Arg.(required & pos 3 (some string) None & info [] ~docv:"NEW" ~doc:"New config file.")
  in
  Cmd.v
    (Cmd.info "check-update"
       ~doc:"Check a configuration update for performance regressions (mode 1)")
    Term.(
      const check_update $ system_arg $ param_arg 1 $ old_file $ new_file $ model_opt)

let coverage_cmd =
  Cmd.v
    (Cmd.info "coverage" ~doc:"Derive impact models for every analyzable parameter")
    Term.(const coverage $ system_arg)

let dump_trace_cmd =
  let out =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"OUT" ~doc:"Trace file path.")
  in
  Cmd.v
    (Cmd.info "dump-trace"
       ~doc:"Symbolically execute and write the raw execution trace to a file")
    Term.(const dump_trace $ system_arg $ param_arg 1 $ out)

let analyze_trace_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let threshold =
    Arg.(
      value & opt float 1.0
      & info [ "threshold" ] ~doc:"Differential threshold (1.0 = 100%).")
  in
  Cmd.v
    (Cmd.info "analyze-trace"
       ~doc:"Run the standalone trace analyzer on a stored execution trace")
    Term.(const analyze_trace $ path $ threshold)

let addr_opt =
  Arg.(
    value
    & opt string "unix:/tmp/violet.sock"
    & info [ "addr"; "a" ] ~docv:"ADDR"
        ~doc:
          "Daemon address: $(b,unix:)$(i,PATH), $(b,tcp:)$(i,HOST):$(i,PORT), or a \
           bare Unix-socket path.")

let serve_cmd =
  let models =
    Arg.(
      required
      & opt (some string) None
      & info [ "models" ] ~docv:"DIR"
          ~doc:
            "Model-registry directory: every $(i,KEY).vmodel file (written by \
             $(b,violet analyze --export)) is loaded, checksummed and hot-reloaded \
             on change.")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission-control queue depth; beyond it requests are answered \
             $(b,overloaded) immediately (load shedding).")
  in
  let request_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request budget, armed at admission.  A request whose queue wait \
             pushed the budget past the shed pressure is served the conservative \
             degraded-region answer instead of the full check.")
  in
  let shed_pressure =
    Arg.(
      value & opt float 0.9
      & info [ "shed-pressure" ] ~docv:"FRACTION"
          ~doc:"Budget pressure beyond which a queued request is served degraded.")
  in
  let refresh =
    Arg.(
      value & opt float 0.5
      & info [ "refresh" ] ~docv:"SECONDS" ~doc:"Model-directory poll period.")
  in
  let no_shutdown =
    Arg.(
      value & flag
      & info [ "no-shutdown" ] ~doc:"Refuse the remote $(b,shutdown) verb.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the continuous configuration-checking daemon (model registry, admission \
          control, deadline shedding)")
    Term.(
      const serve $ addr_opt $ models $ max_queue $ request_deadline $ shed_pressure
      $ refresh $ no_shutdown)

let client_cmd =
  let key_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KEY" ~doc:"Model key (the $(i,KEY).vmodel name in the registry).")
  in
  let check_current_cmd =
    let config =
      Arg.(
        required & pos 1 (some string) None & info [] ~docv:"CONFIG" ~doc:"Config file.")
    in
    Cmd.v
      (Cmd.info "check-current" ~doc:"Checker mode 2 against the daemon's model")
      Term.(const client_check_current $ addr_opt $ key_arg $ config)
  in
  let check_update_cmd =
    let old_file =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"OLD" ~doc:"Old config file.")
    in
    let new_file =
      Arg.(required & pos 2 (some string) None & info [] ~docv:"NEW" ~doc:"New config file.")
    in
    Cmd.v
      (Cmd.info "check-update" ~doc:"Checker mode 1 against the daemon's model")
      Term.(const client_check_update $ addr_opt $ key_arg $ old_file $ new_file)
  in
  let check_upgrade_cmd =
    let old_workload =
      Arg.(
        value
        & opt (some string) None
        & info [ "old-workload" ] ~docv:"K=V,.."
            ~doc:"Previous workload class (selects mode 3b together with \
                  $(b,--new-workload); without both, mode 3a compares the \
                  registry's previous model generation).  An empty value \
                  binds no workload variable.")
    in
    let new_workload =
      Arg.(
        value
        & opt (some string) None
        & info [ "new-workload" ] ~docv:"K=V,.." ~doc:"Shifted workload class.")
    in
    Cmd.v
      (Cmd.info "check-upgrade"
         ~doc:"Checker mode 3: model-generation upgrade (3a) or workload shift (3b)")
      Term.(const client_check_upgrade $ addr_opt $ key_arg $ old_workload $ new_workload)
  in
  let health_cmd =
    Cmd.v
      (Cmd.info "health" ~doc:"Daemon status and loaded model generations")
      Term.(const client_health $ addr_opt)
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats" ~doc:"Serving telemetry as JSON (latency histogram, shed \
                              counters)")
      Term.(const client_stats $ addr_opt)
  in
  let shutdown_cmd =
    Cmd.v
      (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit")
      Term.(const client_shutdown $ addr_opt)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running violet daemon")
    [
      check_current_cmd; check_update_cmd; check_upgrade_cmd; health_cmd; stats_cmd;
      shutdown_cmd;
    ]

(* ------------------------------------------------------------------ *)
(* violet fleet: a supervised multi-process serve fleet — router +
   N shard workers + supervisor, all rooted in one run directory. *)

let fleet_router_addr run_dir =
  Vserve.Client.addr_to_string
    (Vfleet.Topology.router_addr { Vfleet.Topology.run_dir; shards = 1 })

let fleet_start run_dir models shards replication no_retries attempt_timeout
    probe_every seed =
  let topology = Vfleet.Topology.make ~run_dir ~shards in
  let resolve_registry (m : Vmodel.Impact_model.t) =
    Option.map
      (fun t -> t.Violet.Pipeline.registry)
      (Targets.Cases.find_target m.Vmodel.Impact_model.system)
  in
  let base = Vfleet.Supervisor.default_options ~topology ~models_dir:models in
  let opts =
    {
      base with
      Vfleet.Supervisor.worker_opts =
        (fun i ->
          { (base.Vfleet.Supervisor.worker_opts i) with Vserve.Server.resolve_registry });
      router_opts =
        {
          base.Vfleet.Supervisor.router_opts with
          Vfleet.Router.replication;
          retries = not no_retries;
          attempt_timeout_s = attempt_timeout;
        };
      probe_every_s = probe_every;
      seed;
    }
  in
  Fmt.pr "violet fleet: %d shards in %s, router on %s@." shards run_dir
    (fleet_router_addr run_dir);
  or_die (Vfleet.Supervisor.run opts);
  0

let fleet_stats run_dir = client_call (fleet_router_addr run_dir) Vserve.Protocol.Stats
let fleet_health run_dir = client_call (fleet_router_addr run_dir) Vserve.Protocol.Health

let fleet_drain run_dir =
  (* shutting the router down drains it; the supervisor sees the clean exit
     and terminates the workers *)
  client_call (fleet_router_addr run_dir) Vserve.Protocol.Shutdown

let fleet_reload run_dir =
  with_client (fleet_router_addr run_dir) (fun c ->
      match or_die (Vserve.Client.call ~timeout_s:30.0 c Vserve.Protocol.Reload_stage) with
      | Vserve.Protocol.Reload_info { ok = false; _ } as resp ->
        ignore (print_response resp);
        Fmt.epr "violet: stage failed on at least one shard — nothing committed@.";
        1
      | Vserve.Protocol.Reload_info { ok = true; _ } as resp ->
        ignore (print_response resp);
        print_response
          (or_die (Vserve.Client.call ~timeout_s:30.0 c Vserve.Protocol.Reload_commit))
      | resp -> print_response resp)

let fleet_cmd =
  let run_dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "run-dir" ] ~docv:"DIR"
          ~doc:
            "Fleet run directory: shard sockets ($(i,shard-N.sock)), the router \
             socket ($(i,router.sock)) and the supervisor state file \
             ($(i,fleet-state.json)) all live here.")
  in
  let start_cmd =
    let models =
      Arg.(
        required
        & opt (some string) None
        & info [ "models" ] ~docv:"DIR"
            ~doc:
              "Model-registry directory, loaded by every shard (full replication: \
               the ring decides affinity, not placement).  Generations change only \
               via $(b,violet fleet reload).")
    in
    let shards =
      Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc:"Worker process count.")
    in
    let replication =
      Arg.(
        value & opt int 2
        & info [ "replication" ] ~docv:"N"
            ~doc:"Preference-list prefix a key may fail over across.")
    in
    let no_retries =
      Arg.(
        value & flag
        & info [ "no-retries" ]
            ~doc:
              "Disable re-dispatch: the first shard failure answers the client \
               (the chaos bench A/B hatch).")
    in
    let attempt_timeout =
      Arg.(
        value & opt float 2.0
        & info [ "attempt-timeout" ] ~docv:"SECONDS"
            ~doc:"Per-dispatch deadline before the router fails over.")
    in
    let probe_every =
      Arg.(
        value & opt float 0.5
        & info [ "probe-every" ] ~docv:"SECONDS" ~doc:"Supervisor health-probe period.")
    in
    let seed =
      Arg.(
        value & opt int 0x5eed
        & info [ "seed" ] ~docv:"N" ~doc:"Restart-backoff jitter seed.")
    in
    Cmd.v
      (Cmd.info "start"
         ~doc:
           "Start the fleet in the foreground: fork router and shard workers, \
            supervise (health probes, backoff restarts, crash-loop breaker) until \
            SIGTERM or $(b,violet fleet drain)")
      Term.(
        const fleet_start $ run_dir_arg $ models $ shards $ replication $ no_retries
        $ attempt_timeout $ probe_every $ seed)
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Fleet-wide telemetry as JSON: per-shard serve stats and restart/trip \
            counters merged with the router's routing/failover/fallback counters")
      Term.(const fleet_stats $ run_dir_arg)
  in
  let health_cmd =
    Cmd.v
      (Cmd.info "health" ~doc:"Router status and model generations")
      Term.(const fleet_health $ run_dir_arg)
  in
  let reload_cmd =
    Cmd.v
      (Cmd.info "reload"
         ~doc:
           "Two-phase hot reload: stage the model directory on every shard, commit \
            the generation flip only if all of them staged successfully")
      Term.(const fleet_reload $ run_dir_arg)
  in
  let drain_cmd =
    Cmd.v
      (Cmd.info "drain" ~doc:"Drain the router and shut the whole fleet down")
      Term.(const fleet_drain $ run_dir_arg)
  in
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Supervised multi-process serve fleet: consistent-hash routing, crash \
          recovery, failover and two-phase hot reload")
    [ start_cmd; stats_cmd; health_cmd; reload_cmd; drain_cmd ]

(* ------------------------------------------------------------------ *)
(* violet fuzz: generated target systems with planted ground truth     *)
(* ------------------------------------------------------------------ *)

let fuzz_summary (s : Vfuzz.Genspec.t) =
  Fmt.pr "%-14s size=%-3d funcs=%d cparams=%d plants=[%s] decoys=[%s]@."
    s.Vfuzz.Genspec.g_name (Vfuzz.Genspec.size s)
    (List.length s.Vfuzz.Genspec.g_funcs)
    (List.length s.Vfuzz.Genspec.g_cparams)
    (String.concat ", "
       (List.map
          (fun (p : Vfuzz.Genspec.plant) ->
            Printf.sprintf "%s=%d" p.Vfuzz.Genspec.p_param p.Vfuzz.Genspec.p_poor)
          s.Vfuzz.Genspec.g_plants))
    (String.concat ", " s.Vfuzz.Genspec.g_decoys);
  List.iter (fun m -> Fmt.pr "  trail: %s@." m) s.Vfuzz.Genspec.g_trail

let fuzz_gen seed count out =
  let specs = Vfuzz.Generate.corpus ~seed ~count () in
  List.iter
    (fun s ->
      fuzz_summary s;
      match out with
      | None -> ()
      | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Vfuzz.Genspec.save s (Filename.concat dir (s.Vfuzz.Genspec.g_name ^ ".vfz")))
    specs;
  (match out with
  | Some dir -> Fmt.pr "wrote %d specs to %s/@." count dir
  | None -> ());
  0

let fuzz_run seed count =
  let specs = Vfuzz.Generate.corpus ~seed ~count () in
  let verdicts, score = Vfuzz.Harness.run specs in
  List.iter
    (fun (v : Vfuzz.Harness.verdict) ->
      Fmt.pr "%-14s plants:[%s] decoys:[%s]%s@." v.Vfuzz.Harness.v_system
        (String.concat ", "
           (List.map
              (fun (p, d) -> Printf.sprintf "%s %s" p (if d then "DETECTED" else "missed"))
              v.Vfuzz.Harness.v_plants))
        (String.concat ", "
           (List.map
              (fun (p, f) -> Printf.sprintf "%s %s" p (if f then "FLAGGED" else "clean"))
              v.Vfuzz.Harness.v_decoys))
        (match v.Vfuzz.Harness.v_errors with
        | [] -> ""
        | es -> Printf.sprintf " errors:%d" (List.length es)))
    verdicts;
  Fmt.pr "systems=%d plants=%d detected=%d decoys=%d flagged=%d recall=%.3f precision=%.3f@."
    score.Vfuzz.Harness.s_systems score.Vfuzz.Harness.s_plants
    score.Vfuzz.Harness.s_detected score.Vfuzz.Harness.s_decoys
    score.Vfuzz.Harness.s_flagged score.Vfuzz.Harness.s_recall
    score.Vfuzz.Harness.s_precision;
  0

let fuzz_save_reproducer dir (spec : Vfuzz.Genspec.t) =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (spec.Vfuzz.Genspec.g_name ^ ".vfz") in
  Vfuzz.Genspec.save spec path;
  path

let fuzz_diff seed count no_daemon out =
  let daemon = not no_daemon in
  let specs = Vfuzz.Generate.corpus ~seed ~count () in
  let failures = ref 0 in
  List.iter
    (fun spec ->
      let r = Vfuzz.Oracle.check ~daemon spec in
      if Vfuzz.Oracle.agreed r then
        Fmt.pr
          "%-14s ok (%d combos, %d daemon checks, %d fleet checks, %d mode checks)@."
          r.Vfuzz.Oracle.r_system r.Vfuzz.Oracle.r_combos r.Vfuzz.Oracle.r_daemon_checks
          r.Vfuzz.Oracle.r_fleet_checks r.Vfuzz.Oracle.r_mode_checks
      else begin
        incr failures;
        Fmt.pr "%-14s DISAGREES@." r.Vfuzz.Oracle.r_system;
        List.iter
          (fun (d : Vfuzz.Oracle.disagreement) ->
            Fmt.pr "  %s [%s]: %s@." d.Vfuzz.Oracle.d_param d.Vfuzz.Oracle.d_leg
              d.Vfuzz.Oracle.d_detail)
          r.Vfuzz.Oracle.r_disagreements;
        let still_fails s = not (Vfuzz.Oracle.agreed (Vfuzz.Oracle.check ~daemon s)) in
        let o = Vfuzz.Shrink.shrink ~still_fails spec in
        let path = fuzz_save_reproducer out o.Vfuzz.Shrink.sh_spec in
        Fmt.pr "  shrunk %d -> %d nodes (%d checks); reproducer: %s@."
          o.Vfuzz.Shrink.sh_from_size o.Vfuzz.Shrink.sh_to_size
          o.Vfuzz.Shrink.sh_checks path
      end)
    specs;
  if !failures = 0 then begin
    Fmt.pr "differential oracle: %d/%d systems agree@." count count;
    0
  end
  else begin
    Fmt.epr "violet: %d/%d systems disagree (reproducers in %s/)@." !failures count out;
    1
  end

let fuzz_shrink file no_daemon out =
  let daemon = not no_daemon in
  let spec = or_die (Vfuzz.Genspec.load file) in
  let still_fails s = not (Vfuzz.Oracle.agreed (Vfuzz.Oracle.check ~daemon s)) in
  if not (still_fails spec) then begin
    Fmt.epr "violet: %s does not currently fail the oracle — nothing to shrink@." file;
    1
  end
  else begin
    let o = Vfuzz.Shrink.shrink ~still_fails spec in
    let path = match out with Some p -> p | None -> file ^ ".min" in
    Vfuzz.Genspec.save o.Vfuzz.Shrink.sh_spec path;
    Fmt.pr "shrunk %d -> %d nodes in %d steps (%d oracle runs); wrote %s@."
      o.Vfuzz.Shrink.sh_from_size o.Vfuzz.Shrink.sh_to_size o.Vfuzz.Shrink.sh_steps
      o.Vfuzz.Shrink.sh_checks path;
    0
  end

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Corpus seed.  Member $(i,i) of a seed is the same system on every \
             machine (splittable PRNG).")
  in
  let count =
    Arg.(value & opt int 20 & info [ "count" ] ~docv:"N" ~doc:"Systems to generate.")
  in
  let no_daemon =
    Arg.(
      value & flag
      & info [ "no-daemon" ]
          ~doc:
            "Skip the daemon-vs-in-process findings leg (the analyze grid still \
             runs).")
  in
  let out_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Also save each spec as $(i,DIR)/$(i,NAME).vfz.")
  in
  let failures_dir =
    Arg.(
      value & opt string "fuzz-failures"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory for shrunk reproducers.")
  in
  let gen_cmd =
    Cmd.v
      (Cmd.info "gen" ~doc:"Generate seeded systems and print their shape")
      Term.(const fuzz_gen $ seed $ count $ out_opt)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:"Score the pipeline against planted ground truth (recall/precision)")
      Term.(const fuzz_run $ seed $ count)
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Differential oracle: on every generated system, slicing on and off must \
            give byte-identical models, the daemon, the fleet and the compiled \
            checker the in-process findings, and a spliced upgrade the scratch \
            rebuild; failures are shrunk to reproducers")
      Term.(const fuzz_diff $ seed $ count $ no_daemon $ failures_dir)
  in
  let shrink_cmd =
    let file =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"A .vfz spec that fails the oracle.")
    in
    let out_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the minimized spec.")
    in
    Cmd.v
      (Cmd.info "shrink" ~doc:"Minimize a failing spec to the smallest one that still fails")
      Term.(const fuzz_shrink $ file $ no_daemon $ out_file)
  in
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:
         "Generated target systems with planted ground truth: recall/precision \
          scoring and a differential oracle over the pipeline")
    [ gen_cmd; run_cmd; diff_cmd; shrink_cmd ]

let main_cmd =
  Cmd.group
    (Cmd.info "violet" ~version:"1.0.0"
       ~doc:"Automated reasoning and detection of specious configuration")
    [
      list_params_cmd; related_cmd; analyze_cmd; check_cmd; check_update_cmd;
      coverage_cmd; dump_trace_cmd; analyze_trace_cmd; serve_cmd; client_cmd; fleet_cmd;
      fuzz_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
