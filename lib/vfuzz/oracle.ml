type disagreement = {
  d_system : string;
  d_param : string;
  d_leg : string;
  d_detail : string;
}

type report = {
  r_system : string;
  r_params : string list;
  r_combos : int;
  r_daemon_checks : int;
  r_fleet_checks : int;
  r_mode_checks : int;
  r_inc_checks : int;
  r_disagreements : disagreement list;
}

let agreed r = r.r_disagreements = []

let default_opts =
  {
    Violet.Pipeline.default_options with
    Violet.Pipeline.budget =
      Vresilience.Budget.with_max_states Vresilience.Budget.default 4096;
  }

let findings_fingerprint fs =
  Vserve.Wire.to_string (Vserve.Protocol.findings_to_wire fs)

(* first point of divergence, with a little context either side *)
let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let snip s =
    let from = max 0 (i - 20) in
    let len = min 60 (String.length s - from) in
    if len <= 0 then "<end>" else String.sub s from len
  in
  Printf.sprintf "byte %d: %S vs %S" i (snip a) (snip b)

(* Fork [body] as a child that leaves with [Unix._exit], 0 on [Ok]. *)
let fork_child body =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Unix._exit (match body () with Ok () -> 0 | Error _ -> 1 | exception _ -> 2)
  | pid -> pid

let analysis_fingerprint opts target param ~slice =
  let opts = { opts with Violet.Pipeline.slice } in
  match Violet.Pipeline.analyze ~opts target param with
  | Ok a -> (Vmodel.Impact_model.content_string a.Violet.Pipeline.model, Some a)
  | Error e -> ("error: " ^ Violet.Pipeline.error_to_string e, None)

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_n n =
    let d = Filename.concat base (Printf.sprintf "vfuzz-%d-%d" (Unix.getpid ()) n) in
    try
      Unix.mkdir d 0o700;
      d
    with Unix.Unix_error (Unix.EEXIST, _, _) -> try_n (n + 1)
  in
  try_n 0

let rm_rf dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Served legs: [pid] is a forked child — a daemon or a whole fleet —
   serving the exported models at [addr].  Once [up] holds, each model's
   check-current findings as served must match the in-process checker on
   the re-imported model, byte for byte (canonical wire encoding makes the
   router's re-encoding with the client's id byte-stable).  The child is
   then shut down over the wire, or with SIGTERM if it never answered, and
   reaped.  [exports] pairs registry keys with the model file just
   written. *)
let served_leg ~leg ~system ~registry ~pid ~up addr exports =
  (* a child that dies mid-leg must read as a disagreement, not kill the
     caller with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bad param detail = { d_system = system; d_param = param; d_leg = leg; d_detail = detail } in
  let result =
    match Result.bind up (fun () -> Vserve.Client.connect_retry addr) with
    | Error e ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ([ bad "connect" e ], 0)
    | Ok client ->
      let ds =
        List.filter_map
          (fun (param, key, path) ->
            let local =
              match Violet.Pipeline.import_model path with
              | Error e -> Error ("import: " ^ e)
              | Ok model -> (
                match
                  Vchecker.Checker.check_current ~model ~registry
                    ~file:(Vchecker.Config_file.parse "") ()
                with
                | Error e -> Error ("check: " ^ e)
                | Ok rep -> Ok (findings_fingerprint rep.Vchecker.Checker.findings))
            in
            let served =
              match
                Vserve.Client.call ~timeout_s:30.0 client
                  (Vserve.Protocol.Check_current { key; config = "" })
              with
              | Error e -> Error ("call: " ^ e)
              | Ok (Vserve.Protocol.Report o) ->
                if o.Vserve.Protocol.degraded then Error (leg ^ " served a degraded answer")
                else Ok (findings_fingerprint o.Vserve.Protocol.findings)
              | Ok _ -> Error "unexpected response"
            in
            match (local, served) with
            | Ok a, Ok b when String.equal a b -> None
            | Ok a, Ok b -> Some (bad param (first_diff a b))
            | Error e, _ | _, Error e -> Some (bad param e))
          exports
      in
      (match Vserve.Client.call client Vserve.Protocol.Shutdown with Ok _ | Error _ -> ());
      Vserve.Client.close client;
      (ds, List.length exports)
  in
  ignore (Unix.waitpid [] pid);
  result

(* Daemon leg: one forked [Vserve.Server]; it loads its models before it
   reads its first request. *)
let daemon_leg ~system ~registry ~dir exports =
  if exports = [] then ([], 0)
  else begin
    let addr = `Unix (Filename.concat dir "sock") in
    let pid =
      fork_child (fun () ->
          Vserve.Server.run
            {
              (Vserve.Server.default_options ~addr ~models_dir:dir) with
              Vserve.Server.resolve_registry = (fun _ -> Some registry);
              refresh_every_s = 0.05;
            })
    in
    served_leg ~leg:"daemon" ~system ~registry ~pid ~up:(Ok ()) addr exports
  end

(* Poll [addr]'s health until it reports [n] models loaded. *)
let await_models addr n =
  Result.bind (Vserve.Client.connect_retry ~deadline_s:30.0 addr) (fun c ->
      let rec poll tries =
        match Vserve.Client.call ~timeout_s:5.0 c Vserve.Protocol.Health with
        | Ok (Vserve.Protocol.Health_info { models; _ }) when List.length models >= n -> Ok ()
        | _ when tries > 0 ->
          Unix.sleepf 0.01;
          poll (tries - 1)
        | _ -> Error "a fleet worker never reported every model loaded"
      in
      Fun.protect ~finally:(fun () -> Vserve.Client.close c) (fun () -> poll 3_000))

(* Fleet leg: the same exports served through the 2-shard fleet `violet
   fleet start` runs — a forked {!Vfleet.Supervisor} with its router and
   workers — once every worker reports every model loaded. *)
let fleet_leg ~system ~registry ~dir exports =
  if exports = [] then ([], 0)
  else begin
    let topology = Vfleet.Topology.make ~run_dir:(Filename.concat dir "fleet") ~shards:2 in
    let base = Vfleet.Supervisor.default_options ~topology ~models_dir:dir in
    let pid =
      fork_child (fun () ->
          Vfleet.Supervisor.run
            {
              base with
              Vfleet.Supervisor.worker_opts =
                (fun i ->
                  {
                    (base.Vfleet.Supervisor.worker_opts i) with
                    Vserve.Server.resolve_registry = (fun _ -> Some registry);
                  });
            })
    in
    let up =
      List.fold_left
        (fun up i ->
          Result.bind up (fun () ->
              await_models (Vfleet.Topology.worker_addr topology i) (List.length exports)))
        (Ok ())
        (List.init topology.Vfleet.Topology.shards Fun.id)
    in
    let r =
      served_leg ~leg:"fleet" ~system ~registry ~pid ~up (Vfleet.Topology.router_addr topology)
        exports
    in
    rm_rf topology.Vfleet.Topology.run_dir;
    r
  end

(* Modes leg: the re-imported model checked in-process by both row-decision
   engines.  [Solver] is the reference; [Hybrid] carrying an artifact
   compiled from the model must produce byte-identical findings — the
   compiled decision tables are required to be exact, falling back to the
   solver per row rather than approximating (DESIGN.md Section 5j). *)
let modes_leg ~system ~registry exports =
  let bad param detail =
    { d_system = system; d_param = param; d_leg = "modes"; d_detail = detail }
  in
  let ds = ref [] in
  let checks = ref 0 in
  List.iter
    (fun (param, _key, path) ->
      match Violet.Pipeline.import_model path with
      | Error e -> ds := bad param ("import: " ^ e) :: !ds
      | Ok model ->
        let file = Vchecker.Config_file.parse "" in
        let run ?compiled mode =
          match Vchecker.Checker.check_current ~mode ?compiled ~model ~registry ~file () with
          | Error e -> Error ("check: " ^ e)
          | Ok rep -> Ok (findings_fingerprint rep.Vchecker.Checker.findings)
        in
        let compiled = Vmodel.Compiled_model.compile model in
        incr checks;
        match (run Vchecker.Checker.Solver, run ~compiled Vchecker.Checker.Hybrid) with
        | Ok a, Ok b when String.equal a b -> ()
        | Ok a, Ok b -> ds := bad param ("hybrid: " ^ first_diff b a) :: !ds
        | Error e, _ | _, Error e -> ds := bad param ("hybrid: " ^ e) :: !ds)
    exports;
  (List.rev !ds, !checks)

(* Incremental leg (DESIGN.md Section 5k): mutate the system, then derive
   the upgraded models two ways — splicing against a baseline of the
   original version vs building from scratch.  The spliced baseline must
   carry the same per-slice model digests as the scratch rebuild and
   produce byte-identical upgrade findings against the original baseline:
   splicing is required to be invisible. *)
let upgrade_fingerprint (mf : Vinc.Baseline.t) reports =
  String.concat "\n"
    (List.map
       (fun (s : Vinc.Baseline.slice) ->
         s.Vinc.Baseline.sl_param ^ "=" ^ s.Vinc.Baseline.sl_digest)
       mf.Vinc.Baseline.mf_slices
    @ List.map
        (fun (p, (r : Vchecker.Checker.report)) ->
          p ^ ": " ^ findings_fingerprint r.Vchecker.Checker.findings)
        reports)

let inc_leg ~opts (spec : Genspec.t) =
  let system = spec.Genspec.g_name in
  let bad param detail = { d_system = system; d_param = param; d_leg = "inc"; d_detail = detail } in
  let mutated, _ =
    Mutate.apply (Sprng.split_at (Sprng.make spec.Genspec.g_seed) (Genspec.size spec)) spec
  in
  let old_t = Genspec.to_target spec in
  let new_t = Genspec.to_target mutated in
  let base = fresh_dir () in
  let scratch = fresh_dir () in
  let out = fresh_dir () in
  let fingerprint_of dir mf =
    Result.map (upgrade_fingerprint mf) (Vinc.Splice.check_upgrade ~old_dir:base ~new_dir:dir)
  in
  let result =
    match Vinc.Baseline.build ~opts ~dir:base old_t with
    | Error e -> ([ bad "baseline" e ], 0)
    | Ok _ -> (
      match Vinc.Baseline.build ~opts ~dir:scratch new_t with
      | Error e -> ([ bad "scratch" e ], 0)
      | Ok (scratch_mf, _) -> (
        let reference = fingerprint_of scratch scratch_mf in
        let spliced =
          Result.bind (Vinc.Splice.run ~opts ~baseline:base ~out new_t) (fun r ->
              fingerprint_of out r.Vinc.Splice.sp_baseline)
        in
        match (reference, spliced) with
        | Ok a, Ok b when String.equal a b -> ([], 1)
        | Ok a, Ok b -> ([ bad "inc" (first_diff b a) ], 1)
        | _, Error e | Error e, _ -> ([ bad "inc" e ], 1)))
  in
  List.iter rm_rf [ base; scratch; out ];
  result

let check ?(opts = default_opts) ?(daemon = true) ?(fleet = daemon) ?(modes = true)
    ?(inc = true) (spec : Genspec.t) =
  if Vpar.Pool.spawned_domains () then
    failwith "Vfuzz.Oracle.check: cannot fork after spawning domains (fork is unsound)";
  let target = Genspec.to_target spec in
  let registry = target.Violet.Pipeline.registry in
  let params =
    List.map (fun (p : Genspec.plant) -> p.Genspec.p_param) spec.Genspec.g_plants
    @ spec.Genspec.g_decoys
  in
  let ds = ref [] in
  let n_combos = ref 0 in
  let exports = ref [] in
  let dir = if daemon || fleet || modes then Some (fresh_dir ()) else None in
  List.iter
    (fun param ->
      let ref_fp, ref_analysis = analysis_fingerprint opts target param ~slice:true in
      let fp, _ = analysis_fingerprint opts target param ~slice:false in
      n_combos := !n_combos + 2;
      if not (String.equal fp ref_fp) then
        ds :=
          {
            d_system = spec.Genspec.g_name;
            d_param = param;
            d_leg = "slice=off vs slice=on";
            d_detail = first_diff fp ref_fp;
          }
          :: !ds;
      match (dir, ref_analysis) with
      | Some d, Some a ->
        let key = spec.Genspec.g_name ^ "--" ^ param in
        let path = Filename.concat d (key ^ ".vmodel") in
        (match Violet.Pipeline.export_model a.Violet.Pipeline.model path with
        | Ok () -> exports := (param, key, path) :: !exports
        | Error e ->
          ds :=
            {
              d_system = spec.Genspec.g_name;
              d_param = param;
              d_leg = "daemon";
              d_detail = "export: " ^ e;
            }
            :: !ds)
      | _ -> ())
    params;
  let daemon_ds, daemon_checks =
    match dir with
    | Some d when daemon ->
      daemon_leg ~system:spec.Genspec.g_name ~registry ~dir:d (List.rev !exports)
    | _ -> ([], 0)
  in
  let fleet_ds, fleet_checks =
    match dir with
    | Some d when fleet ->
      fleet_leg ~system:spec.Genspec.g_name ~registry ~dir:d (List.rev !exports)
    | _ -> ([], 0)
  in
  let mode_ds, mode_checks =
    if modes then modes_leg ~system:spec.Genspec.g_name ~registry (List.rev !exports)
    else ([], 0)
  in
  let inc_ds, inc_checks = if inc then inc_leg ~opts spec else ([], 0) in
  (match dir with Some d -> rm_rf d | None -> ());
  {
    r_system = spec.Genspec.g_name;
    r_params = params;
    r_combos = !n_combos;
    r_daemon_checks = daemon_checks;
    r_fleet_checks = fleet_checks;
    r_mode_checks = mode_checks;
    r_inc_checks = inc_checks;
    r_disagreements = List.rev !ds @ daemon_ds @ fleet_ds @ mode_ds @ inc_ds;
  }
