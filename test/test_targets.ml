(* Integration tests over the four target-system models: registry sanity,
   workload resolution, concrete throughput behaviour, and the full
   known/unknown case matrices against the paper's ground truth. *)

module P = Violet.Pipeline
module Cases = Targets.Cases
module Reg = Vruntime.Config_registry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let systems = [ "mysql"; "postgres"; "apache"; "squid" ]

let test_registries_sane () =
  List.iter
    (fun system ->
      let target = Cases.target_of system in
      let params = Reg.params target.P.registry in
      check Alcotest.bool (system ^ " has a serious registry") true
        (List.length params >= 25);
      check Alcotest.bool (system ^ " has non-perf params") true
        (List.exists (fun (p : Reg.param) -> not p.Reg.perf_related) params);
      check Alcotest.bool (system ^ " has unhookable params") true
        (List.exists (fun (p : Reg.param) -> p.Reg.hook <> Reg.Hooked) params))
    systems

let test_programs_run_concretely () =
  (* every standard workload of every system executes without errors and
     accrues cost *)
  List.iter
    (fun system ->
      let target = Cases.target_of system in
      let entry = Cases.query_entry_of system in
      let config = Reg.Values.defaults target.P.registry in
      List.iter
        (fun (name, mix) ->
          let qps =
            Vruntime.Concrete_exec.throughput ~entry ~env:Vruntime.Hw_env.hdd_server
              target.P.program ~config ~mix ~clients:8
          in
          check Alcotest.bool
            (Printf.sprintf "%s/%s positive throughput" system name)
            true (qps > 1.))
        (Cases.standard_workloads_of system @ Cases.validation_workloads_of system))
    systems

let test_case_registry_consistent () =
  check Alcotest.int "17 known cases" 17 (List.length Cases.known);
  check Alcotest.int "9 unknown cases" 9 (List.length Cases.unknown);
  List.iter
    (fun (c : Cases.known_case) ->
      let target = Cases.target_of c.Cases.system in
      (* settings must be valid strings for the registry *)
      ignore (Violet.Detect.full_assignment target.P.registry c.Cases.poor_setting);
      ignore (Violet.Detect.full_assignment target.P.registry c.Cases.good_setting);
      (* the trigger workload must resolve *)
      ignore (Cases.workload_mix_of c.Cases.system c.Cases.trigger_workload))
    Cases.known;
  List.iter
    (fun (u : Cases.unknown_case) ->
      let target = Cases.target_of u.Cases.u_system in
      ignore (Violet.Detect.full_assignment target.P.registry u.Cases.u_poor);
      ignore (Cases.workload_mix_of u.Cases.u_system u.Cases.u_workload))
    Cases.unknown

let test_fig2_shape () =
  let module M = Targets.Mysql_model in
  let qps ~mix ~autocommit =
    let config =
      Reg.Values.set_str (Reg.Values.defaults M.registry) "autocommit"
        (if autocommit then "ON" else "OFF")
    in
    Vruntime.Concrete_exec.throughput ~entry:M.query_entry ~env:Vruntime.Hw_env.hdd_server
      M.program ~config ~mix ~clients:32
  in
  let normal_ratio =
    qps ~mix:(M.normal_mix ~autocommit:false) ~autocommit:false
    /. qps ~mix:(M.normal_mix ~autocommit:true) ~autocommit:true
  in
  let insert_ratio =
    qps ~mix:(M.insert_mix ~autocommit:false) ~autocommit:false
    /. qps ~mix:(M.insert_mix ~autocommit:true) ~autocommit:true
  in
  check Alcotest.bool "normal workloads close (paper Fig 2a)" true
    (normal_ratio < 1.6 && normal_ratio > 0.7);
  check Alcotest.bool "insert-intensive ~6x (paper Fig 2b)" true
    (insert_ratio > 4. && insert_ratio < 9.)

let run_known (c : Cases.known_case) () =
  let target = Cases.target_of c.Cases.system in
  let opts = c.Cases.tweak P.default_options in
  let a = P.analyze_exn ~opts target c.Cases.param in
  let detected = Violet.Detect.detected target.P.registry a ~poor:c.Cases.poor_setting in
  check Alcotest.bool
    (Printf.sprintf "%s verdict matches the paper" c.Cases.id)
    c.Cases.expect_detected detected;
  (* a detected case's good setting must not be enclosed by a poor state of
     the same shape *)
  if c.Cases.expect_detected then begin
    let good_rows =
      Violet.Detect.poor_rows_for target.P.registry a ~poor:c.Cases.good_setting
    in
    let poor_rows =
      Violet.Detect.poor_rows_for target.P.registry a ~poor:c.Cases.poor_setting
    in
    (* the good setting can also fall inside poor states (cache=allow is
       slower than deny for uncachable objects, any wal_sync_method is slower
       than fsync=off); the invariant is that the poor setting is enclosed *)
    ignore good_rows;
    check Alcotest.bool
      (Printf.sprintf "%s poor setting enclosed by poor states" c.Cases.id)
      true (poor_rows <> [])
  end

let run_unknown (u : Cases.unknown_case) () =
  let target = Cases.target_of u.Cases.u_system in
  let a = P.analyze_exn target u.Cases.u_param in
  check Alcotest.bool
    (Printf.sprintf "%s/%s detected" u.Cases.u_system u.Cases.u_param)
    true
    (Violet.Detect.detected target.P.registry a ~poor:u.Cases.u_poor)

(* Analysis results pinned across commits: default-option analyses of
   six models.  The other identity checks compare a build with itself;
   these catch a change that moves what the analyzer writes.
   [golden_digests] are md5s of the format-1 reference rendering
   ([Model_v1.digest], wall time zeroed) of each model after a trip
   through its registry file, so they keep meaning "the same analysis
   result" across format changes.  [golden_format2_digests] pin
   [Vinc.Baseline.model_digest], the md5 of the format-2 bytes. *)
let golden_digests =
  [
    ("mysql", "autocommit", "0304ca8ecc1cffda7836be85830dbf68");
    ("mysql", "query_cache_type", "f812d343e01c0948baee47566e9dbcb2");
    ("mysql", "max_allowed_packet", "7923f7e3edf79ecfa5a7f7f862121155");
    ("postgres", "wal_sync_method", "4cec57831c79beade53eae8264508938");
    ("apache", "HostnameLookups", "f4600719bca61225f232c020a0857678");
    ("squid", "cache", "8e70ef19caffd052456bb3ba1c5f51c1");
  ]

let golden_format2_digests =
  [
    ("mysql", "autocommit", "750150033e3992d42834b843c99fa783");
    ("mysql", "query_cache_type", "5d00dfa890e6e9c9bd1db4bcd6620fce");
    ("mysql", "max_allowed_packet", "f8017eadba93370ddbab5bfd62fbcb3a");
    ("postgres", "wal_sync_method", "6231bc34f2bf0b55eebb03d961d57d4c");
    ("apache", "HostnameLookups", "b6c4f6566c155d51f01787587bdd3666");
    ("squid", "cache", "9e7424a2ba2f427bbf0ca4a4c160bf39");
  ]

(* each golden model analyzed once: the model, the model read back from
   the registry file it exports to, and its diff's solver queries *)
let golden_models =
  lazy
    (List.map
       (fun (system, param, _) ->
         let a = P.analyze_exn (Cases.target_of system) param in
         let path = Filename.temp_file "golden" ".vmodel" in
         let imported =
           Fun.protect
             ~finally:(fun () -> Sys.remove path)
             (fun () -> Result.bind (P.export_model a.P.model path) (fun () -> P.import_model path))
         in
         match imported with
         | Ok m -> ((system, param), (a.P.model, m, a.P.diff.Vmodel.Diff_analysis.solver_queries))
         | Error e -> Alcotest.failf "%s/%s: %s" system param e)
       golden_digests)

let check_golden table digest =
  List.iter
    (fun (system, param, want) ->
      let model, imported, _ = List.assoc (system, param) (Lazy.force golden_models) in
      check Alcotest.string (system ^ "/" ^ param) want (digest (model, imported)))
    table

let test_golden_digests () =
  check_golden golden_digests (fun (_, imported) -> Model_v1.digest imported)

let test_golden_format2_digests () =
  check_golden golden_format2_digests (fun (model, _) -> Vinc.Baseline.model_digest model)

(* The diff decides a workload-class pair from per-variable truth sets
   and asks the solver only what they leave open: max_allowed_packet
   sends it 620 joint-input queries (34,275 when every pair the subset
   test and the union memo left went there), autocommit none (5,353).
   The bounds are a tenth of the old counts and zero. *)
let test_diff_solver_queries () =
  List.iter
    (fun (param, most) ->
      let _, _, queries = List.assoc ("mysql", param) (Lazy.force golden_models) in
      check Alcotest.bool
        (Printf.sprintf "%s: %d solver queries, at most %d" param queries most)
        true (queries <= most))
    [ ("max_allowed_packet", 3_427); ("autocommit", 0) ]

(* The printer appends one short-lived tree per item to one buffer the
   process reuses, so a warm render leaves little in the major heap beyond
   the string it returns (0.13 words per byte).  Building the whole
   [Sexp.t] tree first cost 1.6 words per byte.  The major-heap counters
   are flushed on both sides: they lag until a minor collection and a
   major slice. *)
let test_export_allocation () =
  let model, _, _ = List.assoc ("mysql", "autocommit") (Lazy.force golden_models) in
  let major_words () =
    Gc.minor ();
    ignore (Gc.major_slice 0);
    (Gc.quick_stat ()).Gc.major_words
  in
  ignore (Vmodel.Impact_model.to_string model);
  let before = major_words () in
  let bytes = String.length (Vmodel.Impact_model.to_string model) in
  let words = major_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f major words for %d bytes" words bytes)
    true
    (words < 0.5 *. float_of_int bytes)

(* The reader walks the text with a cursor and builds the model's values
   directly, so a warm read allocates little beyond the rows and pairs it
   returns (the hash-consed nodes exist already): 0.57 minor words per
   byte.  Parsing through a whole [Sexp.t] tree first read 3.57. *)
let test_read_allocation () =
  let model, _, _ = List.assoc ("mysql", "autocommit") (Lazy.force golden_models) in
  let text = Vmodel.Impact_model.to_string model in
  let read () =
    match Vmodel.Impact_model.of_string text with Ok m -> m | Error e -> Alcotest.fail e
  in
  ignore (read ());
  let before = Gc.minor_words () in
  let m = read () in
  let words = Gc.minor_words () -. before in
  check Alcotest.int "rows read" (List.length model.Vmodel.Impact_model.rows)
    (List.length m.Vmodel.Impact_model.rows);
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for %d bytes" words (String.length text))
    true
    (words < float_of_int (String.length text))

(* quick subset: one representative per system *)
let quick_cases = [ "c1"; "c7"; "c12"; "c14"; "c16" ]

let tests =
  [
    tc "registries sane" test_registries_sane;
    tc "programs run concretely" test_programs_run_concretely;
    tc "case registry consistent" test_case_registry_consistent;
    tc "figure 2 shape" test_fig2_shape;
    tc "golden model digests" test_golden_digests;
    tc "golden format-2 digests" test_golden_format2_digests;
    tc "format-2 render allocates under half a major word per byte" test_export_allocation;
    tc "format-2 read allocates under a minor word per byte" test_read_allocation;
  ]
  @ List.map
      (fun id -> tc ("known case " ^ id) (run_known (Cases.find_known id)))
      quick_cases
  @ List.filter_map
      (fun (c : Cases.known_case) ->
        if List.mem c.Cases.id quick_cases then None
        else Some (slow ("known case " ^ c.Cases.id) (run_known c)))
      Cases.known
  @ List.map
      (fun (u : Cases.unknown_case) ->
        slow
          (Printf.sprintf "unknown case %s/%s" u.Cases.u_system u.Cases.u_param)
          (run_unknown u))
      Cases.unknown
  @ [ tc "diff solver queries on mysql" test_diff_solver_queries ]
