(* Tests for the end-to-end pipeline, detection helpers and the native
   validation substrate. *)

module P = Violet.Pipeline
module Detect = Violet.Detect
module Validate = Violet.Validate
module M = Vmodel.Impact_model

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let test_errors () =
  check Alcotest.bool "unknown parameter" true
    (Result.is_error (P.analyze Fixtures.target "nonexistent"));
  check Alcotest.bool "non-hookable parameter" true
    (Result.is_error (P.analyze Fixtures.target "fp_param"));
  check Alcotest.bool "unused parameter" true
    (Result.is_error (P.analyze Fixtures.target "unused_param"))

let test_analyzable_params () =
  let ps = P.analyzable_params Fixtures.target in
  check Alcotest.bool "autocommit analyzable" true (List.mem "autocommit" ps);
  check Alcotest.bool "unused filtered" false (List.mem "unused_param" ps);
  check Alcotest.bool "non-hookable filtered" false (List.mem "fp_param" ps)

let test_hookable () =
  check Alcotest.bool "hooked" true (P.hookable Fixtures.target "autocommit");
  check Alcotest.bool "fn pointer" false (P.hookable Fixtures.target "fp_param");
  check Alcotest.bool "unknown" false (P.hookable Fixtures.target "zzz")

let test_target_only_ablation () =
  let with_related = P.analyze_exn Fixtures.target "autocommit" in
  let without =
    P.analyze_exn ~opts:{ P.default_options with P.include_related = false }
      Fixtures.target "autocommit"
  in
  check (Alcotest.list Alcotest.string) "no related set" []
    without.P.model.M.related;
  check Alcotest.bool "related set explores at least as much" true
    (with_related.P.model.M.explored_states >= without.P.model.M.explored_states)

let test_all_symbolic_explores_more () =
  let normal = P.analyze_exn Fixtures.target "autocommit" in
  let all =
    P.analyze_exn ~opts:{ P.default_options with P.all_symbolic = true } Fixtures.target
      "autocommit"
  in
  check Alcotest.bool "more states" true
    (all.P.model.M.explored_states > normal.P.model.M.explored_states)

let test_threshold_plumbs_through () =
  let strict =
    P.analyze_exn ~opts:{ P.default_options with P.threshold = 50.0 } Fixtures.target
      "autocommit"
  in
  let lax =
    P.analyze_exn ~opts:{ P.default_options with P.threshold = 0.25 } Fixtures.target
      "autocommit"
  in
  check Alcotest.bool "stricter finds fewer" true
    (List.length strict.P.model.M.poor_state_ids
    <= List.length lax.P.model.M.poor_state_ids)

let test_config_overrides () =
  (* with flush pinned to 0 the fsync path is unreachable: no poor state *)
  let a =
    P.analyze_exn
      ~opts:
        {
          P.default_options with
          P.include_related = false;
          config_overrides = [ "flush_at_trx_commit", 0 ];
        }
      Fixtures.target "autocommit"
  in
  check (Alcotest.list Alcotest.int) "no poor states" [] a.P.model.M.poor_state_ids

let test_workload_overrides () =
  (* restricting the symbolic workload to reads hides the commit path *)
  let a =
    P.analyze_exn
      ~opts:
        {
          P.default_options with
          P.sym_workload_params = [ "row_bytes" ];
          workload_overrides = [ "sql_command", 0 ];
        }
      Fixtures.target "autocommit"
  in
  check (Alcotest.list Alcotest.int) "nothing to find on reads" []
    a.P.model.M.poor_state_ids

let test_detect_helpers () =
  let a = P.analyze_exn Fixtures.target "autocommit" in
  check Alcotest.bool "poor combination detected" true
    (Detect.detected Fixtures.registry a
       ~poor:[ "autocommit", "ON"; "flush_at_trx_commit", "1" ]);
  check Alcotest.bool "good combination not detected" false
    (Detect.detected Fixtures.registry a ~poor:[ "autocommit", "OFF" ]);
  Alcotest.check_raises "invalid setting rejected"
    (Failure "config mini: cannot parse \"banana\" for autocommit") (fun () ->
      ignore (Detect.detected Fixtures.registry a ~poor:[ "autocommit", "banana" ]))

let test_validate_confirms_real_pair () =
  let a = P.analyze_exn Fixtures.target "autocommit" in
  let big =
    List.filter
      (fun (p : Vmodel.Diff_analysis.poor_pair) ->
        p.Vmodel.Diff_analysis.latency_ratio > 5.)
      a.P.diff.Vmodel.Diff_analysis.pairs
  in
  check Alcotest.bool "has big pairs" true (big <> []);
  let confirmed =
    List.for_all
      (fun pair ->
        match
          Validate.confirms ~threshold:1.0 ~target:Fixtures.target
            ~entry:"dispatch_command" pair
        with
        | Some ok -> ok
        | None -> true)
      big
  in
  check Alcotest.bool "all confirmed natively" true confirmed

let test_validate_ratio_direction () =
  let a = P.analyze_exn Fixtures.target "autocommit" in
  match
    List.find_opt
      (fun (p : Vmodel.Diff_analysis.poor_pair) ->
        p.Vmodel.Diff_analysis.latency_ratio > 5.)
      a.P.diff.Vmodel.Diff_analysis.pairs
  with
  | None -> Alcotest.fail "no big pair"
  | Some pair -> begin
    match
      Validate.pair_ratio ~target:Fixtures.target ~entry:"dispatch_command"
        ~slow:pair.Vmodel.Diff_analysis.slow ~fast:pair.Vmodel.Diff_analysis.fast ()
    with
    | Some v ->
      check Alcotest.bool "native agrees on direction" true (v.Validate.ratio > 1.5)
    | None -> Alcotest.fail "pair should be validatable"
  end

let test_virtual_time_accounted () =
  let a = P.analyze_exn Fixtures.target "autocommit" in
  check Alcotest.bool "startup + exploration" true
    (a.P.model.M.virtual_analysis_s > 40.)

let test_import_rejects_format1 () =
  let path = Filename.temp_file "violet_v1" ".vmodel" in
  let model = (P.analyze_exn Fixtures.target "autocommit").P.model in
  let imported =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> Result.bind (Model_v1.export model path) (fun () -> P.import_model path))
  in
  match imported with
  | Error e -> check Alcotest.string "format-1 error" M.format1_error e
  | Ok _ -> Alcotest.fail "a format-1 file imported"

(* [companions] is the one definition of the symbolic set: vinc's splice
   compares a carried slice against it, so it must be what [analyze]
   records. *)
let test_companions_match_analyze () =
  List.iter
    (fun (system, param) ->
      let target = Targets.Cases.target_of system in
      List.iter
        (fun (name, opts) ->
          let model = (P.analyze_exn ~opts target param).P.model in
          check
            (Alcotest.list Alcotest.string)
            (Printf.sprintf "%s %s, %s" system param name)
            (List.sort String.compare model.M.related)
            (P.companions ~opts target param))
        [
          ("default options", P.default_options);
          ("no related set", { P.default_options with P.include_related = false });
        ])
    [ ("mysql", "autocommit"); ("squid", "cache") ]

let tests =
  [
    tc "analyze errors" test_errors;
    tc "analyzable params" test_analyzable_params;
    tc "hookable" test_hookable;
    tc "target-only ablation" test_target_only_ablation;
    tc "all-symbolic explores more" test_all_symbolic_explores_more;
    tc "threshold plumbs" test_threshold_plumbs_through;
    tc "config overrides" test_config_overrides;
    tc "workload overrides" test_workload_overrides;
    tc "detect helpers" test_detect_helpers;
    tc "validate confirms real pair" test_validate_confirms_real_pair;
    tc "validate ratio direction" test_validate_ratio_direction;
    tc "virtual time" test_virtual_time_accounted;
    tc "import rejects format 1" test_import_rejects_format1;
    tc "companions are the analysed symbolic set" test_companions_match_analyze;
  ]
