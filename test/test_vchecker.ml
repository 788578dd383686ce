(* Tests for the checker: config-file parsing, test-case generation and the
   three checker modes (paper Section 4.7). *)

module CF = Vchecker.Config_file
module TC = Vchecker.Test_case
module Checker = Vchecker.Checker
module M = Vmodel.Impact_model

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse_exn text = CF.parse text

(* ------------------------------------------------------------------ *)
(* Config_file                                                         *)
(* ------------------------------------------------------------------ *)

let test_parse_basics () =
  let f =
    parse_exn
      "# a comment\n[mysqld]\nautocommit = ON\n  flush = 2  # trailing comment\n\n; semi\nskip-locking\n"
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "bindings"
    [ "autocommit", "ON"; "flush", "2"; "skip-locking", "ON" ]
    (CF.bindings f);
  check (Alcotest.option Alcotest.string) "lookup" (Some "2") (CF.lookup f "flush")

let test_parse_later_wins () =
  let f = parse_exn "x = 1\nx = 2\n" in
  check (Alcotest.option Alcotest.string) "later wins" (Some "2") (CF.lookup f "x");
  check Alcotest.int "single binding" 1 (List.length (CF.bindings f))

let test_parse_errors () =
  (* recovery: bad lines become issues, good lines survive *)
  let f = CF.parse " = 3\n[oops\nok = 1\n" in
  check Alcotest.int "two issues" 2 (List.length (CF.issues f));
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "issue lines"
    [ 1, "empty key"; 2, "malformed section header" ]
    (CF.issues f);
  check (Alcotest.option Alcotest.string) "good line survives" (Some "1") (CF.lookup f "ok")

let test_changed_keys () =
  let old_file = parse_exn "a = 1\nb = 2\nc = 3\n" in
  let new_file = parse_exn "a = 1\nb = 9\nd = 4\n" in
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.string
          (Alcotest.option Alcotest.string)
          (Alcotest.option Alcotest.string)))
    "changes"
    [ "b", Some "2", Some "9"; "c", Some "3", None; "d", None, Some "4" ]
    (CF.changed_keys ~old_file ~new_file)

let test_to_assignment () =
  let reg = Fixtures.registry in
  let f = parse_exn "autocommit = OFF\nplugin_xyz = 1\n" in
  match CF.to_assignment reg f with
  | Ok (assignment, unknown) ->
    check (Alcotest.option Alcotest.int) "override applied" (Some 0)
      (List.assoc_opt "autocommit" assignment);
    check (Alcotest.option Alcotest.int) "default kept" (Some 1)
      (List.assoc_opt "flush_at_trx_commit" assignment);
    check (Alcotest.list Alcotest.string) "unknown keys" [ "plugin_xyz" ] unknown
  | Error e -> Alcotest.fail e

let test_to_assignment_invalid_value () =
  let reg = Fixtures.registry in
  let f = parse_exn "flush_at_trx_commit = 99\n" in
  check Alcotest.bool "invalid rejected" true (Result.is_error (CF.to_assignment reg f))

(* ------------------------------------------------------------------ *)
(* Test_case                                                           *)
(* ------------------------------------------------------------------ *)

let test_testcase_generation () =
  let kind =
    Vsmt.Expr.{ name = "kind"; dom = Vsmt.Dom.enum "kind" [ "R"; "W" ]; origin = Workload }
  in
  match TC.of_predicate Vsmt.Expr.[ of_var kind ==. const 1 ] with
  | Some tcase ->
    check (Alcotest.option Alcotest.int) "solved" (Some 1)
      (List.assoc_opt "kind" tcase.TC.workload);
    check Alcotest.bool "description mentions W" true
      (String.length tcase.TC.description > 0
      && List.exists (String.equal "kind=W")
           (String.split_on_char ' ' tcase.TC.description))
  | None -> Alcotest.fail "expected a test case"

let test_testcase_empty_predicate () =
  match TC.of_predicate [] with
  | Some tcase -> check Alcotest.string "any workload" "any workload" tcase.TC.description
  | None -> Alcotest.fail "expected a case"

let test_testcase_unsat () =
  let kind =
    Vsmt.Expr.{ name = "kind"; dom = Vsmt.Dom.bool; origin = Workload }
  in
  check Alcotest.bool "unsat gives none" true
    (TC.of_predicate Vsmt.Expr.[ of_var kind ==. const 1; of_var kind ==. const 0 ] = None)

(* The test-case memo keys on expression ids: rendering an expression fills
   its string cache, which a structural hash of the expression would read,
   so a key stored before the render must still be found after it. *)
let test_testcase_memo_survives_render () =
  let v = Vsmt.Expr.var ~origin:Vsmt.Expr.Workload "tc_memo_probe" (Vsmt.Dom.int_range 0 9) in
  let pred = Vsmt.Expr.(v >. const 6) in
  let row =
    {
      Vmodel.Cost_row.state_id = 0;
      config_constraints = [];
      workload_pred = [ pred ];
      cost = Vruntime.Cost.zero;
      traced_latency_us = 0.;
      chain = [];
      nodes = [];
      critical_ops = [];
    }
  in
  let first = TC.of_row row in
  check Alcotest.bool "solved" true (first <> None);
  ignore (Vsmt.Expr.to_string pred);
  check Alcotest.bool "memoised answer after the render" true (TC.of_row row == first)

(* ------------------------------------------------------------------ *)
(* Checker modes, on the Figure-3 fixture                              *)
(* ------------------------------------------------------------------ *)

let fixture_model () =
  (Violet.Pipeline.analyze_exn Fixtures.target "autocommit").Violet.Pipeline.model

let test_mode2_flags_poor_default () =
  let model = fixture_model () in
  (* autocommit defaults to ON and flush defaults to 1: the poor state *)
  let file = parse_exn "" in
  match Checker.check_current ~model ~registry:Fixtures.registry ~file () with
  | Ok report ->
    check Alcotest.bool "flagged" true (report.Checker.findings <> []);
    let f = List.hd report.Checker.findings in
    check Alcotest.bool "has test case" true (f.Checker.test_case <> None);
    check Alcotest.bool "ratio large" true (f.Checker.ratio > 2.)
  | Error e -> Alcotest.fail e

let test_mode2_good_config_silent () =
  let model = fixture_model () in
  let file = parse_exn "autocommit = OFF\n" in
  match Checker.check_current ~model ~registry:Fixtures.registry ~file () with
  | Ok report -> check Alcotest.int "silent" 0 (List.length report.Checker.findings)
  | Error e -> Alcotest.fail e

let test_mode1_update_regression () =
  let model = fixture_model () in
  let old_file = parse_exn "autocommit = OFF\n" in
  let new_file = parse_exn "autocommit = ON\nflush_at_trx_commit = 1\n" in
  (match Checker.check_update ~model ~registry:Fixtures.registry ~old_file ~new_file () with
  | Ok report -> check Alcotest.bool "regression flagged" true (report.Checker.findings <> [])
  | Error e -> Alcotest.fail e);
  (* reverse direction is an improvement: silent *)
  match
    Checker.check_update ~model ~registry:Fixtures.registry ~old_file:new_file
      ~new_file:old_file ()
  with
  | Ok report -> check Alcotest.int "improvement silent" 0 (List.length report.Checker.findings)
  | Error e -> Alcotest.fail e

let test_mode1_unrelated_change_silent () =
  let model = fixture_model () in
  let old_file = parse_exn "unused_param = OFF\n" in
  let new_file = parse_exn "unused_param = ON\n" in
  match Checker.check_update ~model ~registry:Fixtures.registry ~old_file ~new_file () with
  | Ok report -> check Alcotest.int "silent" 0 (List.length report.Checker.findings)
  | Error e -> Alcotest.fail e

let test_mode3_code_upgrade () =
  (* "new version" makes the flush path pricier: a slow environment stands in
     for a code change that makes the same constraint-states slower *)
  let old_model = fixture_model () in
  let opts =
    { Violet.Pipeline.default_options with Violet.Pipeline.env = Vruntime.Hw_env.hdd_server }
  in
  ignore opts;
  let slow_env =
    { Vruntime.Hw_env.hdd_server with Vruntime.Hw_env.fsync_us = 40000. }
  in
  let new_model =
    (Violet.Pipeline.analyze_exn
       ~opts:{ Violet.Pipeline.default_options with Violet.Pipeline.env = slow_env }
       Fixtures.target "autocommit")
      .Violet.Pipeline.model
  in
  let report = Checker.check_upgrade ~old_model ~new_model () in
  check Alcotest.bool "upgrade regression found" true (report.Checker.findings <> []);
  (* no change: silent *)
  let same = Checker.check_upgrade ~old_model ~new_model:old_model () in
  check Alcotest.int "same model silent" 0 (List.length same.Checker.findings)

let test_mode3_workload_change () =
  let model = fixture_model () in
  (* reads -> writes moves the system into the autocommit poor state *)
  let report =
    Checker.check_workload_change ~model
      ~old_workload:[ "sql_command", 0 ]
      ~new_workload:[ "sql_command", 1 ] ()
  in
  check Alcotest.bool "workload shift flagged" true (report.Checker.findings <> [])

let with_degradation model =
  let autocommit =
    Vsmt.Expr.{ name = "autocommit"; dom = Vsmt.Dom.bool; origin = Config }
  in
  {
    model with
    M.degradation =
      Some
        {
          M.rungs = [ "solver-light" ];
          deadline_hit = true;
          dropped_paths =
            [
              {
                M.dp_state_id = 9999;
                dp_config_constraints = Vsmt.Expr.[ of_var autocommit ==. const 1 ];
                dp_latency_so_far_us = 1234.;
              };
            ];
        };
  }

let test_mode3b_degraded_region () =
  let model = with_degradation (fixture_model ()) in
  (* the shifted workload may land in the dropped path's unknown-cost region,
     so even a "shift" within the same class must surface it conservatively *)
  let report =
    Checker.check_workload_change ~model
      ~old_workload:[ "sql_command", 0 ]
      ~new_workload:[ "sql_command", 0 ] ()
  in
  let degraded =
    List.filter (fun f -> String.equal f.Checker.trigger "degraded") report.Checker.findings
  in
  check Alcotest.bool "degraded region reported" true (degraded <> []);
  let f = List.hd degraded in
  check Alcotest.bool "unknown cost: no fast row" true (f.Checker.fast_row = None);
  check Alcotest.int "dropped state id" 9999 f.Checker.slow_row.Vmodel.Cost_row.state_id;
  (* a real shift reports both the shift findings and the widening *)
  let report =
    Checker.check_workload_change ~model
      ~old_workload:[ "sql_command", 0 ]
      ~new_workload:[ "sql_command", 1 ] ()
  in
  check Alcotest.bool "shift findings present" true
    (List.exists
       (fun f -> not (String.equal f.Checker.trigger "degraded"))
       report.Checker.findings);
  check Alcotest.bool "widening kept alongside" true
    (List.exists (fun f -> String.equal f.Checker.trigger "degraded") report.Checker.findings)

let test_checker_on_loaded_model () =
  (* the deployment path: the checker works on a model after disk round-trip *)
  let model = fixture_model () in
  let path = Filename.temp_file "violet_chk" ".vmodel" in
  (match Violet.Pipeline.export_model model path with Ok () -> () | Error e -> Alcotest.fail e);
  let model =
    match Violet.Pipeline.import_model path with Ok m -> m | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let file = parse_exn "" in
  match Checker.check_current ~model ~registry:Fixtures.registry ~file () with
  | Ok report -> check Alcotest.bool "still flags" true (report.Checker.findings <> [])
  | Error e -> Alcotest.fail e

let tests =
  [
    tc "parse basics" test_parse_basics;
    tc "parse later wins" test_parse_later_wins;
    tc "parse errors" test_parse_errors;
    tc "changed keys" test_changed_keys;
    tc "to_assignment" test_to_assignment;
    tc "to_assignment invalid" test_to_assignment_invalid_value;
    tc "test case generation" test_testcase_generation;
    tc "test case empty predicate" test_testcase_empty_predicate;
    tc "test case unsat" test_testcase_unsat;
    tc "mode 2 flags poor default" test_mode2_flags_poor_default;
    tc "mode 2 good config silent" test_mode2_good_config_silent;
    tc "mode 1 update regression" test_mode1_update_regression;
    tc "mode 1 unrelated change silent" test_mode1_unrelated_change_silent;
    tc "mode 3 code upgrade" test_mode3_code_upgrade;
    tc "mode 3 workload change" test_mode3_workload_change;
    tc "mode 3b degraded region widening" test_mode3b_degraded_region;
    tc "checker on loaded model" test_checker_on_loaded_model;
    tc "test case memo survives a render" test_testcase_memo_survives_render;
  ]
