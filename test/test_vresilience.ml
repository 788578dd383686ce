(* Tests for the resilience layer: unified budgets, checkpoint/resume,
   the graceful-degradation ladder, and the engine-fault chaos harness.
   The heavyweight properties here are the PR's acceptance criteria: a
   killed-and-resumed analysis produces a byte-identical impact model, and
   a chaotic run either succeeds, degrades-but-flags, or fails with a
   typed error — never an uncaught exception. *)

module B = Vresilience.Budget
module Ck = Vresilience.Checkpoint
module Ch = Vresilience.Chaos
module D = Vresilience.Degradation
module Ex = Vsymexec.Executor
module S = Vsymexec.Sym_state
module P = Violet.Pipeline
module M = Vmodel.Impact_model
module CF = Vchecker.Config_file
module Checker = Vchecker.Checker

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let stc name f = Alcotest.test_case name `Slow f

let tmp_path () =
  let path = Filename.temp_file "vresilience" ".ckpt" in
  Sys.remove path;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* A clock that reads 0. for the first [after] samples, then jumps far past
   any deadline: lets a fixed amount of engine activity happen before the
   budget snaps shut, deterministically. *)
let jump_clock ~after ~to_ =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n > after then to_ else 0.

(* The virtual clock used whenever two runs must produce byte-identical
   models: wall time is pinned to zero in both. *)
let frozen_budget = B.with_clock B.default (fun () -> 0.)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_clock () =
  let now, advance = B.manual_clock () in
  let armed = B.arm (B.with_clock (B.with_deadline B.default (Some 10.)) now) in
  check Alcotest.bool "fresh not expired" false (B.expired armed);
  check (Alcotest.float 1e-6) "no pressure yet" 0. (B.pressure armed);
  advance 5.;
  check (Alcotest.float 1e-6) "half pressure" 0.5 (B.pressure armed);
  check Alcotest.bool "still live" false (B.expired armed);
  check (Alcotest.option (Alcotest.float 1e-6)) "remaining" (Some 5.) (B.remaining_s armed);
  advance 5.;
  check Alcotest.bool "expired at deadline" true (B.expired armed);
  check (Alcotest.float 1e-6) "pressure clamped" 1. (B.pressure armed);
  (* a deadline-free budget never expires *)
  let free = B.arm (B.with_clock B.default now) in
  advance 1e9;
  check Alcotest.bool "no deadline no expiry" false (B.expired free);
  check (Alcotest.float 1e-6) "no deadline no pressure" 0. (B.pressure free)

(* ------------------------------------------------------------------ *)
(* Checkpoint envelope                                                 *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let path = tmp_path () in
  let payload = "binary\x00payload\xff with teeth" in
  (match Ck.write ~path ~kind:"test" ~version:3 payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ck.error_to_string e));
  (match Ck.read ~path ~kind:"test" ~version:3 with
  | Ok (p, digest) ->
    check Alcotest.string "payload survives" payload p;
    check Alcotest.string "verified digest" (Digest.to_hex (Digest.string payload)) digest
  | Error e -> Alcotest.fail (Ck.error_to_string e));
  (match Ck.read ~path ~kind:"other" ~version:3 with
  | Error (Ck.Kind_mismatch _) -> ()
  | _ -> Alcotest.fail "wrong kind accepted");
  (match Ck.read ~path ~kind:"test" ~version:4 with
  | Error (Ck.Version_mismatch { expected = 4; found = 3 }) -> ()
  | _ -> Alcotest.fail "wrong version accepted");
  Sys.remove path;
  match Ck.read ~path ~kind:"test" ~version:3 with
  | Error (Ck.Io _) -> ()
  | _ -> Alcotest.fail "missing file accepted"

(* A registry load reads each model file through the envelope: its payload
   is allocated once.  The mysql/autocommit model (148,792 bytes) read
   37,204 major words, two per payload word, when the payload was copied
   after it was read. *)
let test_checkpoint_read_allocation () =
  let model = (P.analyze_exn (Targets.Cases.target_of "mysql") "autocommit").P.model in
  let path = tmp_path () in
  (match P.export_model model path with Ok () -> () | Error e -> Alcotest.fail e);
  let read () =
    match Ck.read ~path ~kind:P.model_kind ~version:P.model_version with
    | Ok (payload, _) -> payload
    | Error e -> Alcotest.fail (Ck.error_to_string e)
  in
  ignore (read ());
  (* [major_words] lags until a collection: flush it on both sides *)
  let major_words () =
    Gc.minor ();
    ignore (Gc.major_slice 0);
    (Gc.quick_stat ()).Gc.major_words
  in
  let before = major_words () in
  let payload = read () in
  let words = major_words () -. before in
  Sys.remove path;
  let payload_words = float_of_int (String.length payload / 8) in
  check Alcotest.bool
    (Printf.sprintf "%.0f major words for %.0f payload words" words payload_words)
    true
    (words < 1.2 *. payload_words)

let test_checkpoint_damage () =
  let path = tmp_path () in
  (match Ck.write ~path ~kind:"test" ~version:1 (String.make 256 'x') with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ck.error_to_string e));
  let full = read_file path in
  (* a truncation at any point must come back as a typed error *)
  List.iter
    (fun len ->
      write_file path (String.sub full 0 len);
      match Ck.read ~path ~kind:"test" ~version:1 with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len)
    [ 0; 4; 12; String.length full / 2; String.length full - 1 ];
  (* a flipped payload byte fails the digest *)
  let flipped = Bytes.of_string full in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
  write_file path (Bytes.to_string flipped);
  (match Ck.read ~path ~kind:"test" ~version:1 with
  | Error Ck.Corrupt -> ()
  | _ -> Alcotest.fail "bit flip accepted");
  (* not a checkpoint at all *)
  write_file path "[mysqld]\nautocommit = ON\n";
  (match Ck.read ~path ~kind:"test" ~version:1 with
  | Error Ck.Bad_magic -> ()
  | _ -> Alcotest.fail "garbage accepted");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Chaos spec                                                          *)
(* ------------------------------------------------------------------ *)

let test_chaos_spec () =
  (match Ch.of_string "42" with
  | Ok c ->
    check Alcotest.int "seed" 42 c.Ch.seed;
    check (Alcotest.float 1e-9) "default solver mix" 0.05 c.Ch.solver_unknown_p;
    check (Alcotest.float 1e-9) "default truncate mix" 0.2 c.Ch.checkpoint_truncate_p
  | Error e -> Alcotest.fail e);
  (match Ch.of_string "7:0.5" with
  | Ok c ->
    check Alcotest.int "seed" 7 c.Ch.seed;
    check (Alcotest.float 1e-9) "uniform prob" 0.5 c.Ch.solver_unknown_p;
    check (Alcotest.float 1e-9) "uniform prob truncate" 0.5 c.Ch.checkpoint_truncate_p
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "garbage rejected" true (Result.is_error (Ch.of_string "lots"));
  check Alcotest.bool "bad prob rejected" true (Result.is_error (Ch.of_string "1:x"));
  let c = Ch.make ~model_corrupt:1.0 ~seed:1 () in
  let s = "abcdefgh" in
  check Alcotest.bool "p=1 corrupts" true (Ch.corrupt_string c s <> s);
  check Alcotest.string "empty unchanged" "" (Ch.corrupt_string c "");
  let c0 = Ch.make ~seed:1 () in
  check Alcotest.string "p=0 identity" s (Ch.corrupt_string c0 s)

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let test_degradation_ladder () =
  let rung = Alcotest.testable (Fmt.of_to_string D.rung_to_string) ( = ) in
  let ctl = D.controller D.default_policy in
  check rung "starts full" D.Full (D.current ctl);
  check Alcotest.int "below thresholds" 0
    (List.length (D.observe ctl ~pressure:0.3 ~step:1));
  let evs = D.observe ctl ~pressure:0.6 ~step:10 in
  check Alcotest.int "one escalation" 1 (List.length evs);
  check rung "reduced unroll" D.Reduced_unroll (D.current ctl);
  let evs = D.observe ctl ~pressure:0.9 ~step:20 in
  check Alcotest.int "pressure jump climbs two rungs" 2 (List.length evs);
  check rung "top rung" D.Drop_states (D.current ctl);
  check Alcotest.int "full history" 3 (List.length (D.events ctl));
  check Alcotest.int "monotone: never descends" 0
    (List.length (D.observe ctl ~pressure:0. ~step:30));
  (* resume path: restoring the history lands on the same rung *)
  let ctl2 = D.controller D.default_policy in
  D.restore ctl2 (D.events ctl);
  check rung "restored" D.Drop_states (D.current ctl2);
  (* a disabled policy never escalates *)
  let off = D.controller D.disabled in
  check Alcotest.int "disabled is silent" 0
    (List.length (D.observe off ~pressure:1. ~step:1));
  check rung "disabled stays full" D.Full (D.current off)

(* ------------------------------------------------------------------ *)
(* Solver deadline                                                     *)
(* ------------------------------------------------------------------ *)

let test_solver_deadline () =
  let now, advance = B.manual_clock () in
  let armed = B.arm (B.with_clock (B.with_deadline B.default (Some 1.)) now) in
  let x = Vsmt.Expr.{ name = "x"; dom = Vsmt.Dom.int_range 0 100; origin = Config } in
  (match Vsmt.Solver.check ~budget:armed Vsmt.Expr.[ of_var x >. const 3 ] with
  | Vsmt.Solver.Sat _ -> ()
  | Vsmt.Solver.Unsat | Vsmt.Solver.Unknown -> Alcotest.fail "sat expected before deadline");
  advance 2.;
  match Vsmt.Solver.check ~budget:armed Vsmt.Expr.[ of_var x >. const 3 ] with
  | Vsmt.Solver.Unknown -> ()
  | Vsmt.Solver.Sat _ | Vsmt.Solver.Unsat -> Alcotest.fail "expired budget must give Unknown"

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume through the pipeline                              *)
(* ------------------------------------------------------------------ *)

let opts_with ?(budget = frozen_budget) ?checkpoint ?(resume = false) ?chaos () =
  { P.default_options with P.budget; checkpoint; resume; chaos }

let test_resume_byte_identical () =
  let path = tmp_path () in
  let opts ~resume =
    opts_with ~checkpoint:{ P.path; every_picks = 2 } ~resume ()
  in
  let full = P.analyze_exn ~opts:(opts ~resume:false) Fixtures.target "autocommit" in
  check Alcotest.bool "checkpoint written" true (Sys.file_exists path);
  let resumed = P.analyze_exn ~opts:(opts ~resume:true) Fixtures.target "autocommit" in
  check Alcotest.bool "resumed run is marked" true
    resumed.P.result.Ex.sched.Vsched.Exploration_stats.resumed;
  check Alcotest.string "resumed model is byte-identical"
    (M.to_string full.P.model) (M.to_string resumed.P.model);
  (* a damaged checkpoint surfaces as a typed error, not a crash *)
  let contents = read_file path in
  write_file path (String.sub contents 0 (String.length contents / 2));
  (match P.analyze ~opts:(opts ~resume:true) Fixtures.target "autocommit" with
  | Error (P.Checkpoint_failed _) -> ()
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e));
  (* resume without a configured checkpoint is a typed misuse error *)
  (match P.analyze ~opts:(opts_with ~resume:true ()) Fixtures.target "autocommit" with
  | Error (P.Engine_failure _) -> ()
  | Ok _ -> Alcotest.fail "resume without checkpoint accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e));
  Sys.remove path

(* A checkpoint written by an older snapshot format is refused by its
   envelope version, before the payload is read: the payload here is not a
   marshalled snapshot at all, so unmarshalling it would fail differently. *)
let test_old_checkpoint_version_rejected () =
  check Alcotest.int "snapshot format" 7 Ex.snapshot_version;
  let path = tmp_path () in
  (match Ck.write ~path ~kind:"executor-frontier" ~version:6 "a version-6 frontier" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ck.error_to_string e));
  let opts = opts_with ~checkpoint:{ P.path; every_picks = 0 } ~resume:true () in
  (match P.analyze ~opts Fixtures.target "autocommit" with
  | Error (P.Checkpoint_failed { reason = Ck.Version_mismatch { expected = 7; found = 6 }; _ })
    ->
    ()
  | Ok _ -> Alcotest.fail "version-6 checkpoint accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (P.error_to_string e));
  Sys.remove path

let test_kill9_resume_byte_identical () =
  (* OCaml 5 forbids Unix.fork once the runtime has gone multicore; if an
     earlier suite already spawned domains (vpar's pool tests), only this
     fork-based harness is unavailable — the resume contract itself is
     covered by the in-process test above *)
  if Vpar.Pool.spawned_domains () then Alcotest.skip ();
  let path = tmp_path () in
  let opts ~resume =
    opts_with ~checkpoint:{ P.path; every_picks = 1 } ~resume ()
  in
  let baseline = P.analyze_exn ~opts:(opts ~resume:false) Fixtures.target "autocommit" in
  if Sys.file_exists path then Sys.remove path;
  (match Unix.fork () with
  | 0 ->
    (* the victim: re-run the analysis until SIGKILL lands mid-exploration *)
    (try
       while true do
         ignore (P.analyze ~opts:(opts ~resume:false) Fixtures.target "autocommit")
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    let give_up = Unix.gettimeofday () +. 60. in
    let rec wait_for_checkpoint () =
      if Unix.gettimeofday () > give_up then
        Alcotest.fail "victim never wrote a checkpoint"
      else if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then ()
      else begin
        ignore (Unix.select [] [] [] 0.005);
        wait_for_checkpoint ()
      end
    in
    wait_for_checkpoint ();
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    check Alcotest.bool "checkpoint survived kill -9" true (Sys.file_exists path);
    let resumed = P.analyze_exn ~opts:(opts ~resume:true) Fixtures.target "autocommit" in
    check Alcotest.string "post-kill resume is byte-identical"
      (M.to_string baseline.P.model)
      (M.to_string resumed.P.model));
  if Sys.file_exists path then Sys.remove path

(* ------------------------------------------------------------------ *)
(* Deadline, degradation and telemetry                                 *)
(* ------------------------------------------------------------------ *)

(* How many times the uninterrupted fixture analysis samples the clock:
   calibrates where the deadline snaps shut so the run is genuinely cut
   short mid-exploration, whatever the fixture's exact path count.  The
   calibration budget carries a never-firing deadline — a deadline-free
   budget skips the clock on every deadline check, which would collapse
   the count to a handful of reads. *)
let fixture_clock_reads =
  lazy
    (let n = ref 0 in
     let budget =
       B.with_clock
         (B.with_deadline B.default (Some 1e12))
         (fun () ->
           incr n;
           0.)
     in
     ignore (P.analyze_exn ~opts:(opts_with ~budget ()) Fixtures.target "autocommit");
     !n)

let deadline_budget () =
  let after = max 10 (Lazy.force fixture_clock_reads / 3) in
  B.with_clock (B.with_deadline B.default (Some 60.)) (jump_clock ~after ~to_:1e6)

let test_deadline_terminates_and_flags () =
  let a =
    P.analyze_exn ~opts:(opts_with ~budget:(deadline_budget ()) ())
      Fixtures.target "autocommit"
  in
  check Alcotest.bool "deadline hit" true a.P.result.Ex.stats.Ex.deadline_hit;
  check Alcotest.bool "budget-killed states present" true
    (List.exists
       (fun (st : S.t) ->
         match st.S.status with
         | S.Killed reason -> Ex.is_budget_kill reason
         | _ -> false)
       a.P.result.Ex.states);
  (* the model carries the degradation summary and is flagged *)
  check Alcotest.bool "model flagged degraded" true (M.is_degraded a.P.model);
  (match a.P.model.M.degradation with
  | Some d -> check Alcotest.bool "summary records deadline" true d.M.deadline_hit
  | None -> Alcotest.fail "degradation summary missing");
  (* the exploration telemetry records it *)
  check Alcotest.bool "telemetry deadline flag" true
    a.P.result.Ex.sched.Vsched.Exploration_stats.deadline_hit;
  (* a degraded model survives the disk round-trip, flag included *)
  match M.of_string (M.to_string a.P.model) with
  | Ok m ->
    check Alcotest.bool "degradation survives serialization" true (M.is_degraded m);
    check Alcotest.string "degraded round-trip is exact" (M.to_string a.P.model)
      (M.to_string m)
  | Error e -> Alcotest.failf "degraded model did not round-trip: %s" e

(* The state-drop rung on the DFS stack.  A ticking clock makes deadline
   pressure a pure function of engine activity; with the deadline at the
   full run's clock-read count and every rung at 0.3, the ladder reaches
   [Drop_states] about a third of the way in, while states are queued.
   The drop keeps the top of the stack and kills the rest. *)
let test_drop_states_on_the_stack () =
  let run () =
    let budget =
      B.with_clock
        (B.with_deadline B.default (Some (float_of_int (Lazy.force fixture_clock_reads))))
        (B.ticking_clock ~step_s:1. ())
    in
    let degradation =
      { D.default_policy with D.t_unroll = 0.3; t_concretize = 0.3; t_drop = 0.3 }
    in
    P.analyze_exn ~opts:{ (opts_with ~budget ()) with P.degradation } Fixtures.target "autocommit"
  in
  let a = run () in
  let sched = a.P.result.Ex.sched in
  check Alcotest.bool "ladder entered drop-states" true
    (List.exists
       (fun (e : D.event) -> e.D.rung = D.Drop_states)
       sched.Vsched.Exploration_stats.degradation);
  let dropped =
    List.filter_map
      (fun (st : S.t) ->
        match st.S.status with
        | S.Killed reason when reason = Ex.degraded_drop_reason -> Some st.S.id
        | _ -> None)
      a.P.result.Ex.states
  in
  check Alcotest.bool "queued states were dropped" true (dropped <> []);
  (match a.P.model.M.degradation with
  | None -> Alcotest.fail "degradation summary missing"
  | Some d ->
    let listed = List.map (fun (p : M.dropped_path) -> p.M.dp_state_id) d.M.dropped_paths in
    List.iter
      (fun id ->
        check Alcotest.bool (Printf.sprintf "state %d listed as dropped" id) true
          (List.mem id listed))
      dropped);
  check Alcotest.string "two runs give the same model" (M.to_string a.P.model)
    (M.to_string (run ()).P.model)

let test_degradation_widens_specious_set () =
  (* the full model flags the poor default; a degraded run of the same
     analysis must still flag it — dropped paths are reported
     conservatively, so the specious set only widens *)
  let file = CF.parse "" in
  let findings model =
    match Checker.check_current ~model ~registry:Fixtures.registry ~file () with
    | Ok r -> r.Checker.findings
    | Error e -> Alcotest.fail e
  in
  let full = (P.analyze_exn Fixtures.target "autocommit").P.model in
  check Alcotest.bool "full model flags" true (findings full <> []);
  let degraded =
    (P.analyze_exn ~opts:(opts_with ~budget:(deadline_budget ()) ())
       Fixtures.target "autocommit")
      .P.model
  in
  check Alcotest.bool "degraded model is flagged degraded" true (M.is_degraded degraded);
  check Alcotest.bool "degraded model still flags (widening)" true
    (findings degraded <> []);
  (* every dropped path yields a conservative finding *)
  match degraded.M.degradation with
  | Some d when d.M.dropped_paths <> [] ->
    let dfs = Checker.degraded_findings degraded in
    check Alcotest.int "one conservative finding per dropped path"
      (List.length d.M.dropped_paths) (List.length dfs);
    List.iter
      (fun (f : Checker.finding) ->
        check Alcotest.string "trigger" "degraded" f.Checker.trigger)
      dfs
  | _ -> Alcotest.fail "expected dropped paths under the deadline"

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                       *)
(* ------------------------------------------------------------------ *)

let prop_chaos_never_raises =
  QCheck2.Test.make ~name:"chaotic runs never raise; degraded results are flagged"
    ~count:10
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let path = tmp_path () in
      let opts =
        opts_with
          ~budget:(deadline_budget ())
          ~checkpoint:{ P.path; every_picks = 2 }
          ~chaos:(Ch.default_with_seed seed) ()
      in
      let ok =
        match P.analyze ~opts Fixtures.target "autocommit" with
        | Ok a ->
          (* the robustness contract: a cut-short run must say so *)
          (not a.P.result.Ex.stats.Ex.deadline_hit) || M.is_degraded a.P.model
        | Error _ -> true (* a typed error is an acceptable outcome *)
      in
      if Sys.file_exists path then Sys.remove path;
      ok)

let prop_config_fuzz =
  let valid =
    "# comment\n[mysqld]\nautocommit = ON\nflush_at_trx_commit = 2\nskip-locking\nbinlog_format = 1\n"
  in
  QCheck2.Test.make ~name:"config parser survives random byte mutations" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let c = Ch.make ~model_corrupt:1.0 ~seed () in
      let s = ref valid in
      for _ = 1 to 8 do
        s := Ch.corrupt_string c !s
      done;
      let f = CF.parse !s in
      ignore (CF.bindings f);
      ignore (CF.issues f);
      (match CF.to_assignment Fixtures.registry f with Ok _ | Error _ -> ());
      true)

let prop_model_corruption_fuzz =
  let serialized =
    lazy (M.to_string (P.analyze_exn Fixtures.target "autocommit").P.model)
  in
  QCheck2.Test.make ~name:"model loader survives corrupted bytes" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let c = Ch.make ~model_corrupt:1.0 ~seed () in
      let s = ref (Lazy.force serialized) in
      for _ = 1 to 4 do
        s := Ch.corrupt_string c !s
      done;
      (match M.of_string !s with Ok _ | Error _ -> ());
      true)

let qt = QCheck_alcotest.to_alcotest

let tests =
  [
    tc "budget clock and pressure" test_budget_clock;
    tc "checkpoint roundtrip" test_checkpoint_roundtrip;
    tc "checkpoint damage is typed" test_checkpoint_damage;
    tc "checkpoint read allocates its payload once" test_checkpoint_read_allocation;
    tc "chaos spec parsing" test_chaos_spec;
    tc "degradation ladder" test_degradation_ladder;
    tc "solver deadline" test_solver_deadline;
    stc "resume is byte-identical" test_resume_byte_identical;
    tc "resume refuses a version-6 checkpoint" test_old_checkpoint_version_rejected;
    stc "kill -9 then resume is byte-identical" test_kill9_resume_byte_identical;
    stc "deadline terminates and flags" test_deadline_terminates_and_flags;
    stc "degradation widens the specious set" test_degradation_widens_specious_set;
    stc "drop-states rung on the DFS stack" test_drop_states_on_the_stack;
    qt prop_chaos_never_raises;
    qt prop_config_fuzz;
    qt prop_model_corruption_fuzz;
  ]
