(* vpar: pool primitives, and the headline determinism contract of the
   parallel executor — a [--jobs N] analysis of a random program produces a
   byte-identical serialized impact model to [--jobs 1], including under an
   injected (manual-clock) deadline.  Runs with real spawned domains even on
   a single-core machine: [Vpar.Pool.clamp_jobs] deliberately allows
   oversubscription so worker interleavings are exercised anywhere. *)

module B = Vresilience.Budget
open Vir.Builder

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_array_order () =
  let xs = Array.init 1000 (fun i -> i) in
  let out = Vpar.Pool.map_array ~jobs:4 (fun x -> x * x) xs in
  check
    Alcotest.(array int)
    "results at input indices"
    (Array.map (fun x -> x * x) xs)
    out;
  check Alcotest.(array int) "empty" [||] (Vpar.Pool.map_array ~jobs:4 (fun x -> x) [||])

let test_run_propagates_exception () =
  match Vpar.Pool.run ~jobs:4 (fun w -> if w = 2 then failwith "boom") with
  | () -> Alcotest.fail "expected the worker failure to re-raise"
  | exception Failure msg -> check Alcotest.string "worker error surfaces" "boom" msg

let test_clamp_jobs () =
  check Alcotest.int "floor" 1 (Vpar.Pool.clamp_jobs 0);
  check Alcotest.int "floor negative" 1 (Vpar.Pool.clamp_jobs (-3));
  check Alcotest.int "identity" 4 (Vpar.Pool.clamp_jobs 4);
  check Alcotest.int "oversubscription allowed" 8 (Vpar.Pool.clamp_jobs 8);
  check Alcotest.int "absolute cap" 64 (Vpar.Pool.clamp_jobs 10_000)

let test_default_jobs_env () =
  let saved = Sys.getenv_opt "VIOLET_JOBS" in
  let restore () = Unix.putenv "VIOLET_JOBS" (Option.value saved ~default:"") in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "VIOLET_JOBS" "3";
      check Alcotest.int "reads env" 3 (Vpar.Pool.default_jobs ());
      Unix.putenv "VIOLET_JOBS" "0";
      check Alcotest.int "non-positive falls back" 1 (Vpar.Pool.default_jobs ());
      Unix.putenv "VIOLET_JOBS" "nope";
      check Alcotest.int "garbage falls back" 1 (Vpar.Pool.default_jobs ()))

(* ------------------------------------------------------------------ *)
(* Determinism: --jobs 4 == --jobs 1, byte for byte                    *)
(* ------------------------------------------------------------------ *)

let registry =
  Vruntime.Config_registry.(
    make ~system:"par"
      [
        param_bool "a" ~default:false "flag a";
        param_int "n" ~lo:0 ~hi:7 ~default:3 "small int";
      ])

let workload =
  Vruntime.Workload.(
    template "w" [ wparam_enum "k" ~values:[ "X"; "Y"; "Z" ] "kind" ])

let cond_gen =
  QCheck2.Gen.oneofl
    [
      cfg "n" >. i 4;
      cfg "n" <. i 2;
      wl "k" ==. i 1;
      (cfg "n" <. i 3) ||. (wl "k" ==. i 2);
      (cfg "a" ==. i 0) &&. (cfg "n" >=. i 2);
      cfg "n" %. i 2 ==. i 0;
    ]

let prim_gen =
  QCheck2.Gen.oneofl
    [
      fsync;
      compute (i 50);
      buffered_write (i 1024);
      buffered_read (i 256);
      net_send (i 128);
      mutex_lock;
      mutex_unlock;
    ]

(* Random statement blocks: prims, nested branches, a call into a defined
   helper, and a Pure library call whose symbolic argument makes the
   executor mint a fresh (path-named) symbol. *)
let block_gen =
  QCheck2.Gen.(
    let stmt_leaf =
      oneof
        [
          prim_gen;
          return (call "helper" []);
          return (call ~dest:"x" "pure_op" [ cfg "n" ]);
        ]
    in
    let rec block depth =
      let stmt =
        if depth = 0 then stmt_leaf
        else
          oneof
            [
              stmt_leaf;
              (cond_gen >>= fun c ->
               block (depth - 1) >>= fun t ->
               block (depth - 1) >>= fun e -> return (if_ c t e));
            ]
      in
      list_size (int_range 1 3) stmt
    in
    block 2)

let program_gen =
  QCheck2.Gen.(
    block_gen >>= fun then_block ->
    block_gen >>= fun else_block ->
    return
      (program ~name:"gen" ~entry:"main"
         [
           (* every generated program branches on the analyzed parameter *)
           func "main" [ if_ (cfg "a" ==. i 1) then_block else_block; ret_void ];
           func "helper" [ compute (i 20); fsync; ret_void ];
           library "pure_op" ~effect:Vir.Ast.Pure (fun vs ->
               match vs with [ v ] -> (v * 2) + 1 | _ -> 7);
         ]))

let policy_gen =
  QCheck2.Gen.oneofl
    Vsymexec.Executor.[ Dfs; Bfs; Random_path 42; Coverage_guided ]

let scenario_gen =
  QCheck2.Gen.(
    program_gen >>= fun program ->
    policy_gen >>= fun policy ->
    bool >>= fun fault_injection -> return (program, policy, fault_injection))

(* Serialized impact model under a pinned manual clock, so the one
   legitimately wall-clock-dependent field ([analysis_wall_s]) is 0 in every
   run.  [deadline]: [None] = unlimited; [Some 0.] = pre-expired, the
   degenerate injected-deadline case both drivers must cut identically. *)
let model_for ~jobs ~deadline (program, policy, fault_injection) =
  let clock () = 0. in
  let budget = B.with_clock (B.with_deadline B.default deadline) clock in
  let target = { Violet.Pipeline.name = "par"; program; registry; workloads = [ workload ] } in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.jobs;
      policy;
      fault_injection;
      budget;
    }
  in
  match Violet.Pipeline.analyze ~opts target "a" with
  | Ok a -> Vmodel.Impact_model.to_string a.Violet.Pipeline.model
  | Error e -> "error: " ^ Violet.Pipeline.error_to_string e

let prop_jobs_deterministic =
  QCheck2.Test.make ~name:"--jobs 4 model is byte-identical to --jobs 1" ~count:20
    scenario_gen (fun scenario ->
      String.equal
        (model_for ~jobs:1 ~deadline:None scenario)
        (model_for ~jobs:4 ~deadline:None scenario))

let prop_jobs_deterministic_under_deadline =
  QCheck2.Test.make
    ~name:"--jobs 4 model matches --jobs 1 under an injected deadline" ~count:10
    scenario_gen (fun scenario ->
      (* pre-expired: both drivers must drain the root identically *)
      String.equal
        (model_for ~jobs:1 ~deadline:(Some 0.) scenario)
        (model_for ~jobs:4 ~deadline:(Some 0.) scenario)
      (* far-off deadline on a manual clock: never fires, full run *)
      && String.equal
           (model_for ~jobs:1 ~deadline:(Some 1e9) scenario)
           (model_for ~jobs:4 ~deadline:(Some 1e9) scenario))

(* ------------------------------------------------------------------ *)
(* Deferred renumbering and the batch quantum                          *)
(* ------------------------------------------------------------------ *)

let analysis_for ~jobs (program, policy, fault_injection) =
  let clock () = 0. in
  let budget = B.with_clock B.default clock in
  let target = { Violet.Pipeline.name = "par"; program; registry; workloads = [ workload ] } in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.jobs;
      policy;
      fault_injection;
      budget;
    }
  in
  Violet.Pipeline.analyze ~opts target "a"

let fixed_scenario =
  ( program ~name:"gen" ~entry:"main"
      [
        func "main"
          [
            if_ (cfg "a" ==. i 1) [ call "helper" [] ] [ fsync ];
            if_ (cfg "n" >. i 4) [ buffered_write (i 2048) ] [ net_send (i 128) ];
            if_ (wl "k" ==. i 1) [ compute (i 50) ] [];
            ret_void;
          ];
        func "helper" [ compute (i 20); fsync; ret_void ];
        library "pure_op" ~effect:Vir.Ast.Pure (fun _ -> 7);
      ],
    Vsymexec.Executor.Bfs,
    false )

(* The deferred renumbering contract: after a parallel run the finished
   states are numbered 0..n-1 in fork-path order with lineage collapsed, no
   matter how workers interleaved. *)
let test_deferred_renumbering () =
  List.iter
    (fun jobs ->
      match analysis_for ~jobs fixed_scenario with
      | Error e -> Alcotest.fail (Violet.Pipeline.error_to_string e)
      | Ok a ->
        let states = a.Violet.Pipeline.result.Vsymexec.Executor.states in
        check Alcotest.bool "has states" true (states <> []);
        List.iteri
          (fun i (st : Vsymexec.Sym_state.t) ->
            check Alcotest.int
              (Printf.sprintf "jobs=%d: ids are 0..n-1 in order" jobs)
              i st.Vsymexec.Sym_state.id;
            check Alcotest.(option int)
              (Printf.sprintf "jobs=%d: lineage collapsed" jobs)
              None st.Vsymexec.Sym_state.parent)
          states;
        let paths =
          List.map
            (fun (st : Vsymexec.Sym_state.t) ->
              Vsymexec.Fork_path.to_string st.Vsymexec.Sym_state.path)
            states
        in
        check
          Alcotest.(list string)
          (Printf.sprintf "jobs=%d: states sorted by fork path" jobs)
          (List.sort String.compare paths) paths)
    [ 1; 4 ]

(* Work stealing under the batch quantum: a tiny time slice forces constant
   preemption and cross-worker stealing while both sides of every fork still
   go out as one feasibility batch — and the reduction must erase all of it. *)
let test_work_stealing_tiny_slice () =
  let program, _, _ = fixed_scenario in
  let config = function "a" -> 0 | _ -> 3 in
  let workload _ = 0 in
  let sym_configs =
    [
      ("a", Vsmt.Expr.{ name = "a"; dom = Vsmt.Dom.bool; origin = Config });
      ("n", Vsmt.Expr.{ name = "n"; dom = Vsmt.Dom.int_range 0 7; origin = Config });
    ]
  in
  let run jobs =
    let opts =
      {
        (Vsymexec.Executor.default_options ~env:Vruntime.Hw_env.hdd_server ~config
           ~workload ())
        with
        Vsymexec.Executor.sym_configs;
        policy = Vsymexec.Executor.Bfs;
        time_slice = 1;
        jobs;
      }
    in
    Vsymexec.Executor.run opts program
  in
  let fingerprint (r : Vsymexec.Executor.result) =
    List.map
      (fun (st : Vsymexec.Sym_state.t) ->
        ( st.Vsymexec.Sym_state.id,
          Vsymexec.Fork_path.to_string st.Vsymexec.Sym_state.path,
          Fmt.str "%a" Vsymexec.Sym_state.pp_status st.Vsymexec.Sym_state.status ))
      r.Vsymexec.Executor.states
  in
  let seq = run 1 in
  let par = run 4 in
  check Alcotest.bool "explored more than one path" true
    (List.length seq.Vsymexec.Executor.states > 1);
  check
    Alcotest.(list (triple int string string))
    "time_slice=1, jobs=4 reduction matches sequential" (fingerprint seq)
    (fingerprint par)

(* The shared striped solver cache hammered from real concurrent domains:
   every domain must see exactly the direct solver's verdicts.  Lives here
   (not in test_vsched) because it spawns domains, which forbids the
   [Unix.fork]-based suites that run between vsched and vpar. *)
let test_striped_concurrent_verdicts () =
  let module SC = Vsched.Solver_cache.Striped in
  let module E = Vsmt.Expr in
  let module Solver = Vsmt.Solver in
  let qvar name lo hi = E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Config } in
  let qa = qvar "qa" 0 1 and qb = qvar "qb" 0 7 and qc = qvar "qc" 0 7 in
  let c = SC.create ~shards:4 () in
  let queries =
    E.
      [
        [ of_var qb >. const 3 ];
        [ of_var qb >. const 5; of_var qb <. const 3 ];
        [ of_var qa ==. const 1; of_var qc <. const 5 ];
        [ of_var qc >=. const 0 ];
        [ of_var qa ==. const 1; of_var qa ==. const 0 ];
      ]
  in
  let direct =
    List.map
      (fun q ->
        match Solver.check ~max_nodes:4_000 q with Solver.Unsat -> false | _ -> true)
      queries
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.map (fun q -> fst (SC.is_feasible c ~max_nodes:4_000 q)) queries))
  in
  List.iter
    (fun d ->
      check
        Alcotest.(list bool)
        "every domain sees the direct solver's verdicts" direct (Domain.join d))
    domains

(* worker telemetry sanity: a parallel run reports its workers *)
let test_parallel_telemetry () =
  let scenario =
    ( program ~name:"gen" ~entry:"main"
        [
          func "main"
            [
              if_ (cfg "a" ==. i 1) [ call "helper" [] ] [ fsync ];
              if_ (cfg "n" >. i 4) [ buffered_write (i 2048) ] [];
              ret_void;
            ];
          func "helper" [ compute (i 20); ret_void ];
          library "pure_op" ~effect:Vir.Ast.Pure (fun _ -> 7);
        ],
      Vsymexec.Executor.Bfs,
      false )
  in
  let program, policy, fault_injection = scenario in
  let target = { Violet.Pipeline.name = "par"; program; registry; workloads = [ workload ] } in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.jobs = 4;
      policy;
      fault_injection;
    }
  in
  match Violet.Pipeline.analyze ~opts target "a" with
  | Error e -> Alcotest.fail (Violet.Pipeline.error_to_string e)
  | Ok a ->
    let sched = a.Violet.Pipeline.result.Vsymexec.Executor.sched in
    check Alcotest.int "jobs recorded" 4 sched.Vsched.Exploration_stats.jobs;
    check Alcotest.int "one worker record per domain" 4
      (List.length sched.Vsched.Exploration_stats.workers);
    let total_steps =
      List.fold_left
        (fun acc (w : Vsched.Exploration_stats.worker) ->
          acc + w.Vsched.Exploration_stats.w_steps)
        0 sched.Vsched.Exploration_stats.workers
    in
    check Alcotest.int "worker steps sum to the run's steps"
      sched.Vsched.Exploration_stats.steps total_steps;
    (match sched.Vsched.Exploration_stats.batch with
    | None -> Alcotest.fail "batch-feasibility counters missing"
    | Some b ->
      check Alcotest.bool "feasibility went out in batches" true
        (b.Vsched.Exploration_stats.b_batches > 0);
      check Alcotest.bool "batches carry at least one query each" true
        (b.Vsched.Exploration_stats.b_queries >= b.Vsched.Exploration_stats.b_batches));
    check Alcotest.bool "shared solver-cache size surfaces in memo_sizes" true
      (List.mem_assoc "solver_cache_feas_entries" sched.Vsched.Exploration_stats.memo_sizes)

let qt = QCheck_alcotest.to_alcotest

let tests =
  [
    tc "map_array keeps input order" test_map_array_order;
    tc "worker exceptions propagate" test_run_propagates_exception;
    tc "clamp_jobs bounds" test_clamp_jobs;
    tc "default_jobs reads VIOLET_JOBS" test_default_jobs_env;
    qt prop_jobs_deterministic;
    qt prop_jobs_deterministic_under_deadline;
    tc "deferred renumbering yields canonical ids" test_deferred_renumbering;
    tc "work stealing under time_slice=1 stays deterministic" test_work_stealing_tiny_slice;
    tc "striped cache agrees under concurrent domains" test_striped_concurrent_verdicts;
    tc "parallel run reports worker telemetry" test_parallel_telemetry;
  ]
