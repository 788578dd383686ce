(* Tests for the vsched subsystem: searcher parsing, path-set equivalence
   and determinism of every frontier, solver-cache correctness against the
   direct solver, the guided searchers actually guiding (fewer steps to the
   specious path than Bfs on the MySQL model), and the cache leaving the
   end-to-end impact model untouched. *)

module Ex = Vsymexec.Executor
module S = Vsymexec.Sym_state
module Sr = Vsched.Searcher
module Cache = Vsched.Solver_cache
module Stats = Vsched.Exploration_stats
module E = Vsmt.Expr
module Solver = Vsmt.Solver

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let env = Vruntime.Hw_env.hdd_server

let all_policies =
  [
    Ex.Dfs;
    Ex.Bfs;
    Ex.Random_path 11;
    Ex.Coverage_guided;
    Ex.Config_impact { related = [] };
    Ex.Config_impact { related = [ "autocommit" ] };
  ]

(* ------------------------------------------------------------------ *)
(* Searcher parsing                                                    *)
(* ------------------------------------------------------------------ *)

let test_of_string_roundtrip () =
  List.iter
    (fun p ->
      match Sr.of_string (Sr.to_string p) with
      | Ok p' -> check Alcotest.string "roundtrip" (Sr.to_string p) (Sr.to_string p')
      | Error msg -> Alcotest.fail msg)
    [ Sr.Dfs; Sr.Bfs; Sr.Random_path 42; Sr.Coverage_guided; Sr.Config_impact { related = [] } ];
  (match Sr.of_string "random:7" with
  | Ok (Sr.Random_path 7) -> ()
  | _ -> Alcotest.fail "random:7 should parse to a seeded searcher");
  check Alcotest.bool "garbage rejected" true (Result.is_error (Sr.of_string "zigzag"))

(* ------------------------------------------------------------------ *)
(* Path-set equivalence and determinism on the mini-MySQL fixture      *)
(* ------------------------------------------------------------------ *)

let fixture_run policy =
  let reg = Fixtures.registry in
  let opts =
    {
      (Ex.default_options ~env
         ~config:(fun n -> Vruntime.Config_registry.Values.lookup
                             (Vruntime.Config_registry.Values.defaults reg) n 0)
         ~workload:(fun _ -> 0)
         ())
      with
      Ex.sym_configs =
        [
          Ex.sym_config_var reg "autocommit";
          Ex.sym_config_var reg "flush_at_trx_commit";
          Ex.sym_config_var reg "log_buffer_size";
        ];
      sym_workloads = [ Ex.sym_workload_var Fixtures.workload "sql_command" ];
      policy;
    }
  in
  Ex.run opts Fixtures.program

let pc_signature (r : Ex.result) =
  r.Ex.states
  |> List.filter (fun (st : S.t) ->
         match st.S.status with S.Terminated _ -> true | _ -> false)
  |> List.map (fun (st : S.t) ->
         String.concat "&" (List.map E.to_string (List.sort compare st.S.pc)))
  |> List.sort String.compare

let test_same_path_set_as_dfs () =
  let dfs = pc_signature (fixture_run Ex.Dfs) in
  check Alcotest.bool "dfs explores several paths" true (List.length dfs >= 4);
  List.iter
    (fun policy ->
      check
        (Alcotest.list Alcotest.string)
        (Sr.to_string policy ^ " = dfs") dfs
        (pc_signature (fixture_run policy)))
    all_policies

let completion_order (r : Ex.result) =
  List.map (fun (c : Stats.completion) -> c.Stats.state_id) r.Ex.sched.Stats.completions

let test_deterministic_ordering () =
  (* every searcher, including the seeded and the scored ones, completes
     states in the same order when run twice on the same program *)
  List.iter
    (fun policy ->
      check
        (Alcotest.list Alcotest.int)
        (Sr.to_string policy ^ " deterministic")
        (completion_order (fixture_run policy))
        (completion_order (fixture_run policy)))
    all_policies

let test_telemetry_consistent () =
  let r = fixture_run Ex.Bfs in
  let sched = r.Ex.sched in
  (* a two-way fork retires the parent and mints two children, so the leaf
     count — states that reach a terminal status — is forks + 1 *)
  check Alcotest.int "every leaf state completes"
    (Stdlib.( + ) sched.Stats.forks 1)
    (Stdlib.( + ) sched.Stats.states_completed sched.Stats.states_dropped);
  check Alcotest.int "completions listed"
    (Stdlib.( + ) sched.Stats.states_completed sched.Stats.states_dropped)
    (List.length sched.Stats.completions);
  check Alcotest.int "solver query count matches headline stats"
    r.Ex.stats.Ex.solver_calls sched.Stats.solver_queries;
  check Alcotest.bool "queue was sampled" true (sched.Stats.queue_samples <> []);
  check Alcotest.string "searcher recorded" "bfs" sched.Stats.searcher

(* ------------------------------------------------------------------ *)
(* Solver cache vs direct solver on randomized constraint sets         *)
(* ------------------------------------------------------------------ *)

let var name lo hi = E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Config }
let qa = var "qa" 0 1
let qb = var "qb" 0 7
let qc = var "qc" 0 7

let feasible cache cs = Cache.is_feasible cache ~max_nodes:4_000 cs

let atom_gen =
  QCheck2.Gen.(
    let open E in
    let v = oneofl [ qa; qb; qc ] in
    let cmp = oneofl [ ( ==. ); ( <>. ); ( <. ); ( >. ); ( <=. ); ( >=. ) ] in
    oneof
      [
        (v >>= fun x -> cmp >>= fun op -> int_range 0 8 >>= fun k ->
         return (op (of_var x) (const k)));
        (v >>= fun x -> v >>= fun y -> cmp >>= fun op -> int_range 0 12 >>= fun k ->
         return (op (binop Add (of_var x) (of_var y)) (const k)));
      ])

let query_gen = QCheck2.Gen.(list_size (int_range 0 5) atom_gen)

let prop_cache_matches_solver =
  (* one cache instance across the whole sequence, so later queries hit the
     models and cores stored by earlier ones; each verdict must still agree
     with a fresh direct solve.  The domains are tiny, so the solver is
     decisive and the cache may not add or lose precision. *)
  let cache = Cache.create () in
  QCheck2.Test.make ~name:"cached verdicts match the direct solver" ~count:300
    query_gen (fun cs ->
      let direct = Solver.check ~max_nodes:4_000 cs in
      let feas = feasible cache cs in
      let model = Cache.check_model cache ~max_nodes:4_000 cs in
      let same_verdict =
        match direct with
        | Solver.Sat _ | Solver.Unknown -> feas
        | Solver.Unsat -> not feas
      in
      (* check_model is exact memoization of a deterministic solver: the
         result must be byte-identical, model values included *)
      same_verdict && model = direct)

let test_cache_hits_accumulate () =
  let cache = Cache.create () in
  let cs = E.[ of_var qb >. const 3; of_var qb <. const 6 ] in
  ignore (feasible cache cs);
  ignore (feasible cache cs);
  (* a superset of a satisfiable set: served by the counterexample probe
     without a new solve whenever the stored model satisfies it *)
  ignore (feasible cache (E.(of_var qa >=. const 0) :: cs));
  let s = Cache.stats cache in
  check Alcotest.int "lookups" 3 s.Cache.lookups;
  check Alcotest.bool "hits" true (Cache.hits s >= 1);
  check Alcotest.bool "rate" true (Cache.hit_rate s > 0.);
  (* an unsat set, then a superset of it: subsumption *)
  let unsat = E.[ of_var qb >. const 5; of_var qb <. const 3 ] in
  check Alcotest.bool "unsat" false (feasible cache unsat);
  check Alcotest.bool "superset unsat" false
    (feasible cache (E.(of_var qa ==. const 1) :: unsat));
  let s = Cache.stats cache in
  check Alcotest.bool "subsumption used" true (s.Cache.subsumption_hits >= 1)

(* regression: entries are keyed on the sorted constraint set, so a permuted
   path condition is the same query — an exact hit, identical verdict and
   model, no new solve *)
let test_cache_key_order_insensitive () =
  let cache = Cache.create () in
  let cs = E.[ of_var qb >. const 3; of_var qa ==. const 1; of_var qc <. const 5 ] in
  let direct = Cache.check_model cache ~max_nodes:4_000 cs in
  let s0 = Cache.stats cache in
  let permuted = [ List.nth cs 2; List.nth cs 0; List.nth cs 1 ] in
  let again = Cache.check_model cache ~max_nodes:4_000 permuted in
  let s1 = Cache.stats cache in
  check Alcotest.bool "permuted query returns the identical result" true
    (again = direct);
  check Alcotest.int "permuted query does not re-solve" s0.Cache.misses s1.Cache.misses;
  check Alcotest.bool "it is an exact hit" true (s1.Cache.exact_hits > s0.Cache.exact_hits);
  (* same contract on the feasibility path *)
  let feas = feasible cache cs in
  let s2 = Cache.stats cache in
  check Alcotest.bool "reversed feasibility query agrees" feas
    (feasible cache (List.rev cs));
  let s3 = Cache.stats cache in
  check Alcotest.int "reversed feasibility query does not re-solve" s2.Cache.misses
    s3.Cache.misses

(* priming a live cache with another cache's dump must make the dumped
   entries serve future queries next to the cache's own — the mechanism
   behind checkpoint resume and the cross-run warm start *)
let test_cache_merge_serves_shard_entries () =
  let dst = Cache.create () in
  let src = Cache.create () in
  let cs_dst = E.[ of_var qb >. const 3 ] in
  let cs_src = E.[ of_var qc <. const 2; of_var qa ==. const 0 ] in
  ignore (Cache.check_model dst ~max_nodes:4_000 cs_dst);
  let expected = Cache.check_model src ~max_nodes:4_000 cs_src in
  Cache.prime dst (Cache.dump src);
  let s0 = Cache.stats dst in
  let got = Cache.check_model dst ~max_nodes:4_000 (List.rev cs_src) in
  let s1 = Cache.stats dst in
  check Alcotest.bool "merged entry answers, order-insensitively" true
    (got = expected);
  check Alcotest.int "without a new solve" s0.Cache.misses s1.Cache.misses

(* ------------------------------------------------------------------ *)
(* Lookup accounting                                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_counts_each_query () =
  let c = Cache.create () in
  let q_sat = E.[ of_var qb >. const 3; of_var qb <. const 6 ] in
  let q_unsat = E.[ of_var qb >. const 5; of_var qb <. const 3 ] in
  check Alcotest.bool "sat verdict" true (feasible c q_sat);
  check Alcotest.bool "unsat verdict" false (feasible c q_unsat);
  check Alcotest.bool "permuted duplicate agrees" true (feasible c (List.rev q_sat));
  check Alcotest.bool "repeat sat" true (feasible c q_sat);
  check Alcotest.bool "repeat unsat" false (feasible c q_unsat);
  let s = Cache.stats c in
  check Alcotest.int "each query counts one lookup" 5 s.Cache.lookups;
  check Alcotest.bool "only distinct queries solved" true (s.Cache.misses <= 2);
  check Alcotest.int "every lookup is a hit or a miss" s.Cache.lookups
    (Stdlib.( + ) (Cache.hits s) s.Cache.misses)

let test_cache_dump_prime_roundtrip () =
  let c = Cache.create () in
  let q1 = E.[ of_var qb >. const 3 ] in
  let q2 = E.[ of_var qc <. const 2; of_var qa ==. const 0 ] in
  let v1 = feasible c q1 and v2 = feasible c q2 in
  let c2 = Cache.create () in
  Cache.prime c2 (Cache.dump c);
  let s0 = Cache.stats c2 in
  check Alcotest.bool "primed entry answers" v2 (feasible c2 (List.rev q2));
  check Alcotest.bool "primed entry answers" v1 (feasible c2 q1);
  let s1 = Cache.stats c2 in
  check Alcotest.int "primed queries re-solve nothing" s0.Cache.misses s1.Cache.misses

(* ------------------------------------------------------------------ *)
(* End-to-end: guided searchers beat Bfs to the specious path, and the *)
(* cache changes nothing but the solve count                           *)
(* ------------------------------------------------------------------ *)

let mysql_analysis =
  let run (policy, solver_cache) =
    let opts = { Violet.Pipeline.default_options with policy; solver_cache } in
    Violet.Pipeline.analyze_exn ~opts Targets.Mysql_model.target "autocommit"
  in
  let memo = Hashtbl.create 4 in
  fun policy ~solver_cache ->
    let key = Sr.to_string policy, solver_cache in
    match Hashtbl.find_opt memo key with
    | Some a -> a
    | None ->
      let a = run (policy, solver_cache) in
      Hashtbl.add memo key a;
      a

let steps_to_first_poor (a : Violet.Pipeline.analysis) =
  let poor = a.Violet.Pipeline.diff.Vmodel.Diff_analysis.poor_state_ids in
  check Alcotest.bool "analysis finds poor states" true (poor <> []);
  match
    Stats.first_completion a.Violet.Pipeline.result.Ex.sched
      ~satisfying:(fun id -> List.mem id poor)
  with
  | Some c -> c.Stats.at_step
  | None -> Alcotest.fail "no poor state ever completed"

let test_guided_beats_bfs () =
  let bfs = steps_to_first_poor (mysql_analysis Ex.Bfs ~solver_cache:true) in
  let coverage = steps_to_first_poor (mysql_analysis Ex.Coverage_guided ~solver_cache:true) in
  let impact =
    steps_to_first_poor
      (mysql_analysis (Ex.Config_impact { related = [] }) ~solver_cache:true)
  in
  check Alcotest.bool
    (Printf.sprintf "coverage (%d) < bfs (%d)" coverage bfs)
    true (coverage < bfs);
  check Alcotest.bool
    (Printf.sprintf "config-impact (%d) < bfs (%d)" impact bfs)
    true (impact < bfs)

let test_cache_transparent_end_to_end () =
  let strip (a : Violet.Pipeline.analysis) =
    Vmodel.Impact_model.to_string
      { a.Violet.Pipeline.model with Vmodel.Impact_model.analysis_wall_s = 0. }
  in
  let on = mysql_analysis Ex.Dfs ~solver_cache:true in
  let off = mysql_analysis Ex.Dfs ~solver_cache:false in
  check Alcotest.string "identical impact model" (strip off) (strip on);
  let sched = on.Violet.Pipeline.result.Ex.sched in
  (match sched.Stats.cache with
  | None -> Alcotest.fail "cache stats missing with the cache on"
  | Some c ->
    check Alcotest.bool "nonzero hit rate" true (Cache.hit_rate c > 0.);
    check Alcotest.bool "fewer solves than queries" true
      (sched.Stats.solver_solves < sched.Stats.solver_queries));
  let sched_off = off.Violet.Pipeline.result.Ex.sched in
  check Alcotest.bool "cache off reports no stats" true (sched_off.Stats.cache = None);
  check Alcotest.int "cache off solves every query" sched_off.Stats.solver_queries
    sched_off.Stats.solver_solves;
  (* query counts are cache-independent, so virtual-time accounting is too *)
  check Alcotest.int "query count unchanged" sched_off.Stats.solver_queries
    sched.Stats.solver_queries;
  check Alcotest.bool "solver-cache size surfaces in memo_sizes" true
    (List.mem_assoc "solver_cache_feas_entries" sched.Stats.memo_sizes)

let tests =
  [
    tc "searcher of_string roundtrip" test_of_string_roundtrip;
    tc "all searchers explore dfs's path set" test_same_path_set_as_dfs;
    tc "completion order deterministic" test_deterministic_ordering;
    tc "telemetry consistent" test_telemetry_consistent;
    QCheck_alcotest.to_alcotest prop_cache_matches_solver;
    tc "cache hit counters" test_cache_hits_accumulate;
    tc "cache keys ignore constraint order" test_cache_key_order_insensitive;
    tc "merged shard entries serve queries" test_cache_merge_serves_shard_entries;
    tc "cache counts each query once" test_cache_counts_each_query;
    tc "cache dump/prime round-trip" test_cache_dump_prime_roundtrip;
    tc "guided searchers beat bfs to the specious path" test_guided_beats_bfs;
    tc "solver cache transparent end to end" test_cache_transparent_end_to_end;
  ]
