(* Tests for the vsched subsystem: exploration telemetry on the DFS stack,
   and the solver memo — every answer equal to a fresh solve at the same
   node budget, hits and probes counted as such. *)

module Ex = Vsymexec.Executor
module Cache = Vsched.Solver_cache
module Stats = Vsched.Exploration_stats
module E = Vsmt.Expr
module Solver = Vsmt.Solver

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let env = Vruntime.Hw_env.hdd_server

(* ------------------------------------------------------------------ *)
(* Telemetry on the mini-MySQL fixture                                 *)
(* ------------------------------------------------------------------ *)

let fixture_run () =
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
    }
  in
  Ex.run opts Fixtures.program

let test_telemetry_consistent () =
  let r = fixture_run () in
  let sched = r.Ex.sched in
  (* a two-way fork retires the parent and mints two children, so the leaf
     count — states that reach a terminal status — is forks + 1 *)
  check Alcotest.int "every leaf state completes"
    (Stdlib.( + ) sched.Stats.forks 1)
    (Stdlib.( + ) sched.Stats.states_completed sched.Stats.states_dropped);
  check Alcotest.int "solver query count matches headline stats"
    r.Ex.stats.Ex.solver_calls sched.Stats.solver_queries;
  match sched.Stats.cache with
  | None -> Alcotest.fail "memo stats missing"
  | Some c ->
    check Alcotest.int "solves are the memo's misses" c.Cache.misses sched.Stats.solver_solves;
    check Alcotest.bool "fewer solves than queries" true
      (sched.Stats.solver_solves < sched.Stats.solver_queries)

(* ------------------------------------------------------------------ *)
(* The memo against the direct solver                                  *)
(* ------------------------------------------------------------------ *)

let var name lo hi = E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Config }
let qa = var "qa" 0 1
let qb = var "qb" 0 7
let qc = var "qc" 0 7

let memo () = Cache.create ~max_nodes:4_000 ()
let feasible cache cs = Cache.is_feasible cache cs

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
  (* one memo across the whole run, so later queries hit the entries and
     models stored by earlier ones; each verdict must still agree with a
     fresh direct solve *)
  let cache = memo () in
  QCheck2.Test.make ~name:"cached verdicts match the direct solver" ~count:300
    query_gen (fun cs ->
      let direct = Solver.check ~max_nodes:4_000 cs in
      let feas = feasible cache cs in
      let model = Cache.check_model cache cs in
      let same_verdict =
        match direct with
        | Solver.Sat _ | Solver.Unknown -> feas
        | Solver.Unsat -> not feas
      in
      same_verdict && model = direct)

(* Sequences of queries through one memo, over bool, enum and int
   variables.  Each query is drawn from a small pool of conjunctions —
   repeated, permuted, extended by one atom or joined with another — so
   exact hits and counterexample probes both fire.  The int variables'
   domains are too large to enumerate, so a small node budget leaves some
   queries [Unknown]. *)
let flag = E.{ name = "m_flag"; dom = Vsmt.Dom.bool; origin = Config }
let mode =
  E.{ name = "m_mode"; dom = Vsmt.Dom.enum "mode" [ "off"; "on"; "auto"; "max" ]; origin = Config }
let size = var "m_size" 0 1000
let count = var "m_count" 0 1000

let memo_atom_gen =
  QCheck2.Gen.(
    let open E in
    let cmp = oneofl [ ( ==. ); ( <>. ); ( <. ); ( >. ); ( <=. ); ( >=. ) ] in
    oneof
      [
        (int_range 0 1 >>= fun k -> cmp >>= fun op -> return (op (of_var flag) (const k)));
        (int_range 0 3 >>= fun k -> cmp >>= fun op -> return (op (of_var mode) (const k)));
        (oneofl [ size; count ] >>= fun x -> cmp >>= fun op ->
         oneofl [ 0; 1; 7; 64; 500; 999; 1000 ] >>= fun k -> return (op (of_var x) (const k)));
        (cmp >>= fun op -> oneofl [ 3; 250; 1001; 1500 ] >>= fun k ->
         return (op (binop Add (of_var size) (of_var count)) (const k)));
        (oneofl [ size; count ] >>= fun x -> int_range 0 3 >>= fun k ->
         return (binop Add (of_var mode) (of_var x) ==. const (k + 7)));
      ])

type memo_op = { feasibility : bool; conj : E.t list }

let memo_case_gen =
  QCheck2.Gen.(
    oneofl [ 4; 40; 4_000 ] >>= fun max_nodes ->
    list_size (int_range 2 4) (list_size (int_range 1 3) memo_atom_gen) >>= fun pool ->
    let pick = int_range 0 (List.length pool - 1) >|= List.nth pool in
    let conj =
      oneof
        [
          pick;
          pick >|= List.rev;
          (pick >>= fun c -> memo_atom_gen >|= fun a -> c @ [ a ]);
          (pick >>= fun c -> pick >|= fun d -> d @ c);
        ]
    in
    list_size (int_range 4 14) (pair bool conj) >|= fun ops ->
    (max_nodes, List.map (fun (feasibility, conj) -> { feasibility; conj }) ops))

let print_memo_case (max_nodes, ops) =
  Printf.sprintf "max_nodes=%d\n%s" max_nodes
    (String.concat "\n"
       (List.map
          (fun op ->
            (if op.feasibility then "is_feasible " else "check_model ")
            ^ String.concat " && " (List.map E.to_string op.conj))
          ops))

let prop_memo_equals_fresh_solve =
  QCheck2.Test.make ~name:"memo answers equal fresh solves" ~count:200 ~print:print_memo_case
    memo_case_gen (fun (max_nodes, ops) ->
      let cache = Cache.create ~max_nodes () in
      List.for_all
        (fun op ->
          if op.feasibility then
            Cache.is_feasible cache op.conj = Solver.is_feasible ~max_nodes op.conj
          else Cache.check_model cache op.conj = Solver.check ~max_nodes op.conj)
        ops)

let test_cache_hits_accumulate () =
  let cache = memo () in
  let cs = E.[ of_var qb >. const 3; of_var qb <. const 6 ] in
  ignore (feasible cache cs);
  ignore (feasible cache cs);
  (* a superset of a satisfiable set: served by the counterexample probe
     without a new solve, since the stored model satisfies it *)
  ignore (feasible cache (E.(of_var qc <=. const 4) :: cs));
  let s = Cache.stats cache in
  check Alcotest.int "lookups" 3 s.Cache.lookups;
  check Alcotest.int "exact hit" 1 s.Cache.exact_hits;
  check Alcotest.int "counterexample hit" 1 s.Cache.cex_hits;
  check Alcotest.int "one solve" 1 s.Cache.misses;
  check Alcotest.bool "rate" true (Cache.hit_rate s > 0.);
  let unsat = E.[ of_var qb >. const 5; of_var qb <. const 3 ] in
  check Alcotest.bool "unsat" false (feasible cache unsat);
  check Alcotest.bool "superset unsat" false
    (feasible cache (E.(of_var qa ==. const 1) :: unsat))

(* regression: entries are keyed on the sorted constraint set, so a permuted
   path condition is the same query — an exact hit, identical verdict and
   model, no new solve *)
let test_cache_key_order_insensitive () =
  let cache = memo () in
  let cs = E.[ of_var qb >. const 3; of_var qa ==. const 1; of_var qc <. const 5 ] in
  let direct = Cache.check_model cache cs in
  let s0 = Cache.stats cache in
  let permuted = [ List.nth cs 2; List.nth cs 0; List.nth cs 1 ] in
  let again = Cache.check_model cache permuted in
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

(* ------------------------------------------------------------------ *)
(* Lookup accounting                                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_counts_each_query () =
  let c = memo () in
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

let tests =
  [
    tc "telemetry consistent" test_telemetry_consistent;
    QCheck_alcotest.to_alcotest prop_cache_matches_solver;
    QCheck_alcotest.to_alcotest prop_memo_equals_fresh_solve;
    tc "cache hit counters" test_cache_hits_accumulate;
    tc "cache keys ignore constraint order" test_cache_key_order_insensitive;
    tc "cache counts each query once" test_cache_counts_each_query;
  ]
