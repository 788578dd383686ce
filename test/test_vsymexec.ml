(* Tests for the symbolic executor: forking, path constraints, selective
   concretization, signals, tracing control and scheduling. *)

module Ex = Vsymexec.Executor
module S = Vsymexec.Sym_state
module Sig = Vsymexec.Signals
module E = Vsmt.Expr
module Cost = Vruntime.Cost
open Vir.Builder

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let env = Vruntime.Hw_env.hdd_server

let run ?(sym_configs = []) ?(sym_workloads = []) ?(config = fun _ -> 0)
    ?(workload = fun _ -> 0) ?(tweak = fun o -> o) p =
  let opts =
    tweak
      { (Ex.default_options ~env ~config ~workload ()) with Ex.sym_configs; sym_workloads }
  in
  Ex.run opts p

let bool_var name = name, E.{ name; dom = Vsmt.Dom.bool; origin = Config }
let int_var name lo hi = name, E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Config }

let terminated (r : Ex.result) =
  List.filter
    (fun (st : S.t) -> match st.S.status with S.Terminated _ -> true | _ -> false)
    r.Ex.states

(* ------------------------------------------------------------------ *)

let fork_program =
  program ~name:"fork" ~entry:"main"
    [
      func "main"
        [ if_ (cfg "flag" ==. i 1) [ fsync ] [ compute (i 10) ]; ret (cfg "flag") ];
    ]

let test_concrete_matches_native () =
  (* with no symbolic variables the engine follows exactly the concrete path
     and accrues the same logical cost vector as native execution *)
  let r = run ~config:(fun _ -> 1) fork_program in
  let st = match terminated r with [ st ] -> st | _ -> Alcotest.fail "one state" in
  let native =
    Vruntime.Concrete_exec.run ~env fork_program ~config:(fun _ -> 1) ~workload:(fun _ -> 0)
  in
  check Alcotest.int "syscalls" native.Vruntime.Concrete_exec.cost.Cost.syscalls
    st.S.cost.Cost.syscalls;
  check Alcotest.int "io" native.Vruntime.Concrete_exec.cost.Cost.io_calls
    st.S.cost.Cost.io_calls

let test_fork_on_symbolic () =
  let r = run ~sym_configs:[ bool_var "flag" ] fork_program in
  let sts = terminated r in
  check Alcotest.int "two states" 2 (List.length sts);
  check Alcotest.int "one fork" 1 r.Ex.stats.Ex.forks;
  (* the two path conditions are complementary: together they cover the
     domain and are mutually exclusive *)
  match sts with
  | [ a; b ] ->
    check Alcotest.bool "both sat" true
      (Vsmt.Solver.is_feasible a.S.pc && Vsmt.Solver.is_feasible b.S.pc);
    check Alcotest.bool "mutually exclusive" false
      (Vsmt.Solver.is_feasible (a.S.pc @ b.S.pc))
  | _ -> Alcotest.fail "expected two states"

let test_costs_differ_across_paths () =
  let r = run ~sym_configs:[ bool_var "flag" ] fork_program in
  let costs =
    List.map (fun (st : S.t) -> st.S.cost.Cost.latency_us) (terminated r)
    |> List.sort Float.compare
  in
  match costs with
  | [ cheap; pricey ] -> check Alcotest.bool "fsync path slower" true (pricey > Stdlib.( *. ) 10. cheap)
  | _ -> Alcotest.fail "two costs"

let test_infeasible_pruned () =
  let p =
    program ~name:"p" ~entry:"main"
      [
        func "main"
          [
            if_ (cfg "n" >. i 5)
              [ if_ (cfg "n" <. i 3) [ fsync ] [] ]  (* dead inner branch *)
              [];
            ret_void;
          ];
      ]
  in
  let r = run ~sym_configs:[ int_var "n" 0 10 ] p in
  check Alcotest.int "two states, dead path pruned" 2 (List.length (terminated r));
  check Alcotest.bool "no fsync anywhere" true
    (List.for_all (fun (st : S.t) -> st.S.cost.Cost.io_calls = 0) (terminated r))

let test_nested_forks () =
  let p =
    program ~name:"p" ~entry:"main"
      [
        func "main"
          [
            if_ (cfg "a" ==. i 1) [ compute (i 1) ] [ compute (i 2) ];
            if_ (cfg "b" ==. i 1) [ compute (i 3) ] [ compute (i 4) ];
            ret_void;
          ];
      ]
  in
  let r = run ~sym_configs:[ bool_var "a"; bool_var "b" ] p in
  check Alcotest.int "four states" 4 (List.length (terminated r))

let test_max_states_cap () =
  let p =
    program ~name:"p" ~entry:"main"
      [
        func "main"
          [
            if_ (cfg "a" ==. i 1) [] [];
            if_ (cfg "b" ==. i 1) [] [];
            if_ (cfg "c" ==. i 1) [] [];
            ret_void;
          ];
      ]
  in
  let r =
    run
      ~sym_configs:[ bool_var "a"; bool_var "b"; bool_var "c" ]
      ~tweak:(fun o ->
        { o with Ex.budget = Vresilience.Budget.with_max_states o.Ex.budget 4 })
      p
  in
  check Alcotest.bool "capped" true (List.length (terminated r) <= 4)

let test_loop_unroll_limit () =
  let p =
    program ~name:"p" ~entry:"main"
      [
        func "main"
          [
            set "i" (i 0);
            while_ (lv "i" <. cfg "n") [ set "i" (lv "i" +. i 1) ];
            ret (lv "i");
          ];
      ]
  in
  (* n in [0..1000] but unrolling stops at the bound: states for n=0..limit
     plus one forced-exit state; nothing diverges *)
  let r =
    run ~sym_configs:[ int_var "n" 0 1000 ] ~tweak:(fun o -> { o with Ex.max_loop_unroll = 5 }) p
  in
  check Alcotest.bool "terminates" true (terminated r <> []);
  check Alcotest.bool "bounded states" true (List.length r.Ex.states <= 8)

(* ------------------------------------------------------------------ *)
(* Selective concretization (Section 5.4)                              *)
(* ------------------------------------------------------------------ *)

let lib_program effect =
  program ~name:"p" ~entry:"main"
    [
      func "main" [ call ~dest:"r" "libfn" [ cfg "x" ]; ret (lv "r") ];
      library "libfn" ~effect ~cost:[ Compute, 5 ] (fun args ->
          match args with [ v ] -> v * 10 | _ -> 0);
    ]

let final_pc (r : Ex.result) =
  match terminated r with [ st ] -> st.S.pc | _ -> Alcotest.fail "one state"

let final_ret (r : Ex.result) =
  match terminated r with
  | [ { S.status = S.Terminated (Some e); _ } ] -> e
  | _ -> Alcotest.fail "one returning state"

let test_effectful_concretizes_with_constraint () =
  let r = run ~sym_configs:[ int_var "x" 0 9 ] (lib_program Vir.Ast.Effectful) in
  (* silent concretization pins x: the path constraint records x == model *)
  let pc = final_pc r in
  check Alcotest.bool "constraint added" true (pc <> []);
  check Alcotest.bool "pins x" true
    (List.exists (fun c -> List.exists (fun (v : E.var) -> v.E.name = "x") (E.vars c)) pc);
  match E.is_const (final_ret r) with
  | Some v -> check Alcotest.int "semantics on pinned value" 0 (v mod 10)
  | None -> Alcotest.fail "return should be concrete"

let test_benign_drops_constraint () =
  let r = run ~sym_configs:[ int_var "x" 0 9 ] (lib_program Vir.Ast.Benign) in
  check Alcotest.bool "no constraint kept" true (final_pc r = []);
  check Alcotest.bool "return concrete" true (E.is_const (final_ret r) <> None)

let test_pure_returns_fresh_symbol () =
  let r = run ~sym_configs:[ int_var "x" 0 9 ] (lib_program Vir.Ast.Pure) in
  check Alcotest.bool "no constraint" true (final_pc r = []);
  match E.view (final_ret r) with
  | E.Var v -> check Alcotest.bool "internal origin" true (v.E.origin = E.Internal)
  | _ -> Alcotest.fail "expected a fresh symbolic return"

let test_relaxation_ablation () =
  (* with relaxation rules off, even a Pure library pins its arguments *)
  let r =
    run ~sym_configs:[ int_var "x" 0 9 ]
      ~tweak:(fun o -> { o with Ex.relaxation_rules = false })
      (lib_program Vir.Ast.Pure)
  in
  check Alcotest.bool "constraint kept" true (final_pc r <> [])

let test_concretize_all_taint () =
  (* x tainted y through an assignment; concretizing x must concretize y *)
  let p =
    program ~name:"p" ~entry:"main"
      [
        func "main"
          [
            set "y" (cfg "x" +. i 1);
            call "sideeffect" [ cfg "x" ];
            ret (lv "y");
          ];
        library "sideeffect" ~effect:Effectful (fun _ -> 0);
      ]
  in
  let r = run ~sym_configs:[ int_var "x" 0 9 ] p in
  check Alcotest.bool "tainted local concretized" true (E.is_const (final_ret r) <> None)

(* ------------------------------------------------------------------ *)
(* Signals and tracing                                                 *)
(* ------------------------------------------------------------------ *)

let traced_program =
  program ~name:"p" ~entry:"main"
    [
      func "main" [ call "init" []; trace_on; call "work" []; trace_off; ret_void ];
      func "init" [ compute (i 1000); ret_void ];
      func "work" [ call "leaf" []; ret_void ];
      func "leaf" [ fsync; ret_void ];
    ]

let test_tracing_window () =
  let r = run traced_program in
  let st = match terminated r with [ st ] -> st | _ -> Alcotest.fail "one state" in
  let names =
    List.filter_map
      (fun (s : Sig.record) -> if Sig.is_call s then Some s.Sig.fname else None)
      (S.signals_in_order st)
  in
  (* init happens before trace_on: not recorded; main's call signal happened
     before trace_on too *)
  check (Alcotest.list Alcotest.string) "only traced calls" [ "work"; "leaf" ] names

let test_signals_well_nested () =
  let r = run traced_program in
  let st = match terminated r with [ st ] -> st | _ -> Alcotest.fail "one state" in
  let depth = ref 0 and ok = ref true and max_depth = ref 0 in
  List.iter
    (fun (s : Sig.record) ->
      if Sig.is_call s then begin
        incr depth;
        max_depth := max !max_depth !depth
      end
      else begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    (S.signals_in_order st);
  check Alcotest.bool "nested" true !ok;
  check Alcotest.int "balanced" 0 !depth;
  check Alcotest.int "depth two" 2 !max_depth

let test_cids_strictly_increasing () =
  let r = run traced_program in
  let st = match terminated r with [ st ] -> st | _ -> Alcotest.fail "one state" in
  let cids = List.map (fun (s : Sig.record) -> s.Sig.cid) (S.signals_in_order st) in
  check Alcotest.bool "increasing" true
    (List.for_all2 (fun a b -> a < b)
       (List.filteri (fun i _ -> i < List.length cids - 1) cids)
       (List.tl cids))

let test_tracer_disabled () =
  let r = run ~tweak:(fun o -> { o with Ex.enable_tracer = false }) traced_program in
  let st = match terminated r with [ st ] -> st | _ -> Alcotest.fail "one state" in
  check Alcotest.int "no signals" 0 (List.length st.S.signals)

let test_clock_inflated_by_overhead () =
  let r = run ~config:(fun _ -> 1) fork_program in
  let st = match terminated r with [ st ] -> st | _ -> Alcotest.fail "one state" in
  (* clock ~ overhead x native latency (plus tracer costs) *)
  check Alcotest.bool "inflated" true
    (st.S.clock >= Stdlib.( *. ) st.S.cost.Cost.latency_us (Stdlib.( -. ) env.Vruntime.Hw_env.symexec_overhead 0.01))

(* ------------------------------------------------------------------ *)
(* Scheduling and determinism                                          *)
(* ------------------------------------------------------------------ *)

let three_way =
  program ~name:"p" ~entry:"main"
    [
      func "main"
        [
          if_ (cfg "a" ==. i 1) [ compute (i 1) ] [];
          if_ (cfg "b" ==. i 1) [ compute (i 2) ] [];
          ret_void;
        ];
    ]

let test_state_switch_cost () =
  let go switching =
    let r =
      run
        ~sym_configs:[ bool_var "a"; bool_var "b" ]
        ~tweak:(fun o -> { o with Ex.state_switching = switching })
        three_way
    in
    List.fold_left (fun acc (st : S.t) -> Stdlib.( +. ) acc st.S.clock) 0. (terminated r)
  in
  check Alcotest.bool "switching adds clock" true (go true > go false)

let test_noise_deterministic () =
  let go () =
    let r =
      run ~config:(fun _ -> 1)
        ~tweak:(fun o ->
          {
            o with
            Ex.noise =
              Some { Ex.jitter = 0.2; signal_delay_prob = 0.; signal_delay_us = 0.; seed = 5 };
          })
        fork_program
    in
    (List.hd (terminated r)).S.cost.Cost.latency_us
  in
  check (Alcotest.float 1e-9) "same seed, same jitter" (go ()) (go ());
  let base =
    (List.hd (terminated (run ~config:(fun _ -> 1) fork_program))).S.cost.Cost.latency_us
  in
  check Alcotest.bool "jitter changes latency" true (Float.abs (Stdlib.( -. ) (go ()) base) > 1e-9)

let test_stuck_states_killed () =
  let p =
    program ~name:"p" ~entry:"main" [ func "main" [ set "x" (lv "nope"); ret_void ] ]
  in
  let r = run p in
  check Alcotest.int "killed" 1 r.Ex.stats.Ex.states_killed;
  match r.Ex.states with
  | [ { S.status = S.Killed reason; _ } ] ->
    check Alcotest.bool "reason mentions local" true
      (String.length reason > 0)
  | _ -> Alcotest.fail "one killed state"

let tests =
  [
    tc "concrete run matches native costs" test_concrete_matches_native;
    tc "fork on symbolic branch" test_fork_on_symbolic;
    tc "path costs differ" test_costs_differ_across_paths;
    tc "infeasible paths pruned" test_infeasible_pruned;
    tc "nested forks" test_nested_forks;
    tc "max states cap" test_max_states_cap;
    tc "loop unroll limit" test_loop_unroll_limit;
    tc "effectful lib concretizes + constraint" test_effectful_concretizes_with_constraint;
    tc "benign lib drops constraint" test_benign_drops_constraint;
    tc "pure lib returns fresh symbol" test_pure_returns_fresh_symbol;
    tc "relaxation ablation" test_relaxation_ablation;
    tc "concretizeAll taints" test_concretize_all_taint;
    tc "tracing window" test_tracing_window;
    tc "signals well nested" test_signals_well_nested;
    tc "cids increasing" test_cids_strictly_increasing;
    tc "tracer disabled" test_tracer_disabled;
    tc "clock inflated" test_clock_inflated_by_overhead;
    tc "state switch cost" test_state_switch_cost;
    tc "noise deterministic" test_noise_deterministic;
    tc "stuck states killed" test_stuck_states_killed;
  ]
