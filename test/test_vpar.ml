(* vpar: pool primitives, which spawn real domains even on a single-core
   machine ([Vpar.Pool.clamp_jobs] deliberately allows oversubscription),
   and the determinism contract of [--jobs N] — an analysis of a random
   program produces a byte-identical serialized impact model to
   [--jobs 1], including under an injected (manual-clock) deadline.  The
   whole analysis runs on the calling domain at any job count: the diff
   ignores [jobs]. *)

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

let test_map_array_propagates_exception () =
  match
    Vpar.Pool.map_array ~jobs:4 (fun x -> if x = 2 then failwith "boom" else x) (Array.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker failure to re-raise"
  | exception Failure msg -> check Alcotest.string "worker error surfaces" "boom" msg

let test_clamp_jobs () =
  check Alcotest.int "floor" 1 (Vpar.Pool.clamp_jobs 0);
  check Alcotest.int "floor negative" 1 (Vpar.Pool.clamp_jobs (-3));
  check Alcotest.int "identity" 4 (Vpar.Pool.clamp_jobs 4);
  check Alcotest.int "oversubscription allowed" 8 (Vpar.Pool.clamp_jobs 8);
  check Alcotest.int "absolute cap" 64 (Vpar.Pool.clamp_jobs 10_000)

(* every fork in the repo (fleet supervisor, fuzz oracle, forked test
   daemons) refuses or skips on this flag, so a spawn must set it for good *)
let test_spawned_domains_sticky () =
  ignore (Vpar.Pool.map_array ~jobs:2 Fun.id [| 1; 2 |]);
  check Alcotest.bool "set after a spawn" true (Vpar.Pool.spawned_domains ());
  ignore (Vpar.Pool.map_array ~jobs:1 Fun.id [| 1; 2 |]);
  check Alcotest.bool "still set after a jobs-1 map" true (Vpar.Pool.spawned_domains ())

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

let scenario_gen =
  QCheck2.Gen.(
    program_gen >>= fun program ->
    bool >>= fun fault_injection -> return (program, fault_injection))

(* Serialized impact model under a pinned manual clock, so the one
   legitimately wall-clock-dependent field ([analysis_wall_s]) is 0 in every
   run.  [deadline]: [None] = unlimited; [Some 0.] = pre-expired, the
   degenerate injected-deadline case both job counts must cut identically. *)
let model_for ~jobs ~deadline (program, fault_injection) =
  let clock () = 0. in
  let budget = B.with_clock (B.with_deadline B.default deadline) clock in
  let target = { Violet.Pipeline.name = "par"; program; registry; workloads = [ workload ] } in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.jobs;
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
      (* pre-expired: both job counts must drain the root identically *)
      String.equal
        (model_for ~jobs:1 ~deadline:(Some 0.) scenario)
        (model_for ~jobs:4 ~deadline:(Some 0.) scenario)
      (* far-off deadline on a manual clock: never fires, full run *)
      && String.equal
           (model_for ~jobs:1 ~deadline:(Some 1e9) scenario)
           (model_for ~jobs:4 ~deadline:(Some 1e9) scenario))

(* ------------------------------------------------------------------ *)
(* Canonical renumbering                                               *)
(* ------------------------------------------------------------------ *)

let analysis_for (program, fault_injection) =
  let clock () = 0. in
  let budget = B.with_clock B.default clock in
  let target = { Violet.Pipeline.name = "par"; program; registry; workloads = [ workload ] } in
  let opts =
    {
      Violet.Pipeline.default_options with
      Violet.Pipeline.jobs = 1;
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
    false )

(* The renumbering contract: the finished states are numbered 0..n-1 in
   fork-path order with lineage collapsed, whatever order they were
   explored in. *)
let test_deferred_renumbering () =
  match analysis_for fixed_scenario with
  | Error e -> Alcotest.fail (Violet.Pipeline.error_to_string e)
  | Ok a ->
    let states = a.Violet.Pipeline.result.Vsymexec.Executor.states in
    check Alcotest.bool "has states" true (states <> []);
    List.iteri
      (fun i (st : Vsymexec.Sym_state.t) ->
        check Alcotest.int "ids are 0..n-1 in order" i st.Vsymexec.Sym_state.id;
        check Alcotest.(option int) "lineage collapsed" None st.Vsymexec.Sym_state.parent)
      states;
    let paths =
      List.map
        (fun (st : Vsymexec.Sym_state.t) ->
          Vsymexec.Fork_path.to_string st.Vsymexec.Sym_state.path)
        states
    in
    check Alcotest.(list string) "states sorted by fork path" (List.sort String.compare paths)
      paths

(* the fuzz oracle forks; after a spawn it must refuse up front rather than
   fail inside a leg *)
let test_oracle_refuses_after_spawn () =
  ignore (Vpar.Pool.map_array ~jobs:2 Fun.id [| 1; 2 |]);
  match Vfuzz.Oracle.check (Vfuzz.Generate.spec ~seed:21 ~index:0 ()) with
  | _ -> Alcotest.fail "the oracle ran after a domain spawn"
  | exception Failure msg ->
    check Alcotest.string "a clear error"
      "Vfuzz.Oracle.check: cannot fork after spawning domains (fork is unsound)" msg

let qt = QCheck_alcotest.to_alcotest

let tests =
  [
    tc "map_array keeps input order" test_map_array_order;
    tc "worker exceptions propagate" test_map_array_propagates_exception;
    tc "clamp_jobs bounds" test_clamp_jobs;
    tc "spawned_domains stays set after a spawn" test_spawned_domains_sticky;
    qt prop_jobs_deterministic;
    qt prop_jobs_deterministic_under_deadline;
    tc "deferred renumbering yields canonical ids" test_deferred_renumbering;
    tc "fuzz oracle refuses to fork after a spawn" test_oracle_refuses_after_spawn;
  ]
