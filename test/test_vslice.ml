(* Tests for the independence-slicing layer (DESIGN.md Section 5f):
   footprint and partition primitives, the headline soundness/determinism
   properties — sliced verdicts match full-query verdicts, composed
   per-slice models satisfy the full conjunction, and the end-to-end impact
   model is byte-identical with slicing on or off at any job count — plus
   the bounded-memo contracts of the expression-level caches. *)

module E = Vsmt.Expr
module F = Vsmt.Footprint
module P = Vsmt.Partition
module Solver = Vsmt.Solver
open Vir.Builder

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest

let cvar name lo hi = E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Config }
let wvar name lo hi = E.{ name; dom = Vsmt.Dom.int_range lo hi; origin = Workload }
let qa = cvar "qa" 0 1
let qb = cvar "qb" 0 7
let qc = cvar "qc" 0 7
let wk = wvar "wk" 0 7

(* ------------------------------------------------------------------ *)
(* Footprint                                                           *)
(* ------------------------------------------------------------------ *)

let test_footprint_of_expr () =
  let f = F.of_expr E.(binop Add (of_var qa) (of_var qb) >. const 3) in
  check Alcotest.int "two symbols" 2 (Array.length (f :> int array));
  check Alcotest.bool "const is empty" true (F.is_empty (F.of_expr (E.const 5)));
  (* memoized per hash-consed node: same node, same (physical) footprint *)
  let e = E.(of_var qc <. const 4) in
  check Alcotest.bool "memo hit is physical" true (F.of_expr e == F.of_expr e)

let test_footprint_set_ops () =
  let ids (f : F.t) = Array.to_list (f :> int array) in
  let fa = F.of_expr E.(of_var qa ==. const 1) in
  let fb = F.of_expr E.(of_var qb >. const 2) in
  let fab = F.of_expr E.(of_var qa +. of_var qb ==. const 3) in
  check Alcotest.(list int) "union equals joint" (ids fab) (ids (F.union fa fb));
  check Alcotest.(list int) "union is symmetric" (ids fab) (ids (F.union fb fa));
  check Alcotest.(list int) "union with a subset" (ids fab) (ids (F.union fab fa));
  check Alcotest.(list int) "empty is neutral" (ids fa) (ids (F.union F.empty fa))

let test_footprint_origins () =
  let f = F.union (F.of_expr E.(of_var qa ==. const 1)) (F.of_expr E.(of_var wk >. const 2)) in
  check Alcotest.bool "has config" true (F.exists_origin E.Config f);
  check Alcotest.bool "has workload" true (F.exists_origin E.Workload f);
  check Alcotest.bool "not all workload" false (F.for_all_origin E.Workload f);
  let fw = F.of_expr E.(of_var wk <. const 5) in
  check Alcotest.bool "all workload" true (F.for_all_origin E.Workload fw)

let test_footprint_memo_bounded () =
  F.set_memo_cap 1024;
  Fun.protect
    ~finally:(fun () -> F.set_memo_cap (1 lsl 17))
    (fun () ->
      for k = 0 to 2_999 do
        ignore (F.of_expr E.(of_var qb +. const (k * 16) >. const k))
      done;
      check Alcotest.bool "memo stays within cap" true (F.memo_size () <= 1024);
      F.clear_memo ();
      check Alcotest.int "clear empties" 0 (F.memo_size ()))

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let slice_ids part = List.map (fun (cs, _) -> List.map E.id cs) (P.slices part)

let test_partition_disjoint_and_merge () =
  let a = E.(of_var qa ==. const 1) in
  let b = E.(of_var qb >. const 2) in
  let mix = E.(of_var qa +. of_var qb <. const 6) in
  let p2 = P.of_list [ a; b ] in
  check Alcotest.int "two disjoint slices" 2 (P.n_slices p2);
  check Alcotest.int "count" 2 (P.count p2);
  let p1 = P.of_list [ a; b; mix ] in
  check Alcotest.int "bridge constraint merges" 1 (P.n_slices p1);
  (* canonical slice order = earliest constraint position *)
  check
    Alcotest.(list (list int))
    "slices keep path order"
    [ [ E.id a ]; [ E.id b ] ]
    (slice_ids p2)

let test_partition_extend_matches_rebuild () =
  let cs =
    E.[
      of_var qa ==. const 1;
      of_var qb >. const 2;
      of_var wk <. const 5;
      of_var qb <. const 7;
    ]
  in
  let rec prefixes acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let prev = match acc with [] -> [] | p :: _ -> p in
      prefixes ((prev @ [ c ]) :: acc) rest
  in
  ignore
    (List.fold_left
       (fun part pfx ->
         let part = P.extend part pfx in
         check
           Alcotest.(list (list int))
           "incremental = rebuild" (slice_ids (P.of_list pfx)) (slice_ids part);
         part)
       P.empty (prefixes [] cs))

let test_partition_relevant () =
  let a = E.(of_var qa ==. const 1) in
  let b = E.(of_var qb >. const 2) in
  let w = E.(of_var wk <. const 5) in
  let part = P.of_list [ a; b; w ] in
  check
    Alcotest.(list int)
    "only the touching slice" [ E.id a ]
    (List.map E.id (P.relevant part (F.of_expr E.(of_var qa <>. const 0))));
  check
    Alcotest.(list int)
    "two touching slices, path order" [ E.id a; E.id w ]
    (List.map E.id
       (P.relevant part
          (F.union (F.of_expr E.(of_var qa ==. const 0)) (F.of_expr E.(of_var wk ==. const 1)))));
  check
    Alcotest.(list int)
    "foreign symbol touches nothing" []
    (List.map E.id (P.relevant part (F.of_expr E.(of_var qc ==. const 3))))

let test_partition_falsified () =
  let part = P.of_list E.[ of_var qa ==. const 1; fls ] in
  check Alcotest.bool "falsified" true (P.falsified part);
  check
    Alcotest.(list int)
    "relevant collapses to false" [ E.id E.fls ]
    (List.map E.id (P.relevant part (F.of_expr E.(of_var qb ==. const 0))));
  (* trivially-true constants are dropped, not sliced ([count] still
     counts source positions, so it stays 2) *)
  let part = P.of_list E.[ tru; of_var qb >. const 1 ] in
  check Alcotest.int "true dropped from slices" 1 (P.n_slices part);
  check Alcotest.int "source positions counted" 2 (P.count part);
  check Alcotest.bool "clean" true (P.clean part)

(* ------------------------------------------------------------------ *)
(* Properties: sliced solving is sound and deterministic               *)
(* ------------------------------------------------------------------ *)

let atom_gen =
  QCheck2.Gen.(
    let open E in
    let v = oneofl [ qa; qb; qc; wk ] in
    let cmp = oneofl [ ( ==. ); ( <>. ); ( <. ); ( >. ); ( <=. ); ( >=. ) ] in
    oneof
      [
        (v >>= fun x -> cmp >>= fun op -> int_range 0 8 >>= fun k ->
         return (op (of_var x) (const k)));
        (v >>= fun x -> v >>= fun y -> cmp >>= fun op -> int_range 0 12 >>= fun k ->
         return (op (binop Add (of_var x) (of_var y)) (const k)));
      ])

let query_gen = QCheck2.Gen.(list_size (int_range 0 6) atom_gen)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat | Solver.Unknown -> false

(* The domains are tiny, so a 4k-node budget is decisive: no Unknowns, and
   the per-slice/full-query verdicts must agree exactly. *)
let prop_sliced_verdict_matches_full =
  QCheck2.Test.make ~name:"per-slice verdicts compose to the full-query verdict"
    ~count:300 query_gen (fun cs ->
      let full = is_sat (Solver.check ~max_nodes:4_000 cs) in
      let part = P.of_list cs in
      let sliced =
        (not (P.falsified part))
        && List.for_all
             (fun (slice, _) -> is_sat (Solver.check ~max_nodes:4_000 slice))
             (P.slices part)
      in
      full = sliced)

let prop_composed_model_satisfies_conjunction =
  QCheck2.Test.make ~name:"composed per-slice models satisfy the full conjunction"
    ~count:300 query_gen (fun cs ->
      let part = P.of_list cs in
      if P.falsified part then true
      else begin
        let per_slice =
          List.map (fun (slice, _) -> Solver.check ~max_nodes:4_000 slice) (P.slices part)
        in
        if List.exists (fun r -> not (is_sat r)) per_slice then true
        else begin
          let model =
            List.concat_map
              (function Solver.Sat m -> m | Solver.Unsat | Solver.Unknown -> [])
              per_slice
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          let vars = List.sort_uniq compare (List.concat_map E.vars cs) in
          let model = Solver.complete ~vars model in
          List.for_all (fun c -> Solver.eval_in model c = Some 1) cs
        end
      end)

(* ------------------------------------------------------------------ *)
(* End-to-end: impact model byte-identical, slicing on/off x jobs 1/4  *)
(* ------------------------------------------------------------------ *)

let registry =
  Vruntime.Config_registry.(
    make ~system:"slice"
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
    [ fsync; compute (i 50); buffered_write (i 1024); net_send (i 128) ]

let block_gen =
  QCheck2.Gen.(
    let leaf = oneof [ prim_gen; return (call "helper" []) ] in
    let rec block depth =
      let stmt =
        if depth = 0 then leaf
        else
          oneof
            [
              leaf;
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
           func "main" [ if_ (cfg "a" ==. i 1) then_block else_block; ret_void ];
           func "helper" [ compute (i 20); fsync; ret_void ];
         ]))

let model_for ~slice ~jobs program =
  let target =
    { Violet.Pipeline.name = "slice"; program; registry; workloads = [ workload ] }
  in
  let opts = { Violet.Pipeline.default_options with Violet.Pipeline.slice; jobs } in
  match Violet.Pipeline.analyze ~opts target "a" with
  | Ok a -> Vmodel.Impact_model.content_string a.Violet.Pipeline.model
  | Error e -> "error: " ^ Violet.Pipeline.error_to_string e

let prop_slice_model_identity =
  QCheck2.Test.make
    ~name:"impact model byte-identical: slicing on/off x jobs 1/4" ~count:15
    program_gen (fun program ->
      let reference = model_for ~slice:false ~jobs:1 program in
      String.equal reference (model_for ~slice:true ~jobs:1 program)
      && String.equal reference (model_for ~slice:true ~jobs:4 program)
      && String.equal reference (model_for ~slice:false ~jobs:4 program))

(* ------------------------------------------------------------------ *)
(* Bounded memo tables (PR 3 follow-up) + telemetry surfacing          *)
(* ------------------------------------------------------------------ *)

let test_simplify_memo_bounded () =
  Vsmt.Simplify.set_memo_cap 1024;
  Fun.protect
    ~finally:(fun () -> Vsmt.Simplify.set_memo_cap (1 lsl 18))
    (fun () ->
      for k = 0 to 2_999 do
        ignore (Vsmt.Simplify.simplify E.(of_var qb +. const (k * 32) >. const (k + 1)))
      done;
      check Alcotest.bool "memo stays within cap" true
        (Vsmt.Simplify.memo_size () <= 1024);
      Vsmt.Simplify.clear_memo ();
      check Alcotest.int "clear empties" 0 (Vsmt.Simplify.memo_size ()))

let test_query_sizes_in_stats () =
  let target =
    {
      Violet.Pipeline.name = "slice";
      program =
        program ~name:"gen" ~entry:"main"
          [ func "main" [ if_ (cfg "a" ==. i 1) [ fsync ] [ compute (i 5) ]; ret_void ] ];
      registry;
      workloads = [ workload ];
    }
  in
  match Violet.Pipeline.analyze ~opts:Violet.Pipeline.default_options target "a" with
  | Error e -> Alcotest.fail (Violet.Pipeline.error_to_string e)
  | Ok a ->
    (* query-size telemetry flows end to end: something was sent, nothing
       more than the classical full queries *)
    let sched = a.Violet.Pipeline.result.Vsymexec.Executor.sched in
    let q = sched.Vsched.Exploration_stats.query_sizes in
    check Alcotest.bool "queries recorded" true
      (q.Vsched.Exploration_stats.pre_constraints > 0);
    check Alcotest.bool "sent <= pre" true
      (q.Vsched.Exploration_stats.sent_constraints
     <= q.Vsched.Exploration_stats.pre_constraints)

(* A run's exploration record counts that run's own events: interning and
   rendering unrelated expressions between two analyses changes nothing
   but the wall clock. *)
let test_stats_ignore_process_history () =
  let target = Targets.Cases.target_of "mysql" in
  let sched () =
    let a = Violet.Pipeline.analyze_exn target "autocommit" in
    let sched = a.Violet.Pipeline.result.Vsymexec.Executor.sched in
    { sched with Vsched.Exploration_stats.wall_time_s = 0. }
  in
  let first = sched () in
  let x = cvar "history_x" 0 1_000_000 in
  for k = 0 to 49_999 do
    ignore (E.to_string E.(of_var x >. const k))
  done;
  let stats = Alcotest.testable Vsched.Exploration_stats.pp ( = ) in
  check stats "same record after 50,000 unrelated expressions" first (sched ())

let tests =
  [
    tc "footprint of_expr collects symbols" test_footprint_of_expr;
    tc "footprint set operations" test_footprint_set_ops;
    tc "footprint origin queries" test_footprint_origins;
    tc "footprint memo is bounded" test_footprint_memo_bounded;
    tc "partition: disjoint slices, bridging merge" test_partition_disjoint_and_merge;
    tc "partition: extend matches rebuild" test_partition_extend_matches_rebuild;
    tc "partition: relevant selects touching slices" test_partition_relevant;
    tc "partition: falsified and trivial constraints" test_partition_falsified;
    qt prop_sliced_verdict_matches_full;
    qt prop_composed_model_satisfies_conjunction;
    qt prop_slice_model_identity;
    tc "simplify memo is bounded" test_simplify_memo_bounded;
    tc "query sizes surface in telemetry" test_query_sizes_in_stats;
    tc "exploration record ignores process history" test_stats_ignore_process_history;
  ]
