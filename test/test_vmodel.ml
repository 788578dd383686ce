(* Tests for the trace analyzer: cost rows, similarity, LCS, differential
   analysis with its comparability rules, and impact-model persistence. *)

module Row = Vmodel.Cost_row
module Diff = Vmodel.Diff_analysis
module CPth = Vmodel.Critical_path
module M = Vmodel.Impact_model
module E = Vsmt.Expr
module Cost = Vruntime.Cost

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let cvar name dom = E.{ name; dom; origin = Config }
let wvar name dom = E.{ name; dom; origin = Workload }

let flag = cvar "flag" Vsmt.Dom.bool
let size = cvar "size" (Vsmt.Dom.int_range 0 1000)
let kind = wvar "kind" (Vsmt.Dom.enum "kind" [ "R"; "W" ])

let row ?(id = 0) ?(configs = []) ?(workload = []) ?(latency = 100.) ?(cost = Cost.zero) () =
  {
    Row.state_id = id;
    config_constraints = configs;
    workload_pred = workload;
    cost = { cost with Cost.latency_us = latency };
    traced_latency_us = latency;
    chain = [];
    nodes = [];
    critical_ops = [];
  }

(* ------------------------------------------------------------------ *)
(* Cost_row                                                            *)
(* ------------------------------------------------------------------ *)

let test_satisfied_by () =
  let r = row ~configs:E.[ of_var flag ==. const 1; of_var size >. const 10 ] () in
  check Alcotest.bool "sat" true (Row.satisfied_by r [ "flag", 1; "size", 50 ]);
  check Alcotest.bool "unsat" false (Row.satisfied_by r [ "flag", 0; "size", 50 ]);
  (* an unassigned parameter is a free variable: satisfiable residual *)
  check Alcotest.bool "missing var leaves residual satisfiable" true
    (Row.satisfied_by r [ "flag", 1 ]);
  check Alcotest.bool "unsat residual" false
    (Row.satisfied_by (row ~configs:E.[ of_var size >. const 5000 ] ()) [])

let test_satisfied_by_mixed_constraint () =
  (* config constraints can mention workload vars (the c6 shape): the
     setting satisfies the row when the residual is satisfiable *)
  let r = row ~configs:E.[ binop Gt (of_var kind) (of_var size) ] () in
  (* kind in [0..1]: with size=0 residual kind>0 is satisfiable *)
  check Alcotest.bool "residual sat" true (Row.satisfied_by r [ "size", 0 ]);
  check Alcotest.bool "residual unsat" false (Row.satisfied_by r [ "size", 500 ])

let test_constraint_string () =
  let r = row ~configs:E.[ of_var flag ==. const 1 ] () in
  check Alcotest.string "friendly" "flag==ON" (Row.constraint_string r);
  check Alcotest.string "empty is true" "true" (Row.constraint_string (row ()))

(* ------------------------------------------------------------------ *)
(* Similarity                                                          *)
(* ------------------------------------------------------------------ *)

let test_similarity_counts () =
  let a = row ~configs:E.[ of_var flag ==. const 1; of_var size >. const 5 ] () in
  let b = row ~configs:E.[ of_var flag ==. const 1; of_var size >. const 7 ] () in
  check Alcotest.int "one shared appearance" 1 (Vmodel.Similarity.score a b);
  let c = row ~configs:E.[ of_var flag ==. const 1; of_var size >. const 5 ] () in
  check Alcotest.int "two shared" 2 (Vmodel.Similarity.score a c)

let test_rank_pairs_order () =
  (* most similar first, then ascending (i, j) input positions among equal
     similarities *)
  let a = row ~id:1 ~configs:E.[ of_var flag ==. const 1; of_var size >. const 5 ] () in
  let b =
    row ~id:2 ~configs:E.[ of_var flag ==. const 1; of_var size >. const 7 ] ~latency:1000. ()
  in
  let c = row ~id:3 ~configs:E.[ of_var size >. const 9 ] ~latency:1000. () in
  let d = row ~id:4 ~configs:E.[ of_var size >. const 11 ] ~latency:1000. () in
  let got =
    List.map
      (fun (p : Diff.poor_pair) ->
        (p.Diff.slow.Row.state_id, p.Diff.fast.Row.state_id, p.Diff.similarity))
      (Diff.analyze [ a; b; c; d ]).Diff.pairs
  in
  check
    Alcotest.(list (triple int int int))
    "(slow, fast, similarity)" [ (2, 1, 1); (3, 1, 0); (4, 1, 0) ] got

(* ------------------------------------------------------------------ *)
(* LCS                                                                 *)
(* ------------------------------------------------------------------ *)

let strings_gen = QCheck2.Gen.(list_size (int_range 0 30) (oneofl [ "a"; "b"; "c"; "d" ]))

let prop_lcs_is_common_subsequence =
  QCheck2.Test.make ~name:"lcs is a subsequence of both inputs" ~count:300
    QCheck2.Gen.(pair strings_gen strings_gen)
    (fun (xs, ys) ->
      let pairs = CPth.lcs xs ys in
      let increasing sel =
        let idxs = List.map sel pairs in
        List.for_all2 ( < )
          (List.filteri (fun i _ -> i < List.length idxs - 1) idxs)
          (match idxs with [] -> [] | _ :: t -> t)
      in
      let matches =
        List.for_all (fun (i, j) -> List.nth xs i = List.nth ys j) pairs
      in
      matches && increasing fst && increasing snd)

let prop_lcs_self =
  QCheck2.Test.make ~name:"lcs of a list with itself is the list" ~count:200 strings_gen
    (fun xs -> List.length (CPth.lcs xs xs) = List.length xs)

let test_lcs_example () =
  let pairs = CPth.lcs [ "a"; "b"; "c"; "d" ] [ "b"; "d" ] in
  check Alcotest.int "length 2" 2 (List.length pairs)

(* ------------------------------------------------------------------ *)
(* Diff_analysis                                                       *)
(* ------------------------------------------------------------------ *)

let test_threshold_boundary () =
  (* 100% threshold: 2x latency is not strictly above, 2.01x is *)
  let fast = row ~id:1 ~configs:E.[ of_var flag ==. const 0 ] ~latency:100. () in
  let at = row ~id:2 ~configs:E.[ of_var flag ==. const 1 ] ~latency:200. () in
  let above = row ~id:3 ~configs:E.[ of_var flag ==. const 1 ] ~latency:201. () in
  let d1 = Diff.analyze [ fast; at ] in
  check Alcotest.int "2x not flagged" 0 (List.length d1.Diff.pairs);
  let d2 = Diff.analyze [ fast; above ] in
  check Alcotest.int "2.01x flagged" 1 (List.length d2.Diff.pairs);
  check (Alcotest.list Alcotest.int) "poor state" [ 3 ] d2.Diff.poor_state_ids

let test_no_rows () =
  let d = Diff.analyze [] in
  check Alcotest.int "no pairs" 0 (List.length d.Diff.pairs);
  check (Alcotest.list Alcotest.int) "no poor states" [] d.Diff.poor_state_ids

let test_equal_config_sets_not_compared () =
  (* same configuration constraints: the difference is input-driven *)
  let a = row ~id:1 ~configs:E.[ of_var flag ==. const 1 ]
      ~workload:E.[ of_var kind ==. const 0 ] ~latency:100. () in
  let b = row ~id:2 ~configs:E.[ of_var flag ==. const 1 ]
      ~workload:E.[ of_var kind ==. const 1 ] ~latency:1000. () in
  let d = Diff.analyze [ a; b ] in
  check Alcotest.int "not compared" 0 (List.length d.Diff.pairs)

(* regression for the hashconsed grouping keys: structurally equal
   constraint sets that were built separately and listed in different orders
   must land in one group (skipped as same-config), while a genuinely
   different set in the same run is still compared *)
let test_group_membership_order_insensitive () =
  let a =
    row ~id:1 ~configs:E.[ of_var flag ==. const 1; of_var size >. const 5 ]
      ~latency:100. ()
  in
  let b =
    (* same set, rebuilt from scratch in the opposite order, 9x slower *)
    row ~id:2 ~configs:E.[ of_var size >. const 5; of_var flag ==. const 1 ]
      ~latency:900. ()
  in
  let c = row ~id:3 ~configs:E.[ of_var flag ==. const 0 ] ~latency:100. () in
  let d = Diff.analyze [ a; b; c ] in
  check Alcotest.bool "a-b (same set, reordered) never paired" false
    (List.exists
       (fun (p : Diff.poor_pair) ->
         p.Diff.slow.Row.state_id = 2 && p.Diff.fast.Row.state_id = 1)
       d.Diff.pairs);
  check Alcotest.bool "b still flagged against the other group" true (Diff.is_poor d 2);
  check Alcotest.bool "a never flagged" false (Diff.is_poor d 1);
  (* the similarity metric also sees rebuilt constraints as shared *)
  check Alcotest.int "similarity counts shared nodes across separate builds" 2
    (Vmodel.Similarity.score a b)

let test_incompatible_inputs_not_compared () =
  (* no single input class triggers both states *)
  let a = row ~id:1 ~configs:E.[ of_var flag ==. const 1 ]
      ~workload:E.[ of_var kind ==. const 0 ] ~latency:1000. () in
  let b = row ~id:2 ~configs:E.[ of_var flag ==. const 0 ]
      ~workload:E.[ of_var kind ==. const 1 ] ~latency:100. () in
  let d = Diff.analyze [ a; b ] in
  check Alcotest.int "not compared" 0 (List.length d.Diff.pairs)

let test_logical_metric_triggers () =
  (* latency similar, I/O calls differ: the c6/c17 pattern *)
  let a =
    row ~id:1 ~configs:E.[ of_var flag ==. const 1 ] ~latency:100.
      ~cost:{ Cost.zero with Cost.io_calls = 5 } ()
  in
  let b =
    row ~id:2 ~configs:E.[ of_var flag ==. const 0 ] ~latency:105.
      ~cost:{ Cost.zero with Cost.io_calls = 1 } ()
  in
  let d = Diff.analyze [ a; b ] in
  match d.Diff.pairs with
  | [ p ] ->
    check Alcotest.bool "io trigger" true (List.mem (Diff.Logical "io_calls") p.Diff.triggers);
    check Alcotest.bool "no latency trigger" false (List.mem Diff.Latency p.Diff.triggers);
    check Alcotest.string "label" "I/O" (Diff.trigger_label p.Diff.triggers)
  | _ -> Alcotest.fail "one pair"

let test_trigger_labels () =
  check Alcotest.string "latency only" "Latency" (Diff.trigger_label [ Diff.Latency ]);
  check Alcotest.string "lat+sync" "Lat.&Sync."
    (Diff.trigger_label [ Diff.Latency; Diff.Logical "sync_ops" ]);
  check Alcotest.string "none" "-" (Diff.trigger_label [])

let test_compare_pair_direct () =
  let slow = row ~id:1 ~latency:500. () and fast = row ~id:2 ~latency:100. () in
  (match Diff.compare_pair ~threshold:1.0 ~slow ~fast with
  | Some (worst, triggers) ->
    check Alcotest.bool "worst is 4x diff" true (Float.abs (worst -. 4.) < 1e-6);
    check Alcotest.bool "latency" true (List.mem Diff.Latency triggers)
  | None -> Alcotest.fail "should trigger");
  check Alcotest.bool "below threshold" true
    (Diff.compare_pair ~threshold:5.0 ~slow ~fast = None)

(* class keys are sorted id lists that share their low ids; a hash of the
   first ten elements only would put these all in one bucket *)
let test_key_tbl_hashes_every_id () =
  let t = Diff.Key_tbl.create 64 in
  for k = 0 to 999 do
    Diff.Key_tbl.replace t (List.init 10 Fun.id @ [ 10 + k ]) k
  done;
  check Alcotest.int "all keys kept" 1000 (Diff.Key_tbl.length t);
  check Alcotest.bool "no long chains" true
    ((Diff.Key_tbl.stats t).Hashtbl.max_bucket_length < 10)

(* ------------------------------------------------------------------ *)
(* Diff_analysis against the materialising reference                   *)
(* ------------------------------------------------------------------ *)

(* The analyzer as it was before per-state ranking, kept as a test-only
   reference (its order-preserving parallel screen runs sequentially
   here): screen every pair, materialise the triggered ones, score them
   by the shared constraints of the two rows' own lists, stable-sort by
   similarity, then walk the whole list with the per-state cap, asking
   the solver about each state's last-row workload predicate.  That one
   change from the former code makes a repeated state id one predicate,
   as [analyze] has it. *)
module Reference = struct
  let rel_diff ~floor slow fast =
    if slow <= floor && fast <= floor then 0. else (slow -. fast) /. Float.max fast floor

  let latency_floor_us = 1.0
  let logical_floor = function "io_bytes" -> 512. | _ -> 0.5
  let joint_sat_max_nodes = 1_000
  let constraint_key cs = List.map Vsmt.Expr.id (List.sort_uniq Vsmt.Expr.compare cs)

  let make_comparable ~max_nodes rows =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        Hashtbl.replace tbl r.Row.state_id
          ( constraint_key r.Row.config_constraints,
            constraint_key r.Row.workload_pred,
            r.Row.workload_pred ))
      rows;
    let sat_cache : (int list, bool) Hashtbl.t = Hashtbl.create 256 in
    fun a b ->
      let ca, wa, pa = Hashtbl.find tbl a.Row.state_id in
      let cb, wb, pb = Hashtbl.find tbl b.Row.state_id in
      ca <> cb
      && begin
           let subset x y = List.for_all (fun c -> List.mem c y) x in
           subset wa wb || subset wb wa
           ||
           let key = List.sort_uniq Int.compare (wa @ wb) in
           match Hashtbl.find_opt sat_cache key with
           | Some v -> v
           | None ->
             let v = Vsmt.Solver.is_feasible ~max_nodes (pa @ pb) in
             Hashtbl.add sat_cache key v;
             v
         end

  let pair_triggers ~threshold a b =
    let slow, fast =
      if a.Row.traced_latency_us >= b.Row.traced_latency_us then a, b else b, a
    in
    let lat_diff =
      rel_diff ~floor:latency_floor_us slow.Row.traced_latency_us fast.Row.traced_latency_us
    in
    let worst = ref lat_diff in
    let logical_triggers =
      List.filter_map
        (fun (name, get) ->
          let va = get slow.Row.cost and vb = get fast.Row.cost in
          let d = rel_diff ~floor:(logical_floor name) (Float.max va vb) (Float.min va vb) in
          if d > !worst then worst := d;
          if d > threshold then Some (Diff.Logical name) else None)
        Cost.logical_metrics
    in
    let triggers = (if lat_diff > threshold then [ Diff.Latency ] else []) @ logical_triggers in
    if triggers = [] then None else Some (slow, fast, !worst, triggers)

  let analyze ?(threshold = 1.0) ?(min_similarity = 0) ?(max_nodes = joint_sat_max_nodes) rows =
    let comparable = make_comparable ~max_nodes rows in
    let arr = Array.of_list rows in
    let n = Array.length arr in
    let per_row =
      Array.map
        (fun i ->
          let hits = ref [] in
          for j = n - 1 downto i + 1 do
            match pair_triggers ~threshold arr.(i) arr.(j) with
            | Some hit -> hits := (arr.(i), arr.(j), hit) :: !hits
            | None -> ()
          done;
          !hits)
        (Array.init n (fun i -> i))
    in
    let triggered = List.concat (Array.to_list per_row) in
    let appearance x y =
      List.fold_left (fun acc c -> if List.memq c y then acc + 1 else acc) 0 x
    in
    let scored =
      List.map
        (fun (a, b, hit) ->
          let s =
            appearance a.Row.config_constraints b.Row.config_constraints
            + appearance a.Row.workload_pred b.Row.workload_pred
          in
          a, b, hit, s)
        triggered
    in
    let scored =
      List.stable_sort (fun (_, _, _, s1) (_, _, _, s2) -> Int.compare s2 s1) scored
    in
    let max_ratio = ref 0. in
    let per_state = Hashtbl.create 64 in
    let max_pairs_per_state = 8 in
    let pairs =
      List.filter_map
        (fun (a, b, (slow, fast, worst, triggers), similarity) ->
          let seen =
            match Hashtbl.find_opt per_state slow.Row.state_id with
            | Some n -> n
            | None -> 0
          in
          if similarity < min_similarity || seen >= max_pairs_per_state || not (comparable a b)
          then None
          else begin
            Hashtbl.replace per_state slow.Row.state_id (seen + 1);
            let latency_ratio =
              if fast.Row.traced_latency_us <= 0. then infinity
              else slow.Row.traced_latency_us /. fast.Row.traced_latency_us
            in
            Some
              {
                Diff.slow;
                fast;
                similarity;
                latency_ratio;
                worst_ratio =
                  (if List.mem Diff.Latency triggers && Float.is_finite latency_ratio then
                     latency_ratio
                   else 1. +. worst);
                triggers;
                diff = CPth.differential ~slow ~fast;
              }
          end)
        scored
    in
    let poor_state_ids =
      List.sort_uniq Int.compare (List.map (fun p -> p.Diff.slow.Row.state_id) pairs)
    in
    List.iter
      (fun id ->
        match List.find_opt (fun p -> p.Diff.slow.Row.state_id = id) pairs with
        | Some p -> if p.Diff.worst_ratio > !max_ratio then max_ratio := p.Diff.worst_ratio
        | None -> ())
      poor_state_ids;
    {
      Diff.threshold;
      pairs;
      poor_state_ids;
      max_ratio = !max_ratio;
      screened = 0;
      solver_queries = 0;
    }
end

let mode = cvar "mode" (Vsmt.Dom.int_range 0 3)
let len = wvar "len" (Vsmt.Dom.int_range 0 10)
let conns = wvar "conns" (Vsmt.Dom.int_range 0 6)
let reqs = wvar "reqs" (Vsmt.Dom.int_range 0 6)
let bytes = wvar "bytes" (Vsmt.Dom.int_range 0 1_000_000)

(* Small constraint pools, so rows share constraints, whole config sets
   (also listed in other orders) and similarities; [kind] and [len] bounds
   contradict each other, so some workload pairs are jointly unsat.  The
   workload pool reaches each way the diff decides a workload-class pair:
   truth sets that do not meet (unsat), a witness point at which the
   product and the two-variable [Or] hold (sat), and the solver when the
   point fails them ([conns >= 3] and [reqs >= 2] against the product).
   [bytes] has a domain far wider than the solver enumerates. *)
let config_pool =
  E.
    [
      of_var flag ==. const 0;
      of_var flag ==. const 1;
      of_var size >. const 5;
      of_var size <=. const 5;
      of_var mode ==. const 0;
      of_var mode <>. const 2;
    ]

let workload_pool =
  E.
    [
      of_var kind ==. const 0;
      of_var kind ==. const 1;
      of_var len >. const 7;
      of_var len <=. const 3;
      of_var len ==. const 0;
      of_var len <>. const 5;
      (of_var kind ==. const 1) ||. (of_var len >. const 8);
      of_var conns *. of_var reqs <=. const 4;
      of_var conns >=. const 3;
      of_var reqs >=. const 2;
      of_var bytes >. const 4096;
      of_var bytes <=. const 512;
    ]

(* Rows with equal latencies (few values), duplicated constraints within a
   row (drawn with replacement), repeated state ids (ids drawn from 0..n/2
   in half the cases) and a hub: a row far slower than the rest, with an
   empty workload and a config set no other row has, so it has more than 8
   comparable partners and the per-state cap binds. *)
let gen_rows =
  let open QCheck2.Gen in
  let gen_row id =
    let* configs = list_size (int_range 0 3) (oneofl config_pool) in
    let* workload = list_size (int_range 0 3) (oneofl workload_pool) in
    let* latency = oneofl [ 100.; 100.; 120.; 300.; 900.; 5000. ] in
    let* io_calls = oneofl [ 0; 1; 5 ] in
    let+ sync_ops = oneofl [ 0; 2 ] in
    row ~id ~configs ~workload ~latency ~cost:{ Cost.zero with Cost.io_calls; sync_ops } ()
  in
  let* n = int_range 12 30 in
  let* repeat_ids = bool in
  let* ids = list_repeat n (if repeat_ids then int_range 0 (n / 2) else return 0) in
  let* rows =
    flatten_l (List.mapi (fun i id -> gen_row (if repeat_ids then id else i)) ids)
  in
  let+ hub_at = int_range 0 n in
  let hub = row ~id:(n + 1) ~configs:E.[ of_var mode ==. const 3 ] ~latency:50_000. () in
  List.filteri (fun i _ -> i < hub_at) rows
  @ (hub :: List.filteri (fun i _ -> i >= hub_at) rows)

(* A repeated state id takes its last row's workload predicate: pairing
   either row of state 1 with state 2 asks the same class pair, so the
   two rows' contradicting predicates cannot make the verdict depend on
   which row is asked first. *)
let test_repeated_id_follows_last_row () =
  let fast =
    row ~id:2 ~configs:E.[ of_var flag ==. const 0 ] ~workload:E.[ of_var len <=. const 3 ]
      ~latency:100. ()
  in
  let analyze preds =
    let slow w =
      row ~id:1 ~configs:E.[ of_var flag ==. const 1 ] ~workload:[ w ] ~latency:1000. ()
    in
    Diff.analyze (List.map slow preds @ [ fast ])
  in
  let len_over_7 = E.(of_var len >. const 7) and kind_r = E.(of_var kind ==. const 0) in
  let d = analyze [ len_over_7; kind_r ] in
  check Alcotest.bool "last row kind == R meets len <= 3" true (Diff.is_poor d 1);
  check Alcotest.int "both rows paired" 2 (List.length d.Diff.pairs);
  let d = analyze [ kind_r; len_over_7 ] in
  check Alcotest.bool "last row len > 7 does not meet len <= 3" false (Diff.is_poor d 1)

(* A trace file can declare one name with two domains.  Their truth sets
   are not one variable's, so the solver decides the pair, as before: it
   takes the first declaration's domain, where [len > 50] leaves room for
   [len > 7]. *)
let test_two_domains_go_to_the_solver () =
  let wide = wvar "len" (Vsmt.Dom.int_range 0 100) in
  let rows =
    [
      row ~id:1 ~configs:E.[ of_var flag ==. const 1 ] ~workload:E.[ of_var wide >. const 50 ]
        ~latency:1000. ();
      row ~id:2 ~configs:E.[ of_var flag ==. const 0 ] ~workload:E.[ of_var len >. const 7 ]
        ~latency:100. ();
    ]
  in
  let d = Diff.analyze rows in
  check Alcotest.int "paired" 1 (List.length d.Diff.pairs);
  check Alcotest.int "one solver query" 1 d.Diff.solver_queries

let diff_summary (d : Diff.t) =
  ( List.map
      (fun (p : Diff.poor_pair) ->
        ( p.Diff.slow.Row.state_id,
          p.Diff.fast.Row.state_id,
          p.Diff.similarity,
          p.Diff.triggers,
          p.Diff.latency_ratio,
          p.Diff.worst_ratio ))
      d.Diff.pairs,
    d.Diff.poor_state_ids,
    d.Diff.max_ratio )

let same_rows (a : Diff.t) (b : Diff.t) =
  List.length a.Diff.pairs = List.length b.Diff.pairs
  && List.for_all2
       (fun (p : Diff.poor_pair) (q : Diff.poor_pair) ->
         p.Diff.slow == q.Diff.slow && p.Diff.fast == q.Diff.fast)
       a.Diff.pairs b.Diff.pairs

(* A repeated id's rows share their state's keys, but a pair's similarity
   counts the two rows' own lists: row 0 and row 1 share both [flag ==
   OFF] conjuncts, although state 0's last row has no constraint at all.
   [slice] is ignored, so it changes nothing. *)
let test_repeated_id_similarity_counts_own_rows () =
  let off = E.(of_var flag ==. const 0) in
  let rows =
    [
      row ~id:0 ~configs:[ off; off ] ~latency:100. ();
      row ~id:1 ~configs:[ off; off ] ~latency:100. ~cost:{ Cost.zero with Cost.sync_ops = 2 } ();
      row ~id:0 ~latency:100. ();
    ]
  in
  let d = Diff.analyze rows in
  (match
     List.find_opt
       (fun (p : Diff.poor_pair) -> p.Diff.slow.Row.state_id = 0 && p.Diff.fast.Row.state_id = 1)
       d.Diff.pairs
   with
  | Some p -> check Alcotest.int "pair 0>1 similarity" 2 p.Diff.similarity
  | None -> Alcotest.fail "pair 0>1 kept");
  check Alcotest.bool "slice off gives the same pairs" true
    (diff_summary (Diff.analyze ~slice:false rows) = diff_summary d)

(* [jobs] is ignored: both job counts must give the reference's pairs. *)
let prop_analyze_matches_reference =
  QCheck2.Test.make ~name:"analyze matches the materialising reference at jobs 1 and 4"
    ~count:200
    ~print:(fun rows ->
      let show r = Printf.sprintf "%d %s" r.Row.state_id (Fmt.to_to_string Row.pp r) in
      String.concat "\n" (List.map show rows))
    gen_rows
    (fun rows ->
      let want = Reference.analyze rows in
      List.for_all
        (fun jobs ->
          let got = Diff.analyze ~jobs rows in
          diff_summary got = diff_summary want && same_rows got want)
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

let test_differential_critical_path () =
  (* from the pipeline on the fixture: the slow pair's differential path
     must end in the fsync wrapper *)
  let a = Violet.Pipeline.analyze_exn Fixtures.target "autocommit" in
  let slow_pairs =
    List.filter
      (fun (p : Diff.poor_pair) -> p.Diff.latency_ratio > 5.)
      a.Violet.Pipeline.diff.Diff.pairs
  in
  check Alcotest.bool "found slow pairs" true (slow_pairs <> []);
  check Alcotest.bool "some path reaches fil_flush" true
    (List.exists
       (fun (p : Diff.poor_pair) ->
         match List.rev p.Diff.diff.CPth.critical_path with
         | last :: _ -> last = "fil_flush" || last = "log_buffer_flush_to_disk"
         | [] -> false)
       slow_pairs)

(* ------------------------------------------------------------------ *)
(* Impact model                                                        *)
(* ------------------------------------------------------------------ *)

let sample_model () =
  let rows =
    [
      row ~id:1 ~configs:E.[ of_var flag ==. const 1 ] ~workload:E.[ of_var kind ==. const 1 ]
        ~latency:900. ();
      row ~id:2 ~configs:E.[ of_var flag ==. const 0 ] ~workload:E.[ of_var kind ==. const 1 ]
        ~latency:100. ();
    ]
  in
  let analysis = Diff.analyze rows in
  M.build ~system:"t" ~target:"flag" ~related:[ "size" ] ~rows ~analysis
    ~explored_states:2 ~analysis_wall_s:0.1 ~virtual_analysis_s:60. ()

let test_model_queries () =
  let m = sample_model () in
  check Alcotest.int "poor" 1 (List.length (M.poor_rows m));
  check Alcotest.bool "row_by_id" true (M.row_by_id m 1 <> None);
  check Alcotest.int "matching flag=1" 1 (List.length (M.rows_matching m [ "flag", 1 ]));
  let slow = Option.get (M.row_by_id m 1) and fast = Option.get (M.row_by_id m 2) in
  check Alcotest.bool "pair recorded" true (M.pairs_between m ~slow ~fast <> [])

let test_model_roundtrip_full () =
  let m = sample_model () in
  match M.of_string (M.to_string m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    check Alcotest.string "system" m.M.system m'.M.system;
    check (Alcotest.list Alcotest.string) "related" m.M.related m'.M.related;
    check Alcotest.int "rows" (List.length m.M.rows) (List.length m'.M.rows);
    check Alcotest.int "pairs" (List.length m.M.poor_pairs) (List.length m'.M.poor_pairs);
    check (Alcotest.float 1e-9) "max ratio" m.M.max_ratio m'.M.max_ratio;
    (* constraints survive: queries still work on the loaded model *)
    check Alcotest.int "matching after reload" 1
      (List.length (M.rows_matching m' [ "flag", 1 ]))

let test_model_save_load () =
  let m = sample_model () in
  let path = Filename.temp_file "violet_test" ".vmodel" in
  (match Violet.Pipeline.export_model m path with Ok () -> () | Error e -> Alcotest.fail e);
  (match Violet.Pipeline.import_model path with
  | Ok m' -> check Alcotest.string "content" (M.content_string m) (M.content_string m')
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  check Alcotest.bool "missing file is an error" true
    (Result.is_error (Violet.Pipeline.import_model path))

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let error_of = function Ok _ -> "Ok" | Error e -> e

let test_model_format1_rejected () =
  let text = Model_v1.to_string (sample_model ()) in
  check Alcotest.string "of_string" M.format1_error (error_of (M.of_string text));
  (* a format-1 payload in a current envelope *)
  let path = Filename.temp_file "violet_v1" ".vmodel" in
  let imported =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        match
          Vresilience.Checkpoint.write ~path ~kind:Violet.Pipeline.model_kind
            ~version:Violet.Pipeline.model_version text
        with
        | Ok () -> Violet.Pipeline.import_model path
        | Error e -> Error (Vresilience.Checkpoint.error_to_string e))
  in
  check Alcotest.string "import" M.format1_error (error_of imported);
  check Alcotest.bool "names format 1" true (contains M.format1_error "format 1");
  check Alcotest.bool "says how to regenerate" true
    (contains M.format1_error "violet analyze" && contains M.format1_error "--export")

(* a hand-written format-2 payload; the defaults decode to one row whose
   configuration constraint is [x == 1] *)
let v2_text ?(vars = "(var x bool config)") ?(nodes = "(var 0) (const 1) (== 0 1)")
    ?(rows = "(7 (2) () (0x1p+0 0 0 0 0 0 0 0 0) 0x1p+0 (op))") () =
  Printf.sprintf
    "(impact-model-v2 (system s) (target x) (related) (threshold 0x1p+0) (vars %s) (nodes      %s) (rows %s) (pairs) (poor-states 7) (max-ratio 0x1p+0) (explored-states 1)      (analysis-wall-s 0x0p+0) (virtual-analysis-s 0x0p+0))"
    vars nodes rows

let test_model_v2_malformed () =
  (match M.of_string (v2_text ()) with
  | Ok m ->
    check Alcotest.int "one row" 1 (List.length m.M.rows);
    check Alcotest.int "matches x=1" 1 (List.length (M.rows_matching m [ "x", 1 ]))
  | Error e -> Alcotest.fail e);
  let full = v2_text () in
  List.iter
    (fun (what, text) ->
      match M.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      ("forward node index", v2_text ~nodes:"(var 0) (const 1) (== 0 3) (const 2)" ());
      ("self node index", v2_text ~nodes:"(var 0) (const 1) (not 2)" ());
      ("negative node index", v2_text ~nodes:"(var 0) (const 1) (neg -1)" ());
      ("out-of-range node index in a row", v2_text ~rows:"(7 (3) () (0x1p+0 0 0 0 0 0 0 0 0) 0x1p+0 ())" ());
      ("out-of-range var index", v2_text ~nodes:"(var 1) (const 1) (== 0 1)" ());
      ("unknown binary node tag", v2_text ~nodes:"(var 0) (const 1) (frob 0 1)" ());
      ("unknown unary node tag", v2_text ~nodes:"(var 0) (frob 0) (== 0 1)" ());
      ("malformed var", v2_text ~vars:"(var x (int 3 1) config)" ());
      ("row missing fields", v2_text ~rows:"(7 (2) ())" ());
      ("truncated list", String.sub full 0 (String.length full / 2));
      ("missing nodes", "(impact-model-v2 (system s))");
    ]

(* the fields of [v2_text ()], one string each *)
let v2_fields =
  [ "(system s)"; "(target x)"; "(related)"; "(threshold 0x1p+0)"; "(vars (var x bool config))";
    "(nodes (var 0) (const 1) (== 0 1))"; "(rows (7 (2) () (0x1p+0 0 0 0 0 0 0 0 0) 0x1p+0 (op)))";
    "(pairs)"; "(poor-states 7)"; "(max-ratio 0x1p+0)"; "(explored-states 1)";
    "(analysis-wall-s 0x0p+0)"; "(virtual-analysis-s 0x0p+0)" ]

let v2_of fields = "(impact-model-v2 " ^ String.concat " " fields ^ ")"

(* spellings the tree reader ([Model_v2.of_string]) accepts: the library
   reader reads each to the same model *)
let test_model_v2_spellings () =
  (* [v2_fields] with the field of each name in [subs] replaced *)
  let with_fields subs =
    List.map
      (fun f ->
        let named (name, _) = String.starts_with ~prefix:("(" ^ name ^ " ") f in
        match List.find_opt named subs with Some (_, text) -> text | None -> f)
      v2_fields
  in
  let read what text =
    match (M.of_string text, Model_v2.of_string text) with
    | Ok m, Ok want ->
      check Alcotest.string what (M.content_string want) (M.content_string m);
      m
    | Error e, _ -> Alcotest.failf "%s: %s" what e
    | _, Error e -> Alcotest.failf "%s: the tree reader refused it: %s" what e
  in
  ignore (read "reordered fields" (v2_of (List.rev v2_fields)));
  let m = read "duplicated fields" (v2_of (v2_fields @ [ "(system t)"; "(rows)" ])) in
  check Alcotest.string "the first system wins" "s" m.M.system;
  check Alcotest.int "the first rows win" 1 (List.length m.M.rows);
  ignore (read "unknown fields" (v2_of ("(origin (built today))" :: "lone-atom" :: v2_fields)));
  let commented_rows =
    "(rows ; one row\n (7 (2) () (0x1p+0 0 0 0 0 0 0 0 0) ; cost\n 0x1p+0 (op)))"
  in
  ignore
    (read "comments"
       ("; exported by hand\n" ^ v2_of (with_fields [ ("rows", commented_rows) ])
      ^ " ; trailing\n"));
  let m =
    read "quoted atoms"
      (v2_of
         (with_fields
            [ ("system", "(\"system\" \"s t\")");
              ("nodes", "(nodes (var \"0\") (\"const\" 1) (== 0 1))");
              ("rows", "(rows (\"7\" (2) () (0x1p+0 0 0 0 0 0 0 0 0) 0x1p+0 (\"o p\" \"\")))") ]))
  in
  check Alcotest.string "quoted system" "s t" m.M.system;
  check (Alcotest.list Alcotest.string) "quoted ops" [ "o p"; "" ]
    (List.hd m.M.rows).Row.critical_ops;
  let m =
    read "negative cost count"
      (v2_of (with_fields [ ("rows", "(rows (7 (2) () (0x1p+0 -3 5 0 0 0 0 0 -1) 0x1p+0 (op)))") ]))
  in
  let cost = (List.hd m.M.rows).Row.cost in
  check (Alcotest.list Alcotest.int) "counts after a negative one"
    [ -3; 5; -1 ]
    [ cost.Cost.instructions; cost.Cost.syscalls; cost.Cost.cache_ops ]

(* whatever a damaged file holds, decoding answers and never raises *)
let prop_model_v2_damage_never_raises =
  let text = M.to_string (sample_model ()) in
  QCheck2.Test.make ~name:"damaged format-2 text never raises" ~count:300
    QCheck2.Gen.(pair (int_bound (String.length text - 1)) (oneofl [ ' '; '('; ')'; '9'; '-'; 'x' ]))
    (fun (i, c) ->
      let damaged = String.mapi (fun j d -> if i = j then c else d) text in
      match M.of_string damaged with Ok _ | Error _ -> true)

let qt = QCheck_alcotest.to_alcotest

let tests =
  [
    tc "satisfied_by" test_satisfied_by;
    tc "satisfied_by mixed" test_satisfied_by_mixed_constraint;
    tc "constraint string" test_constraint_string;
    tc "similarity counts" test_similarity_counts;
    tc "rank pairs order" test_rank_pairs_order;
    qt prop_lcs_is_common_subsequence;
    qt prop_lcs_self;
    tc "lcs example" test_lcs_example;
    tc "threshold boundary" test_threshold_boundary;
    tc "equal config sets skipped" test_equal_config_sets_not_compared;
    tc "group membership ignores build order" test_group_membership_order_insensitive;
    tc "incompatible inputs skipped" test_incompatible_inputs_not_compared;
    tc "logical metric triggers" test_logical_metric_triggers;
    tc "trigger labels" test_trigger_labels;
    tc "compare_pair" test_compare_pair_direct;
    tc "memo keys hash every id" test_key_tbl_hashes_every_id;
    tc "differential critical path" test_differential_critical_path;
    tc "model queries" test_model_queries;
    tc "model roundtrip" test_model_roundtrip_full;
    tc "model save/load" test_model_save_load;
    tc "model format 1 rejected" test_model_format1_rejected;
    tc "model format 2 malformed input" test_model_v2_malformed;
    tc "model format 2 spellings read as the tree reader reads them" test_model_v2_spellings;
    qt prop_model_v2_damage_never_raises;
    tc "no rows" test_no_rows;
    tc "repeated state id follows its last row" test_repeated_id_follows_last_row;
    tc "a name with two domains goes to the solver" test_two_domains_go_to_the_solver;
    tc "repeated state id: similarity counts the rows' own lists"
      test_repeated_id_similarity_counts_own_rows;
  ]

let after_fork_tests = [ qt prop_analyze_matches_reference ]
