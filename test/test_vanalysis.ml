(* Tests for the static analyzer: usage/taint analysis, the broadened
   control dependency on the paper's Section 4.3 snippets, and Algorithms
   1-2 for related-parameter discovery, pinned over every parameter of the
   targets and of a generated corpus. *)

module Usage = Vanalysis.Usage
module RC = Vanalysis.Related_config
open Vir.Builder

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let slist = Alcotest.(list string)
let guards = Alcotest.(list (list string))

(* ------------------------------------------------------------------ *)
(* Usage / taint                                                       *)
(* ------------------------------------------------------------------ *)

let taint_program =
  program ~name:"t" ~entry:"main"
    ~globals:[ "m_cache_is_disabled", 0 ]
    [
      func "main"
        [
          (* the paper's data-flow bridge: a global assigned from a config *)
          setg "m_cache_is_disabled" (cfg "query_cache_type" ==. i 0);
          call "serve" [];
          ret_void;
        ];
      func "serve"
        [
          if_ (gv "m_cache_is_disabled" ==. i 0)
            [ if_ (cfg "wlock_invalidate" ==. i 1) [ cache_store ] [] ]
            [];
          call ~dest:"d" "is_disabled" [];
          if_ (lv "d" ==. i 1) [ compute (i 5) ] [];
          ret_void;
        ];
      func "is_disabled" [ ret (gv "m_cache_is_disabled") ];
    ]

let test_taint_through_global () =
  let u = Usage.analyze taint_program in
  (* the branch on the tainted global in serve, and is_disabled's return of
     it, count as usages of the config *)
  check slist "usage functions via global" [ "is_disabled"; "main"; "serve" ]
    (Usage.usage_functions u "query_cache_type")

let test_taint_through_return () =
  (* engine reaches main only through mode's return value, and guards spin *)
  let p =
    program ~name:"t" ~entry:"main"
      [
        func "main"
          [ call ~dest:"d" "mode" []; if_ (lv "d" ==. i 1) [ compute (cfg "spin") ] []; ret_void ];
        func "mode" [ ret (cfg "engine" ==. i 1) ];
      ]
  in
  let u = Usage.analyze p in
  check guards "guarded through the return" [ [ "engine" ] ]
    (Usage.usage_guards u ~func:"main" ~param:"spin")

(* main branches on f1 (); each f_k returns f_(k+1) (), the last returns
   [cfg p == 1]; under main's branch sits [if (cfg q)].  Functions are
   listed caller first, so each fixpoint round carries the return taint
   one caller up: a round cap would leave q unrelated to p. *)
let test_taint_fixpoint_converges () =
  let depth = 40 in
  let f k = Printf.sprintf "f%d" k in
  let chain =
    List.init depth (fun j ->
        let k = j + 1 in
        if k = depth then func (f k) [ ret (cfg "p" ==. i 1) ]
        else func (f k) [ call ~dest:"r" (f (k + 1)) []; ret (lv "r") ])
  in
  let p =
    program ~name:"chain" ~entry:"main"
      (func "main"
         [
           call ~dest:"b" (f 1) [];
           if_ (lv "b" ==. i 1) [ if_ (cfg "q" ==. i 1) [ fsync ] [] ] [];
           ret_void;
         ]
      :: chain)
  in
  check slist "q related to p" [ "p" ] (RC.analyze p "q").RC.related

let test_usage_functions () =
  let u = Usage.analyze taint_program in
  check Alcotest.bool "wlock used in serve" true
    (List.mem "serve" (Usage.usage_functions u "wlock_invalidate"));
  check Alcotest.bool "qct used in main" true
    (List.mem "main" (Usage.usage_functions u "query_cache_type"))

let test_usage_guards_nested () =
  let u = Usage.analyze taint_program in
  (* wlock_invalidate's test is nested under the (tainted) cache branch *)
  let guards = Usage.usage_guards u ~func:"serve" ~param:"wlock_invalidate" in
  check Alcotest.bool "guarded by query_cache_type" true
    (List.exists (fun g -> List.mem "query_cache_type" g) guards)

let test_short_circuit_guard () =
  (* if (a && b): the b test is control dependent on a *)
  let p =
    program ~name:"t" ~entry:"main"
      [
        func "main"
          [ if_ ((cfg "a" ==. i 1) &&. (cfg "b" ==. i 1)) [ fsync ] []; ret_void ];
      ]
  in
  let u = Usage.analyze p in
  let guards_b = Usage.usage_guards u ~func:"main" ~param:"b" in
  check Alcotest.bool "b guarded by a" true (List.exists (List.mem "a") guards_b);
  let guards_a = Usage.usage_guards u ~func:"main" ~param:"a" in
  check Alcotest.bool "a not guarded by b" false (List.exists (List.mem "b") guards_a)

(* ------------------------------------------------------------------ *)
(* Broadened control dependency: the paper's snippets (1) and (2)      *)
(* ------------------------------------------------------------------ *)

let usage_guards_of body param =
  let u = Usage.analyze (program ~name:"s" ~entry:"s" [ func "s" body ]) in
  Usage.usage_guards u ~func:"s" ~param

(* snippet 1, strictly nested ifs: the classic postdominator definition
   makes d's test control dependent on c only; the broadened one on every
   enclosing test *)
let test_snippet1_classic_vs_broadened () =
  let snippet1 =
    [
      if_ (cfg "a" ==. i 1)
        [ if_ (cfg "b" ==. i 1) [ if_ (cfg "c" ==. i 1) [ if_ (cfg "d" ==. i 1) [] [] ] [] ] [] ]
        [];
    ]
  in
  check guards "d guarded by a, b and c" [ [ "a"; "b"; "c" ] ] (usage_guards_of snippet1 "d")

(* snippet 2, sequential ifs inside one enclosing if: here the classic
   definition agrees with the broadened one, and siblings stay independent *)
let test_snippet2_classic_agrees () =
  let snippet2 =
    [
      if_ (cfg "a" ==. i 1)
        [
          if_ (cfg "b" ==. i 1) [] [];
          if_ (cfg "c" ==. i 1) [] [];
          if_ (cfg "d" ==. i 1) [] [];
        ]
        [];
    ]
  in
  check guards "d guarded by a, not by its sibling c" [ [ "a" ] ] (usage_guards_of snippet2 "d")

(* ------------------------------------------------------------------ *)
(* Related-config discovery (Figure 10 / Algorithms 1-2)               *)
(* ------------------------------------------------------------------ *)

(* the paper's Figure 10 shape: binlog_format gates the call chain that
   reaches autocommit's usage; autocommit gates flush_at_trx_commit *)
let fig10 =
  program ~name:"f10" ~entry:"main"
    [
      func "main" [ call "decide_logging_format" []; ret_void ];
      func "decide_logging_format"
        [ if_ (cfg "binlog_format" ==. i 0) [ call "write_row" [] ] []; ret_void ];
      func "write_row"
        [ if_ (cfg "autocommit" ==. i 1) [ call "commit" [] ] []; ret_void ];
      func "commit" [ if_ (cfg "flush" ==. i 1) [ fsync ] []; ret_void ];
    ]

let test_enabler_via_call_chain () =
  let r = RC.analyze fig10 "autocommit" in
  check slist "enablers" [ "binlog_format" ] r.RC.enablers;
  check slist "influenced" [ "flush" ] r.RC.influenced;
  check slist "related" [ "binlog_format"; "flush" ] r.RC.related

let test_flush_enablers_transitive () =
  let r = RC.analyze fig10 "flush" in
  (* flush's usage is reached through callsites guarded by both params *)
  check slist "enablers" [ "autocommit"; "binlog_format" ] r.RC.enablers;
  check slist "influenced" [] r.RC.influenced

let test_unrelated_params_stay_unrelated () =
  let p =
    program ~name:"p" ~entry:"main"
      [
        func "main"
          [
            if_ (cfg "x" >. i 100) [ compute (i 1) ] [];
            if_ (cfg "y" ==. i 1) [ fsync ] [];
            ret_void;
          ];
      ]
  in
  let r = RC.analyze p "y" in
  check slist "no relation" [] r.RC.related

let test_dataflow_bridge_related () =
  (* query_cache_type is an enabler of wlock_invalidate via the tainted
     global, the paper's is_disabled() example *)
  let r = RC.analyze taint_program "wlock_invalidate" in
  check Alcotest.bool "bridge found" true (List.mem "query_cache_type" r.RC.enablers)

(* ------------------------------------------------------------------ *)
(* Every parameter's related set, pinned                               *)
(* ------------------------------------------------------------------ *)

(* One line per parameter each program reads, in [Usage.all_params] order:
   the line count and the digest of the lines. *)
let related_digest (targets : Violet.Pipeline.target list) =
  let lines =
    List.concat_map
      (fun (t : Violet.Pipeline.target) ->
        let usage = Usage.analyze t.program in
        List.map
          (fun param ->
            let r = RC.analyze ~usage t.program param in
            Printf.sprintf "%s/%s e=%s i=%s r=%s" t.name param (String.concat "," r.RC.enablers)
              (String.concat "," r.RC.influenced) (String.concat "," r.RC.related))
          (Usage.all_params usage))
      targets
  in
  List.length lines, Digest.to_hex (Digest.string (String.concat "\n" lines))

let digest = Alcotest.(pair int string)

let test_related_sets_targets () =
  check digest "targets" (106, "1a37459cf91a4f038fcaa1f57a7321ce")
    (related_digest Targets.Cases.all_targets)

let test_related_sets_corpus () =
  let corpus = Vfuzz.Generate.corpus ~seed:42 ~count:200 () in
  check digest "seed-42 corpus" (626, "7da8a657b369f43dc8ba933b37911e57")
    (related_digest (List.map Vfuzz.Genspec.to_target corpus))

let tests =
  [
    tc "taint through global" test_taint_through_global;
    tc "taint through return" test_taint_through_return;
    tc "taint fixpoint runs to convergence" test_taint_fixpoint_converges;
    tc "usage functions" test_usage_functions;
    tc "usage guards nested" test_usage_guards_nested;
    tc "short-circuit guard" test_short_circuit_guard;
    tc "snippet1 classic vs broadened" test_snippet1_classic_vs_broadened;
    tc "snippet2 classic agrees" test_snippet2_classic_agrees;
    tc "enabler via call chain (Figure 10)" test_enabler_via_call_chain;
    tc "transitive enablers" test_flush_enablers_transitive;
    tc "unrelated params" test_unrelated_params_stay_unrelated;
    tc "dataflow bridge" test_dataflow_bridge_related;
    tc "related sets of the targets" test_related_sets_targets;
    tc "related sets of the seed-42 corpus" test_related_sets_corpus;
  ]
