(* Tests for the IR: builder, address resolution and the call graph, and the
   builder edge shapes the static analyzer must read. *)

open Vir.Builder
module Ast = Vir.Ast
module Callgraph = Vir.Callgraph
module Usage = Vanalysis.Usage

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let slist = Alcotest.(list string)
let guards = Alcotest.(list (list string))

let simple_program =
  program ~name:"p" ~entry:"main"
    [
      func "main" [ call "helper" []; call "helper" []; ret_void ];
      func "helper" [ compute (i 10); ret_void ];
      func "unreachable" [ call "helper" []; ret_void ];
    ]

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_addresses_distinct () =
  let addrs = List.map (fun (f : Ast.func) -> f.Ast.addr) simple_program.Ast.funcs in
  check Alcotest.int "all distinct" (List.length addrs)
    (List.length (List.sort_uniq Int.compare addrs));
  List.iter (fun a -> check Alcotest.bool "nonzero" true (a > 0)) addrs

let test_ret_addrs_in_caller_range () =
  let main = Ast.find_func simple_program "main" in
  let rets = ref [] in
  Ast.iter_stmts
    (function Ast.Call { ret_addr; _ } -> rets := ret_addr :: !rets | _ -> ())
    (Ast.func_body main);
  check Alcotest.int "two call sites" 2 (List.length !rets);
  List.iter
    (fun r ->
      check Alcotest.bool "inside main's range" true
        (r > main.Ast.addr && r < main.Ast.addr + 0x1000))
    !rets;
  check Alcotest.int "sites distinct" 2 (List.length (List.sort_uniq Int.compare !rets))

let test_builder_validation () =
  Alcotest.check_raises "unknown callee"
    (Failure "program bad: main calls unknown function nope") (fun () ->
      ignore (program ~name:"bad" ~entry:"main" [ func "main" [ call "nope" [] ] ]));
  Alcotest.check_raises "duplicate" (Failure "program dup: duplicate function f") (fun () ->
      ignore (program ~name:"dup" ~entry:"f" [ func "f" []; func "f" [] ]));
  Alcotest.check_raises "missing entry" (Failure "program noent: missing entry main")
    (fun () -> ignore (program ~name:"noent" ~entry:"main" [ func "f" [] ]))

(* ------------------------------------------------------------------ *)
(* Callgraph                                                           *)
(* ------------------------------------------------------------------ *)

let test_callgraph () =
  let g = Callgraph.build simple_program in
  check (Alcotest.list Alcotest.string) "callees dedup" [ "helper" ] (Callgraph.callees g "main");
  check (Alcotest.list (Alcotest.list Alcotest.string)) "paths"
    [ [ "main"; "helper" ] ]
    (Callgraph.paths_to g ~entry:"main" "helper");
  check (Alcotest.list Alcotest.string) "reachable" [ "helper"; "main" ]
    (Callgraph.reachable g ~from:"main")

let test_callgraph_cycles () =
  let p =
    program ~name:"cyc" ~entry:"a"
      [
        func "a" [ call "b" []; ret_void ];
        func "b" [ call "a" []; call "c" []; ret_void ];
        func "c" [ ret_void ];
      ]
  in
  let g = Callgraph.build p in
  (* simple paths only: the a->b->a cycle must not loop forever *)
  check (Alcotest.list (Alcotest.list Alcotest.string)) "paths through cycle"
    [ [ "a"; "b"; "c" ] ]
    (Callgraph.paths_to g ~entry:"a" "c")

(* ------------------------------------------------------------------ *)
(* Builder edge shapes the vfuzz generator emits                       *)
(* ------------------------------------------------------------------ *)

let test_branchless_function () =
  (* a straight-line function: its one configuration read is unguarded *)
  let p =
    program ~name:"line" ~entry:"main"
      [ func "main" [ compute (i 5); buffered_write (cfg "buf"); ret_void ] ]
  in
  check Alcotest.bool "addressed" true ((Ast.find_func p "main").Ast.addr > 0);
  let u = Usage.analyze p in
  check slist "read recorded" [ "buf" ] (Usage.all_params u);
  check guards "no enclosing branch" [ [] ] (Usage.usage_guards u ~func:"main" ~param:"buf")

let test_unreachable_block () =
  (* a block behind a constant-false guard still builds, and the static
     analysis still reads it: the guard reads no parameter *)
  let p =
    program ~name:"dead" ~entry:"main"
      [
        func "main"
          [ if_ (i 0 ==. i 1) [ fsync; compute (cfg "k") ] []; compute (i 1); ret_void ];
      ]
  in
  check Alcotest.bool "addressed" true ((Ast.find_func p "main").Ast.addr > 0);
  let u = Usage.analyze p in
  check slist "dead read recorded" [ "main" ] (Usage.usage_functions u "k");
  check guards "guard reads no parameter" [ [] ] (Usage.usage_guards u ~func:"main" ~param:"k")

let test_config_read_without_predicate () =
  (* a config value read into a local that never reaches a predicate: the
     read is recorded, no branch depends on it *)
  let p =
    program ~name:"readonly" ~entry:"main"
      [ func "main" [ set "x" (cfg "knob"); compute (lv "x"); ret_void ] ]
  in
  let main = Ast.find_func p "main" in
  let reads = ref [] in
  Ast.iter_stmts
    (function Ast.Assign (_, Ast.Config n) -> reads := n :: !reads | _ -> ())
    (Ast.func_body main);
  check slist "config read built" [ "knob" ] !reads;
  let u = Usage.analyze p in
  check slist "config read recorded" [ "knob" ] (Usage.all_params u);
  (* the read and the tainted use of x, both unguarded *)
  check guards "no branching" [ []; [] ] (Usage.usage_guards u ~func:"main" ~param:"knob")

let tests =
  [
    tc "addresses distinct" test_addresses_distinct;
    tc "return addresses in caller range" test_ret_addrs_in_caller_range;
    tc "builder validation" test_builder_validation;
    tc "callgraph" test_callgraph;
    tc "callgraph cycles" test_callgraph_cycles;
    tc "branchless function" test_branchless_function;
    tc "unreachable block" test_unreachable_block;
    tc "config read without predicate" test_config_read_without_predicate;
  ]
