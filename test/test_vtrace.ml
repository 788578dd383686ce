(* Tests for the tracer back-end: return-address record matching (paper
   Figure 11), call-path reconstruction by cid/closest-address, and per-state
   profiles.  Includes a property test: for a random well-nested call tree,
   emitting signals and reconstructing yields exactly the original tree. *)

module Sig = Vsymexec.Signals
module RM = Vtrace.Record_match
module CP = Vtrace.Callpath

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* build signal records by hand *)
let mk_call ?(thread = 0) ~cid ~ts ~eip ~ret fname =
  { Sig.kind = Sig.Call { eip; ret_addr = ret }; fname; ts; thread; cid }

let mk_ret ?(thread = 0) ~cid ~ts ~ret fname =
  { Sig.kind = Sig.Ret { ret_addr = ret }; fname; ts; thread; cid }

(* a two-level call: main(0x1000) -> child(0x2000), return address 0x1010 *)
let simple_trace =
  [
    mk_call ~cid:0 ~ts:0. ~eip:0x1000 ~ret:0x10 "main";
    mk_call ~cid:1 ~ts:5. ~eip:0x2000 ~ret:0x1010 "child";
    mk_ret ~cid:2 ~ts:25. ~ret:0x1010 "child";
    mk_ret ~cid:3 ~ts:40. ~ret:0x10 "main";
  ]

let test_match_simple () =
  let entries = RM.match_records simple_trace in
  check Alcotest.int "two entries" 2 (List.length entries);
  let lat name =
    List.find_map
      (fun (e : RM.entry) ->
        if e.RM.call.Sig.fname = name then e.RM.latency_us else None)
      entries
  in
  check (Alcotest.option (Alcotest.float 0.001)) "child latency" (Some 20.) (lat "child");
  check (Alcotest.option (Alcotest.float 0.001)) "main latency" (Some 40.) (lat "main")

let test_match_out_of_order_returns () =
  (* the S2E anomaly the paper describes: the caller's return signal can
     arrive before the callee's; address matching still pairs correctly *)
  let trace =
    [
      mk_call ~cid:0 ~ts:0. ~eip:0x1000 ~ret:0x10 "main";
      mk_call ~cid:1 ~ts:5. ~eip:0x2000 ~ret:0x1010 "child";
      mk_ret ~cid:2 ~ts:40. ~ret:0x10 "main";
      mk_ret ~cid:3 ~ts:41. ~ret:0x1010 "child";
    ]
  in
  let entries = RM.match_records trace in
  check Alcotest.int "both matched" 2
    (List.length (List.filter (fun (e : RM.entry) -> e.RM.ret <> None) entries))

let test_match_missing_return () =
  let trace =
    [
      mk_call ~cid:0 ~ts:0. ~eip:0x1000 ~ret:0x10 "main";
      mk_call ~cid:1 ~ts:5. ~eip:0x2000 ~ret:0x1010 "child";
      mk_ret ~cid:2 ~ts:40. ~ret:0x10 "main";
    ]
  in
  let entries = RM.match_records trace in
  let unmatched = List.filter (fun (e : RM.entry) -> e.RM.ret = None) entries in
  check Alcotest.int "one unmatched" 1 (List.length unmatched);
  check Alcotest.string "it is the child" "child"
    (List.hd unmatched).RM.call.Sig.fname

let test_match_spurious_return_dropped () =
  let trace = [ mk_ret ~cid:0 ~ts:1. ~ret:0x9999 "ghost" ] @ simple_trace in
  check Alcotest.int "spurious ignored" 2 (List.length (RM.match_records trace))

let test_match_threads_partitioned () =
  (* same return address on two threads: matching must stay within threads *)
  let trace =
    [
      mk_call ~thread:1 ~cid:0 ~ts:0. ~eip:0x2000 ~ret:0x1010 "f";
      mk_call ~thread:2 ~cid:1 ~ts:2. ~eip:0x2000 ~ret:0x1010 "f";
      mk_ret ~thread:2 ~cid:2 ~ts:10. ~ret:0x1010 "f";
      mk_ret ~thread:1 ~cid:3 ~ts:30. ~ret:0x1010 "f";
    ]
  in
  let entries = RM.match_records trace in
  let lat_of_thread t =
    List.find_map
      (fun (e : RM.entry) ->
        if e.RM.call.Sig.thread = t then e.RM.latency_us else None)
      entries
  in
  check (Alcotest.option (Alcotest.float 0.001)) "thread 1" (Some 30.) (lat_of_thread 1);
  check (Alcotest.option (Alcotest.float 0.001)) "thread 2" (Some 8.) (lat_of_thread 2)

let test_recursive_same_ret_addr () =
  (* recursion produces repeated identical return addresses: LIFO pairing *)
  let trace =
    [
      mk_call ~cid:0 ~ts:0. ~eip:0x2000 ~ret:0x2010 "rec";
      mk_call ~cid:1 ~ts:5. ~eip:0x2000 ~ret:0x2010 "rec";
      mk_ret ~cid:2 ~ts:10. ~ret:0x2010 "rec";
      mk_ret ~cid:3 ~ts:20. ~ret:0x2010 "rec";
    ]
  in
  let entries = RM.match_records trace in
  let lats = List.filter_map (fun (e : RM.entry) -> e.RM.latency_us) entries in
  check (Alcotest.list (Alcotest.float 0.001)) "inner 5, outer 20"
    [ 5.; 20. ]
    (List.sort Float.compare lats)

(* ------------------------------------------------------------------ *)
(* Call-path reconstruction                                            *)
(* ------------------------------------------------------------------ *)

let test_reconstruct_parents () =
  let nodes = CP.reconstruct (RM.match_records simple_trace) in
  let child = match CP.find nodes 1 with Some n -> n | None -> Alcotest.fail "child" in
  check (Alcotest.option Alcotest.int) "child's parent is main" (Some 0) child.CP.parent;
  let main = match CP.find nodes 0 with Some n -> n | None -> Alcotest.fail "main" in
  check (Alcotest.option Alcotest.int) "main is a root" None main.CP.parent;
  check Alcotest.int "one root" 1 (List.length (CP.roots nodes));
  check Alcotest.int "child depth" 1 (CP.depth_of nodes child)

let test_exclusive_latency () =
  let nodes = CP.reconstruct (RM.match_records simple_trace) in
  let main = Option.get (CP.find nodes 0) in
  check (Alcotest.float 0.001) "main exclusive = 40 - 20" 20.
    (CP.exclusive_latency nodes main)

(* random well-nested call trees: emit + reconstruct = identity.  Node
   labels are assigned uniquely in pre-order, mirroring distinct functions
   with distinct start addresses (the builder guarantees this; only
   recursion repeats an address, where latest-wins is correct). *)
type tree = Node of int * tree list  (* function index, children *)

let shape_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then return (Node (0, []))
           else
             list_size (int_range 0 3) (self (n / 4)) >>= fun kids ->
             return (Node (0, kids))))

let relabel root =
  let next = ref 0 in
  let rec go (Node (_, kids)) =
    let f = !next in
    incr next;
    Node (f, List.map go kids)
  in
  go root

let addr_of f = 0x400000 + ((f + 1) * 0x1000)

let emit_tree root =
  let records = ref [] and cid = ref 0 and clock = ref 0. in
  let next_site = Hashtbl.create 32 in
  let site_of f =
    let s = match Hashtbl.find_opt next_site f with Some s -> s | None -> 0 in
    Hashtbl.replace next_site f (s + 1);
    s
  in
  let emit r = records := r :: !records in
  let rec go ~ret_addr (Node (f, kids)) =
    clock := Stdlib.( +. ) !clock 1.;
    emit
      { Sig.kind = Sig.Call { eip = addr_of f; ret_addr }; fname = string_of_int f;
        ts = !clock; thread = 0; cid = !cid };
    incr cid;
    List.iter
      (fun kid -> go ~ret_addr:(addr_of f + 0x10 + (site_of f * 8)) kid)
      kids;
    clock := Stdlib.( +. ) !clock 1.;
    emit
      { Sig.kind = Sig.Ret { ret_addr }; fname = string_of_int f; ts = !clock;
        thread = 0; cid = !cid };
    incr cid
  in
  go ~ret_addr:0x10 root;
  List.rev !records

(* Rebuild the tree from reconstructed nodes and compare shapes.  Note the
   emitter gives each tree level its own address range, which is what the
   closest-enclosing-address heuristic needs (like distinct functions). *)
type shape = S of int * shape list

let rec shape_of_tree (Node (f, kids)) = S (f, List.map shape_of_tree kids)

let shape_of_nodes nodes =
  let rec build (n : CP.node) =
    S
      ( int_of_string n.CP.fname,
        List.map build
          (List.sort (fun (a : CP.node) b -> Int.compare a.CP.cid b.CP.cid)
             (CP.children nodes n.CP.cid)) )
  in
  match CP.roots nodes with [ r ] -> Some (build r) | _ -> None

let prop_tree_roundtrip =
  QCheck2.Test.make ~name:"emit + reconstruct recovers the call tree" ~count:300
    shape_gen (fun shape ->
      let t = relabel shape in
      let records = emit_tree t in
      let nodes = CP.reconstruct (RM.match_records records) in
      shape_of_nodes nodes = Some (shape_of_tree t))

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_of_fixture () =
  let a = Violet.Pipeline.analyze_exn Fixtures.target "autocommit" in
  List.iter
    (fun (row : Vmodel.Cost_row.t) ->
      check Alcotest.bool "traced latency positive" true
        (row.Vmodel.Cost_row.traced_latency_us > 0.);
      check Alcotest.bool "has nodes" true (row.Vmodel.Cost_row.nodes <> []))
    a.Violet.Pipeline.rows

(* The one origin test reads each variable's own origin, so a name read
   with two origins counts for each where it has it. *)
let test_profile_origins () =
  let module E = Vsmt.Expr in
  let sym origin name = E.of_var { E.name; dom = Vsmt.Dom.int_range 0 7; origin } in
  let c = sym E.Config "po_c" and w = sym E.Workload "po_w" in
  let mixed = E.(c +. w >. const 3) and input = E.(w <. const 2) in
  let twin = E.(sym Workload "po_c" <. const 1) in
  let module Pr = Vtrace.Profile in
  check Alcotest.bool "mixed mentions config" true (Pr.mentions_origin E.Config mixed);
  check Alcotest.bool "mixed is not only workload" false (Pr.only_origin E.Workload mixed);
  check Alcotest.bool "var-free is only config" true (Pr.only_origin E.Config E.tru);
  check Alcotest.bool "the twin is its own origin" true (Pr.only_origin E.Workload twin);
  let p =
    Pr.make ~state_id:0 ~status:(Vsymexec.Sym_state.Terminated None) ~pc:[ mixed; input; twin ]
      ~cost:Vruntime.Cost.zero ~clock:0. ~records:[]
  in
  let ids = List.map E.id in
  check Alcotest.(list int) "config constraints" (ids [ mixed ]) (ids p.Pr.config_constraints);
  check Alcotest.(list int) "workload constraints" (ids [ input; twin ])
    (ids p.Pr.workload_constraints)

let qt = QCheck_alcotest.to_alcotest

let tests =
  [
    tc "match simple" test_match_simple;
    tc "match out-of-order returns" test_match_out_of_order_returns;
    tc "match missing return" test_match_missing_return;
    tc "spurious return dropped" test_match_spurious_return_dropped;
    tc "threads partitioned" test_match_threads_partitioned;
    tc "recursion LIFO pairing" test_recursive_same_ret_addr;
    tc "reconstruct parents" test_reconstruct_parents;
    tc "exclusive latency" test_exclusive_latency;
    qt prop_tree_roundtrip;
    tc "profiles of fixture" test_profile_of_fixture;
    tc "profile origin tests" test_profile_origins;
  ]
