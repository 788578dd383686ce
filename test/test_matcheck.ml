(* Tests for the compiled checker fast path (DESIGN.md Section 5j):
   interval-set compilation, compiled-vs-solver equivalence (fixture,
   degraded models, QCheck over vfuzz-generated systems, the paper's target
   models), the witness ordering, the rule that picks the engine, and
   registry recompilation skipping. *)

module Checker = Vchecker.Checker
module CM = Vmodel.Compiled_model
module M = Vmodel.Impact_model
module Row = Vmodel.Cost_row
module Reg = Vserve.Registry
module E = Vsmt.Expr
module Iset = Vsmt.Iset

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let mk_tmpdir () =
  let path = Filename.temp_file "matcheck" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let fixture_model =
  let m =
    lazy (Violet.Pipeline.analyze_exn Fixtures.target "autocommit").Violet.Pipeline.model
  in
  fun () -> Lazy.force m

let fingerprint (rep : Checker.report) =
  Vfuzz.Oracle.findings_fingerprint rep.Checker.findings

(* ------------------------------------------------------------------ *)
(* Iset: normalization, boundaries, algebra                            *)
(* ------------------------------------------------------------------ *)

let iv lo hi = { Vsmt.Interval.lo; hi }

let test_iset_normalize () =
  (* overlapping and adjacent ranges merge into normal form *)
  let s = Iset.of_intervals [ iv 3 5; iv 0 2; iv 4 8 ] in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "merged"
    [ 0, 8 ]
    (List.map (fun (i : Vsmt.Interval.t) -> i.lo, i.hi) (Iset.intervals s));
  check Alcotest.int "cardinal" 9 (Iset.cardinal s);
  let gap = Iset.of_intervals [ iv 0 1; iv 3 4 ] in
  check Alcotest.int "gap kept" 2 (List.length (Iset.intervals gap));
  check Alcotest.bool "mem lower boundary" true (Iset.mem 0 gap);
  check Alcotest.bool "mem upper boundary" true (Iset.mem 4 gap);
  check Alcotest.bool "gap excluded" false (Iset.mem 2 gap)

let test_iset_algebra () =
  let dom = Vsmt.Dom.int_range 0 9 in
  let a = Iset.of_intervals [ iv 0 4 ] and b = Iset.of_intervals [ iv 3 7 ] in
  check Alcotest.bool "inter" true
    (Iset.equal (Iset.inter a b) (Iset.of_intervals [ iv 3 4 ]));
  check Alcotest.bool "union" true
    (Iset.equal (Iset.union a b) (Iset.of_intervals [ iv 0 7 ]));
  check Alcotest.bool "complement" true
    (Iset.equal (Iset.complement ~dom a) (Iset.of_intervals [ iv 5 9 ]));
  check Alcotest.bool "complement of empty is dom" true
    (Iset.equal (Iset.complement ~dom Iset.empty) (Iset.of_dom dom));
  check Alcotest.bool "a ∩ ¬a empty" true
    (Iset.is_empty (Iset.inter a (Iset.complement ~dom a)));
  check Alcotest.bool "a ∪ ¬a full" true
    (Iset.equal (Iset.union a (Iset.complement ~dom a)) (Iset.of_dom dom))

let test_iset_of_expr_boundaries () =
  let v = E.{ name = "x"; dom = Vsmt.Dom.int_range 0 7; origin = Config } in
  let set e =
    match Iset.of_expr ~var:v e with
    | Some s -> s
    | None -> Alcotest.fail "expected a closed set"
  in
  check Alcotest.bool "v >= lo is full" true
    (Iset.equal (set E.(of_var v >=. const 0)) (Iset.of_dom v.E.dom));
  check Alcotest.bool "v > hi is empty" true
    (Iset.is_empty (set E.(of_var v >. const 7)));
  check Alcotest.bool "v <= hi is full" true
    (Iset.equal (set E.(of_var v <=. const 7)) (Iset.of_dom v.E.dom));
  check Alcotest.int "point at boundary" 1 (Iset.cardinal (set E.(of_var v ==. const 7)));
  (* a variable wider than the saturating interval bounds cannot be clipped
     exactly, so the compiler must refuse rather than approximate *)
  let wide =
    E.{ name = "w"; dom = Vsmt.Dom.int_range min_int max_int; origin = Config }
  in
  check Alcotest.bool "unclippable domain stays open" true
    (Iset.of_expr ~var:wide E.(of_var wide >. const 0) = None)

(* of_expr promises the *exact* truth set: whenever it closes an expression,
   membership must agree with concrete evaluation on every domain value. *)
let prop_of_expr_exact =
  let open QCheck2 in
  let var = E.{ name = "x"; dom = Vsmt.Dom.int_range (-6) 9; origin = Config } in
  let expr_gen =
    let open Gen in
    sized @@ fix (fun self n ->
        let atom =
          oneof [ return (E.of_var var); map E.const (int_range (-12) 12) ]
        in
        if n <= 0 then atom
        else
          let sub = self (n / 2) in
          oneof
            [
              atom;
              map2 E.( +. ) sub sub;
              map2 E.( -. ) sub sub;
              map2 E.( *. ) sub sub;
              map2 E.( ==. ) sub sub;
              map2 E.( <. ) sub sub;
              map2 E.( <=. ) sub sub;
              map2 E.( >. ) sub sub;
              map2 E.( >=. ) sub sub;
              map2 E.( &&. ) sub sub;
              map2 E.( ||. ) sub sub;
              map E.not_ sub;
            ])
  in
  Test.make ~name:"Iset.of_expr is the exact truth set" ~count:300 expr_gen (fun e ->
      match Iset.of_expr ~var e with
      | None -> true
      | Some s ->
        let lo = Vsmt.Dom.lo var.E.dom and hi = Vsmt.Dom.hi var.E.dom in
        let rec go x =
          if x > hi then true
          else begin
            let truthy = E.eval (fun _ -> x) e <> 0 in
            if Iset.mem x s <> truthy then
              QCheck2.Test.fail_reportf "disagrees at %d (eval %b)" x truthy
            else go (x + 1)
          end
        in
        go lo)

(* ------------------------------------------------------------------ *)
(* Compiled model: fallback, ordering, equivalence                     *)
(* ------------------------------------------------------------------ *)

(* A row whose config constraint involves a symbol that is not a
   configuration parameter (an engine-internal unknown) cannot be closed
   into decision tables; the compiled model must answer for it through the
   per-row solver fallback, identically. *)
let test_unclosable_row_fallback () =
  let model = fixture_model () in
  let base = List.hd model.M.rows in
  let a = E.var ~origin:E.Config "autocommit" Vsmt.Dom.bool in
  let mystery = E.var ~origin:E.Internal "engine_internal" (Vsmt.Dom.int_range 0 4) in
  let gnarly =
    { base with Row.state_id = 7_777; config_constraints = E.[ a +. mystery >. const 0 ] }
  in
  let model = { model with M.rows = model.M.rows @ [ gnarly ] } in
  let cm = CM.compile model in
  let st = CM.stats cm in
  check Alcotest.bool "row left open" true (st.CM.rows_open >= 1);
  List.iter
    (fun assignment ->
      let reference = M.rows_matching model assignment in
      let compiled = CM.rows_matching cm assignment in
      check Alcotest.int "same matching count" (List.length reference)
        (List.length compiled);
      List.iter2
        (fun (r : Row.t) (c : Row.t) ->
          check Alcotest.int "same row" r.Row.state_id c.Row.state_id)
        reference compiled)
    [
      [ "autocommit", 1; "flush_at_trx_commit", 1 ];
      [ "autocommit", 0; "flush_at_trx_commit", 2 ];
      [ "autocommit", 1; "flush_at_trx_commit", 0 ];
    ]

(* The historical comparison order: the stable sort by descending
   [(workload_score, score)], each score computed from scratch. *)
let reference_order ~cap slow rows =
  let decorated =
    rows
    |> List.filter (fun (r : Row.t) -> r.Row.state_id <> slow.Row.state_id)
    |> List.map (fun r ->
           ((Vmodel.Similarity.workload_score slow r, Vmodel.Similarity.score slow r), r))
  in
  let sorted =
    List.stable_sort
      (fun ((wa, ca), _) ((wb, cb), _) ->
        if wa <> wb then Int.compare wb wa else Int.compare cb ca)
      decorated
  in
  List.filteri (fun i _ -> i < cap) (List.map snd sorted)

(* a physically foreign copy of every row: same content, same ids *)
let foreign_copies rows = List.map (fun (r : Row.t) -> { r with Row.state_id = r.Row.state_id }) rows

(* The compiled witness is the live one, whichever way the pool table
   answers: a pool built fresh, the pool of the last query, a pool found
   again after another (A, B, A), a pool built again after more distinct
   pools than the table holds reset it, and pools holding duplicates or
   rows that are not physically the model's, which skip the table. *)
let test_first_witness_equivalence () =
  let model = fixture_model () in
  let rows = Array.of_list model.M.rows in
  let n = Array.length rows in
  (* more distinct pools than the table's 64: every rotation of the model
     rows, each also without its last row, with a row repeated and
     reversed, doubled until there are more than 70 *)
  let rotation k = List.init n (fun i -> rows.((i + k) mod n)) in
  let ids pool = List.map (fun (r : Row.t) -> r.Row.state_id) pool in
  let distinct =
    List.concat_map
      (fun k ->
        let r = rotation k in
        [ r; List.filteri (fun i _ -> i < n - 1) r; r @ [ rows.(k mod n) ]; List.rev r ])
      (List.init n Fun.id)
    |> List.sort_uniq (fun a b -> compare (ids a) (ids b))
  in
  let rec pad pools = if List.length pools > 70 then pools else pad (pools @ List.map (fun p -> p @ p) pools) in
  let distinct = pad distinct in
  check Alcotest.bool "more distinct pools than the table holds" true (List.length distinct > 64);
  let a = model.M.rows and b = List.rev model.M.rows in
  let sequence =
    [ a; b; a; a @ a; foreign_copies a ] @ distinct @ [ a; b; foreign_copies b; a ]
  in
  let cm = CM.compile model in
  let found = ref 0 in
  let witness_ids = function
    | None -> None
    | Some ((fast : Row.t), (ratio, trigger, path)) -> Some (fast.Row.state_id, ratio, trigger, path)
  in
  let show = function
    | None -> "none"
    | Some (id, ratio, trigger, path) ->
      Printf.sprintf "%d %g %s [%s]" id ratio trigger (String.concat ";" path)
  in
  List.iteri
    (fun q pool ->
      List.iter
        (fun slow ->
          List.iter
            (fun (cap, require_joint_input) ->
              let live = CM.live_witness model ~cap ~require_joint_input ~slow pool in
              let compiled = CM.first_witness cm ~cap ~require_joint_input ~slow pool in
              check Alcotest.string
                (Printf.sprintf "pool %d, state %d, cap %d, gate %b" q slow.Row.state_id cap
                   require_joint_input)
                (show (witness_ids live)) (show (witness_ids compiled));
              match (live, compiled) with
              | Some (l, _), Some (c, _) ->
                incr found;
                check Alcotest.bool "the witness is the pool's own row" true (l == c)
              | _ -> ())
            [ (48, true); (48, false); (2, true); (2, false) ])
        (model.M.rows @ foreign_copies [ List.hd model.M.rows ]))
    sequence;
  check Alcotest.bool "some slow row finds a witness" true (!found > 0)

let all_modes = [ Checker.Solver; Checker.Hybrid ]

let fingerprints_of ?compiled model file =
  List.map
    (fun mode ->
      match
        Checker.check_current ~mode ?compiled ~model ~registry:Fixtures.registry ~file ()
      with
      | Ok rep -> fingerprint rep
      | Error e -> Alcotest.fail e)
    all_modes

let fixture_configs =
  [ ""; "autocommit = OFF\n"; "autocommit = ON\nflush_at_trx_commit = 2\n" ]

let test_modes_identical_on_fixture () =
  let model = fixture_model () in
  let compiled = CM.compile model in
  List.iter
    (fun text ->
      let file = Vchecker.Config_file.parse text in
      match fingerprints_of ~compiled model file with
      | [ s; h ] -> check Alcotest.string "hybrid = solver" s h
      | _ -> assert false)
    fixture_configs

(* The one engine rule: Hybrid answers from an artifact only when it was
   compiled from the very model being checked (physical identity).  An
   artifact compiled from a content-equal re-import belongs to another
   model, so the check must take the solver path: the same bytes as
   [Solver], and every reported row one of the checked model's own rows,
   never the artifact's copies. *)
let test_reimported_artifact_not_used () =
  let model = fixture_model () in
  let copy = or_fail (M.of_string (M.to_string model)) in
  check Alcotest.string "re-import is content-equal" (M.to_string model) (M.to_string copy);
  let stale = CM.compile copy in
  let own (r : Row.t) = List.memq r model.M.rows in
  let findings = ref 0 in
  List.iter
    (fun text ->
      let file = Vchecker.Config_file.parse text in
      let run ?compiled mode =
        or_fail
          (Checker.check_current ~mode ?compiled ~model ~registry:Fixtures.registry ~file ())
      in
      let hybrid = run ~compiled:stale Checker.Hybrid in
      check Alcotest.string "hybrid with a re-imported artifact = solver"
        (fingerprint (run Checker.Solver))
        (fingerprint hybrid);
      List.iter
        (fun (f : Checker.finding) ->
          incr findings;
          check Alcotest.bool "slow row is the checked model's" true (own f.Checker.slow_row);
          check Alcotest.bool "fast row is the checked model's" true
            (Option.fold ~none:true ~some:own f.Checker.fast_row))
        hybrid.Checker.findings)
    fixture_configs;
  check Alcotest.bool "some configuration produced a finding" true (!findings > 0)

let with_degradation model =
  let autocommit = E.{ name = "autocommit"; dom = Vsmt.Dom.bool; origin = Config } in
  {
    model with
    M.degradation =
      Some
        {
          M.rungs = [ "solver-light" ];
          deadline_hit = true;
          dropped_paths =
            [
              {
                M.dp_state_id = 9_999;
                dp_config_constraints = E.[ of_var autocommit ==. const 1 ];
                dp_latency_so_far_us = 1234.;
              };
            ];
        };
  }

let test_degraded_widening_identical () =
  let model = with_degradation (fixture_model ()) in
  let compiled = CM.compile model in
  let file = Vchecker.Config_file.parse "" in
  (match fingerprints_of ~compiled model file with
  | [ s; h ] -> check Alcotest.string "hybrid = solver" s h
  | _ -> assert false);
  (* and the conservative widening is actually present in every mode *)
  List.iter
    (fun mode ->
      let rep =
        or_fail
          (Checker.check_current ~mode ~compiled ~model ~registry:Fixtures.registry
             ~file ())
      in
      check Alcotest.bool "degraded finding surfaced" true
        (List.exists (fun f -> f.Checker.trigger = "degraded") rep.Checker.findings))
    all_modes

(* ------------------------------------------------------------------ *)
(* Mode equivalence over generated systems (QCheck)                    *)
(* ------------------------------------------------------------------ *)

let prop_modes_identical_generated =
  QCheck2.Test.make ~name:"modes agree byte-for-byte on generated systems" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let spec = List.hd (Vfuzz.Generate.corpus ~seed ~count:1 ()) in
      let target = Vfuzz.Genspec.to_target spec in
      let registry = target.Violet.Pipeline.registry in
      let params =
        List.map (fun (p : Vfuzz.Genspec.plant) -> p.Vfuzz.Genspec.p_param)
          spec.Vfuzz.Genspec.g_plants
        @ spec.Vfuzz.Genspec.g_decoys
      in
      List.for_all
        (fun param ->
          match Violet.Pipeline.analyze ~opts:Vfuzz.Oracle.default_opts target param with
          | Error _ -> true
          | Ok a ->
            let model = a.Violet.Pipeline.model in
            let file = Vchecker.Config_file.parse "" in
            let compiled = CM.compile model in
            let fp mode ?c () =
              match Checker.check_current ~mode ?compiled:c ~model ~registry ~file () with
              | Ok rep -> fingerprint rep
              | Error e -> "error: " ^ e
            in
            if String.equal (fp Checker.Solver ()) (fp Checker.Hybrid ~c:compiled ()) then true
            else
              QCheck2.Test.fail_reportf "modes disagree on %s/%s"
                spec.Vfuzz.Genspec.g_name param)
        params)

(* ------------------------------------------------------------------ *)
(* Mode equivalence on the paper's target models                       *)
(* ------------------------------------------------------------------ *)

(* Table 3 c1, c7, c12 and c16: mysql/autocommit is the largest model
   (604 rows, 518 workload classes), the others have 10 to 33 rows. *)
let target_cases =
  [
    ("mysql", "autocommit");
    ("postgres", "wal_sync_method");
    ("apache", "HostnameLookups");
    ("squid", "cache");
  ]

(* Values a config file may give one parameter: every member of a small
   domain; the ends, quartiles and default of a larger range. *)
let dom_values ?(extra = []) dom =
  let lo = Vsmt.Dom.lo dom and hi = Vsmt.Dom.hi dom in
  if Vsmt.Dom.size dom <= 16 then List.init (Vsmt.Dom.size dom) (fun k -> lo + k) @ extra
  else
    List.sort_uniq Int.compare
      ([ lo; lo + ((hi - lo) / 4); lo + ((hi - lo) / 2); hi - ((hi - lo) / 4); hi ] @ extra)

let values_of (p : Vruntime.Config_registry.param) =
  dom_values ~extra:[ p.Vruntime.Config_registry.default ] (Vruntime.Config_registry.dom p)

(* Every workload variable of the model's rows bound, at its domain's low
   end, and then each variable moved to each of its values and one past
   its domain (workload assignments may leave it).  The first assignment
   leaves one variable unbound, so the predicates that read it stay open
   and take the solver fallback. *)
let target_workloads (model : M.t) =
  let vars =
    List.concat_map (fun (r : Row.t) -> List.concat_map E.vars r.Row.workload_pred) model.M.rows
    |> List.sort_uniq (fun (a : E.var) (b : E.var) -> String.compare a.E.name b.E.name)
  in
  let base = List.map (fun (v : E.var) -> (v.E.name, Vsmt.Dom.lo v.E.dom)) vars in
  (List.tl base :: base
  :: List.concat_map
       (fun (v : E.var) ->
         List.map
           (fun x -> (v.E.name, x) :: List.remove_assoc v.E.name base)
           (dom_values ~extra:[ Vsmt.Dom.hi v.E.dom + 1 ] v.E.dom))
       vars)

(* The target at each of its values, alone and with each related parameter
   at each of its values. *)
let target_configs (model : M.t) registry =
  let line (p : Vruntime.Config_registry.param) v =
    Printf.sprintf "%s = %s\n" p.Vruntime.Config_registry.name
      (Vruntime.Config_registry.decode p v)
  in
  let target = Option.get (Vruntime.Config_registry.find_opt registry model.M.target) in
  let related = List.filter_map (Vruntime.Config_registry.find_opt registry) model.M.related in
  List.concat_map
    (fun t ->
      line target t
      :: List.concat_map
           (fun r -> List.map (fun w -> line target t ^ line r w) (values_of r))
           related)
    (values_of target)

(* each target model, analysed once for every test that reads it *)
let target_models =
  lazy
    (List.map
       (fun (system, param) ->
         let target = Targets.Cases.target_of system in
         ( (system, param),
           (target.Violet.Pipeline.registry,
            (Violet.Pipeline.analyze_exn target param).Violet.Pipeline.model) ))
       target_cases)

let target_model system param = List.assoc (system, param) (Lazy.force target_models)

(* [live_order] counts shared constraints without the footprint screen;
   it must order exactly as the screened scores do, on the fixture (every
   slow row, caps 48 and 2, duplicated and foreign pools) and on the four
   target models (every fifth slow row against the whole model, uncapped) *)
let test_live_order_is_reference () =
  let same name expected got =
    check (Alcotest.list Alcotest.int) name
      (List.map (fun (r : Row.t) -> r.Row.state_id) expected)
      (List.map (fun (r : Row.t) -> r.Row.state_id) got)
  in
  let model = fixture_model () in
  let pools = [ model.M.rows; model.M.rows @ model.M.rows; foreign_copies model.M.rows ] in
  List.iter
    (fun slow ->
      List.iter
        (fun rows ->
          List.iter
            (fun cap ->
              same (Printf.sprintf "state %d, cap %d" slow.Row.state_id cap)
                (reference_order ~cap slow rows) (CM.live_order ~cap ~slow rows))
            [ 48; 2 ])
        pools)
    (model.M.rows @ foreign_copies model.M.rows);
  List.iter
    (fun (system, param) ->
      let _, model = target_model system param in
      let cap = List.length model.M.rows in
      List.iteri
        (fun i slow ->
          if i mod 5 = 0 then
            same (Printf.sprintf "%s/%s state %d" system param slow.Row.state_id)
              (reference_order ~cap slow model.M.rows) (CM.live_order ~cap ~slow model.M.rows))
        model.M.rows)
    target_cases

let test_modes_identical_on_targets () =
  List.iter
    (fun (system, param) ->
      let registry, model = target_model system param in
      let compiled = CM.compile model in
      let configs = Array.of_list (target_configs model registry) in
      let n = Array.length configs in
      let flagged = ref 0 in
      let same what solver hybrid =
        let solver = or_fail solver in
        if solver.Checker.findings <> [] then incr flagged;
        check Alcotest.string (Printf.sprintf "%s/%s %s" system param what)
          (fingerprint solver) (fingerprint (or_fail hybrid))
      in
      Array.iteri
        (fun i text ->
          let file = Vchecker.Config_file.parse text in
          let current mode =
            Checker.check_current ~mode ~compiled ~model ~registry ~file ()
          in
          same ("current " ^ String.escaped text) (current Checker.Solver)
            (current Checker.Hybrid);
          let new_file = Vchecker.Config_file.parse configs.((i + 1) mod n) in
          let update mode =
            Checker.check_update ~mode ~compiled ~model ~registry ~old_file:file ~new_file ()
          in
          same ("update from " ^ String.escaped text) (update Checker.Solver)
            (update Checker.Hybrid))
        configs;
      check Alcotest.bool (system ^ ": some configuration is flagged") true (!flagged > 0);
      (* workload-change checks read the workload plans, which the
         compiled engine builds per workload class on first use *)
      let workloads = Array.of_list (target_workloads model) in
      let w = Array.length workloads in
      flagged := 0;
      Array.iteri
        (fun i old_workload ->
          let new_workload = workloads.((i + 1) mod w) in
          let change mode =
            Checker.check_workload_change ~mode ~compiled ~model ~old_workload ~new_workload ()
          in
          let show a = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) a) in
          same
            (Printf.sprintf "workload change %s -> %s" (show old_workload) (show new_workload))
            (Ok (change Checker.Solver))
            (Ok (change Checker.Hybrid)))
        workloads;
      check Alcotest.bool (system ^ ": some workload change is flagged") true (!flagged > 0))
    target_cases

(* What a fleet worker holds per model: the artifact compiled from the
   model it read back from disk, model included.  The mysql/autocommit
   artifact read 178,746 words with a plan and a name table per row; one
   per config class (17 for its 604 rows) and workload plans built on
   first use read ~82,700. *)
let test_compiled_artifact_words () =
  let _, model = target_model "mysql" "autocommit" in
  let read_back = or_fail (M.of_string (M.to_string model)) in
  let words = Obj.reachable_words (Obj.repr (CM.compile read_back)) in
  check Alcotest.bool (Printf.sprintf "%d words" words) true (words < 120_000)

(* The first workload change on a fresh artifact, every workload variable
   bound before and none after: 604 slow rows against the few rows of the
   old workload.  Sorting every model row into each slow row's comparison
   order left the artifact at 567,551 words (and took ~1.5 s); ordering
   the pool it is given leaves ~174,000. *)
let test_workload_change_artifact_words () =
  let _, model = target_model "mysql" "autocommit" in
  let model = or_fail (M.of_string (M.to_string model)) in
  let compiled = CM.compile model in
  let old_workload = List.nth (target_workloads model) 1 in
  let report =
    Checker.check_workload_change ~compiled ~model ~old_workload ~new_workload:[] ()
  in
  check Alcotest.bool "the change is flagged" true (report.Checker.findings <> []);
  let words = Obj.reachable_words (Obj.repr compiled) in
  check Alcotest.bool (Printf.sprintf "%d words" words) true (words < 250_000)

(* ------------------------------------------------------------------ *)
(* Content order: the compiled rank against the reference sort         *)
(* ------------------------------------------------------------------ *)

(* Each target model with every seventh row repeated under a fresh state
   id (the target models hold no two rows of equal content), compiled once:
   content twins must share a rank and keep their pool order. *)
let twinned_models =
  lazy
    (List.map
       (fun (system, param) ->
         let _, model = target_model system param in
         let next = 1 + List.fold_left (fun m (r : Row.t) -> max m r.Row.state_id) 0 model.M.rows in
         let twins =
           List.filteri (fun i _ -> i mod 7 = 0) model.M.rows
           |> List.mapi (fun i (r : Row.t) -> { r with Row.state_id = next + i })
         in
         let model = { model with M.rows = model.M.rows @ twins } in
         (Array.of_list model.M.rows, Array.of_list twins, CM.compile model))
       target_cases)

(* Pools drawn from one twinned model's rows, with repeats and twins, and
   now and then a physical copy of a model row, which must send the
   compiled engine back to [Checker.by_content]. *)
let prop_content_order =
  let open QCheck2 in
  let pool_gen =
    Gen.(
      let* case = int_bound (List.length target_cases - 1) in
      let* picks = list_size (int_bound 80) (pair bool nat) in
      let* copy = bool in
      return (case, picks, copy))
  in
  Test.make ~name:"compiled content order is the reference order" ~count:200 pool_gen
    (fun (case, picks, copy) ->
      let rows, twins, cm = List.nth (Lazy.force twinned_models) case in
      let pick (twin, n) =
        if twin then twins.(n mod Array.length twins) else rows.(n mod Array.length rows)
      in
      let pool = List.map pick picks in
      let pool =
        match pool with
        | r :: tl when copy -> tl @ [ { r with Row.state_id = r.Row.state_id } ]
        | _ -> pool
      in
      let foreign = List.exists (fun r -> not (Array.memq r rows)) pool in
      match CM.content_order cm pool with
      | None when foreign -> true
      | None -> Test.fail_report "model rows only, yet no content order"
      | Some _ when foreign -> Test.fail_report "a copied row was ranked as a model row"
      | Some sorted ->
        List.equal ( == ) sorted (Checker.by_content pool)
        || Test.fail_reportf "%s: order differs from Checker.by_content"
             (fst (List.nth target_cases case)))

(* A warm compiled check allocates per check, not per row: rendering every
   candidate's content key on each check cost mysql/autocommit 293,213
   minor words per call; ranking the rows once per model leaves 27,934. *)
let test_warm_check_allocation () =
  let registry, model = target_model "mysql" "autocommit" in
  let compiled = CM.compile model in
  let file = Vchecker.Config_file.parse "" in
  let run () = ignore (or_fail (Checker.check_current ~compiled ~model ~registry ~file ())) in
  run ();
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  if words >= 100_000. then
    Alcotest.failf "a warm check allocated %.0f minor words (bound 100,000)" words

(* ------------------------------------------------------------------ *)
(* check_upgrade: keyed lookup semantics                               *)
(* ------------------------------------------------------------------ *)

(* Two old rows rendering to the same constraint string: the keyed lookup
   must keep [List.assoc]'s first-occurrence-wins semantics. *)
let test_upgrade_duplicate_constraints () =
  let model = fixture_model () in
  let poor = List.hd (M.poor_rows model) in
  let fast =
    List.find (fun r -> not (M.is_poor_row model r)) model.M.rows
  in
  (* a slow twin of the fast row: same constraint string, poor cost *)
  let slow_twin =
    {
      fast with
      Row.state_id = 8_888;
      cost = poor.Row.cost;
      traced_latency_us = poor.Row.traced_latency_us;
      critical_ops = poor.Row.critical_ops;
    }
  in
  let upgraded = { slow_twin with Row.state_id = 8_889 } in
  let new_model = { model with M.rows = [ upgraded ] } in
  (* first occurrence fast: the upgrade looks like a big regression *)
  let r1 =
    Checker.check_upgrade ~old_model:{ model with M.rows = [ fast; slow_twin ] }
      ~new_model ()
  in
  check Alcotest.bool "first-occurrence fast -> flagged" true (r1.Checker.findings <> []);
  (* first occurrence slow: same latency as before, nothing to flag *)
  let r2 =
    Checker.check_upgrade ~old_model:{ model with M.rows = [ slow_twin; fast ] }
      ~new_model ()
  in
  check Alcotest.int "first-occurrence slow -> silent" 0 (List.length r2.Checker.findings)

(* ------------------------------------------------------------------ *)
(* Registry: compile at load, skip when the digest is unchanged        *)
(* ------------------------------------------------------------------ *)

let test_registry_skips_recompile () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Reg.model_file ~dir ~key:"mini" in
  or_fail (Violet.Pipeline.export_model (fixture_model ()) path);
  let reg = Reg.create ~dir () in
  ignore (Reg.refresh reg);
  check Alcotest.int "compiled on first load" 1 (Reg.compiles reg);
  let e1 = Option.get (Reg.find reg "mini") in
  (match e1.Reg.compiled with
  | Some cm -> check Alcotest.bool "artifact is for the live model" true (CM.model cm == e1.Reg.model)
  | None -> Alcotest.fail "expected a compiled artifact");
  (* rewrite the same payload: same digest, no reload, no recompile *)
  or_fail (Violet.Pipeline.export_model (fixture_model ()) path);
  (match Reg.refresh ~force:true reg with
  | [] -> ()
  | evs ->
    Alcotest.fail
      ("unchanged digest must not reload: "
      ^ String.concat "; " (List.map Reg.event_to_string evs)));
  check Alcotest.int "generation unchanged" 1
    (Option.get (Reg.find reg "mini")).Reg.generation;
  check Alcotest.int "no recompile" 1 (Reg.compiles reg);
  (* stage/commit of the same payload also reuses the artifact *)
  ignore (Reg.stage reg);
  ignore (or_fail (Reg.commit reg));
  check Alcotest.int "no recompile across stage/commit" 1 (Reg.compiles reg);
  (* a real change recompiles and bumps the generation *)
  or_fail
    (Violet.Pipeline.export_model
       { (fixture_model ()) with M.threshold = 0.9 }
       path);
  (match Reg.refresh ~force:true reg with
  | [ Reg.Loaded { key = "mini"; generation = 2 } ] -> ()
  | evs ->
    Alcotest.fail
      ("expected generation 2: " ^ String.concat "; " (List.map Reg.event_to_string evs)));
  check Alcotest.int "changed digest recompiles" 2 (Reg.compiles reg);
  check Alcotest.bool "compile tax measured" true (Reg.compile_wall_s reg > 0.)

let tests =
  [
    tc "iset: normalization and boundaries" test_iset_normalize;
    tc "iset: algebra" test_iset_algebra;
    tc "iset: of_expr domain boundaries" test_iset_of_expr_boundaries;
    QCheck_alcotest.to_alcotest prop_of_expr_exact;
    tc "compiled: unclosable row falls back" test_unclosable_row_fallback;
    tc "compiled: live order is the reference" test_live_order_is_reference;
    tc "compiled: first witness equivalence" test_first_witness_equivalence;
    tc "modes identical on fixture" test_modes_identical_on_fixture;
    tc "hybrid ignores an artifact of a re-imported model" test_reimported_artifact_not_used;
    tc "degraded widening identical in all modes" test_degraded_widening_identical;
    QCheck_alcotest.to_alcotest prop_modes_identical_generated;
    tc "modes identical on the target models" test_modes_identical_on_targets;
    tc "compiled mysql artifact under 120,000 words" test_compiled_artifact_words;
    tc "workload change leaves < 250,000 words" test_workload_change_artifact_words;
    tc "check_upgrade: duplicate constraint strings" test_upgrade_duplicate_constraints;
    tc "registry: unchanged digest skips recompile" test_registry_skips_recompile;
    QCheck_alcotest.to_alcotest prop_content_order;
    tc "warm compiled check allocates per check" test_warm_check_allocation;
  ]
