(* Tests for the vfuzz subsystem: the splittable PRNG, spec validation and
   round-tripping, the generator's determinism and planted ground truth, the
   mutator's invariants, the differential oracle (whose daemon, fleet and
   jobs-4 legs fork, so this suite must run before any suite that spawns a
   domain), the shrinker, and the export/import round-trip property over
   generated impact models. *)

module G = Vfuzz.Genspec
module Sprng = Vfuzz.Sprng

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Sprng                                                               *)
(* ------------------------------------------------------------------ *)

let draws rng n = List.init n (fun _ -> Sprng.int rng 1_000_000)

let test_sprng_deterministic () =
  check
    (Alcotest.list Alcotest.int)
    "same seed, same stream"
    (draws (Sprng.make 7) 32)
    (draws (Sprng.make 7) 32);
  check Alcotest.bool "different seeds, different streams" true
    (draws (Sprng.make 7) 32 <> draws (Sprng.make 8) 32)

let test_sprng_bounds () =
  let rng = Sprng.make 3 in
  for _ = 1 to 10_000 do
    let v = Sprng.int rng 7 in
    check Alcotest.bool "int in [0,7)" true (v >= 0 && v < 7);
    let r = Sprng.range rng ~lo:(-5) ~hi:5 in
    check Alcotest.bool "range in [-5,5]" true (r >= -5 && r <= 5)
  done

let test_sprng_split_independent () =
  (* keyed children are a pure function of (parent state, key) *)
  check
    (Alcotest.list Alcotest.int)
    "same key, same child"
    (draws (Sprng.split_at (Sprng.make 11) 4) 16)
    (draws (Sprng.split_at (Sprng.make 11) 4) 16);
  check Alcotest.bool "sibling keys diverge" true
    (draws (Sprng.split_at (Sprng.make 11) 4) 16
    <> draws (Sprng.split_at (Sprng.make 11) 5) 16);
  (* consuming a child does not advance the parent *)
  let p1 = Sprng.make 11 and p2 = Sprng.make 11 in
  ignore (draws (Sprng.split_at p1 0) 64);
  check (Alcotest.list Alcotest.int) "parent unperturbed" (draws p2 16) (draws p1 16)

let test_sprng_shuffle_permutes () =
  let xs = List.init 20 Fun.id in
  let shuffled = Sprng.shuffle (Sprng.make 9) xs in
  check (Alcotest.list Alcotest.int) "same multiset" xs (List.sort compare shuffled);
  check Alcotest.bool "actually moved something" true (shuffled <> xs)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  let a = Vfuzz.Generate.spec ~seed:42 ~index:5 () in
  let b = Vfuzz.Generate.spec ~seed:42 ~index:5 () in
  check Alcotest.bool "spec is pure in (seed, index)" true (a = b);
  let c1 = Vfuzz.Generate.corpus ~seed:42 ~count:8 () in
  let c2 = Vfuzz.Generate.corpus ~seed:42 ~count:8 () in
  check Alcotest.bool "corpus is pure in (seed, count)" true (c1 = c2);
  check Alcotest.int "distinct names" 8
    (List.length (List.sort_uniq compare (List.map (fun s -> s.G.g_name) c1)))

let test_generate_valid_and_lowers () =
  List.iter
    (fun spec ->
      (match G.validate spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s invalid: %s" spec.G.g_name m);
      let target = G.to_target spec in
      check Alcotest.bool "has functions" true
        (List.length target.Violet.Pipeline.program.Vir.Ast.funcs >= 2);
      check Alcotest.bool "plant params registered" true
        (List.for_all
           (fun (p : G.plant) ->
             Vruntime.Config_registry.find_opt target.Violet.Pipeline.registry
               p.G.p_param
             <> None)
           spec.G.g_plants))
    (Vfuzz.Generate.corpus ~seed:1 ~count:12 ())

let test_generate_plant_default_is_good () =
  (* the plant-default invariant keeps one plant's poor side out of every
     other plant's concrete baseline *)
  List.iter
    (fun spec ->
      List.iter
        (fun (pl : G.plant) ->
          match G.find_cparam spec pl.G.p_param with
          | None -> Alcotest.failf "plant param %s undeclared" pl.G.p_param
          | Some c ->
            check Alcotest.int
              (pl.G.p_param ^ " default = good value")
              pl.G.p_good c.G.c_default)
        spec.G.g_plants)
    (Vfuzz.Generate.corpus ~seed:3 ~count:15 ())

(* ------------------------------------------------------------------ *)
(* Spec round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let prop_spec_roundtrip =
  QCheck2.Test.make ~name:"spec sexp round-trip" ~count:60
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 50))
    (fun (seed, index) ->
      let spec = Vfuzz.Generate.spec ~seed ~index () in
      (* half the time, round-trip a mutated spec (non-empty trail) *)
      let spec =
        if index mod 2 = 0 then spec
        else fst (Vfuzz.Mutate.apply (Sprng.split_at (Sprng.make seed) 999) spec)
      in
      match G.of_string (G.to_string spec) with
      | Ok spec' -> spec = spec'
      | Error m -> QCheck2.Test.fail_reportf "parse failed: %s" m)

let test_spec_rejects_garbage () =
  (match G.of_string "(not-a-spec)" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match G.of_string "(vfuzz-spec 99 (name x))" with
  | Ok _ -> Alcotest.fail "accepted bad version"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Mutator                                                             *)
(* ------------------------------------------------------------------ *)

let test_mutate_kinds () =
  let kinds =
    [
      Vfuzz.Mutate.Flip_const; Vfuzz.Mutate.Swap_predicate; Vfuzz.Mutate.Widen_range;
      Vfuzz.Mutate.Splice_hot_loop;
    ]
  in
  let applied = Hashtbl.create 4 in
  List.iter
    (fun seed ->
      let spec = Vfuzz.Generate.spec ~seed ~index:0 () in
      List.iter
        (fun kind ->
          let rng = Sprng.split_at (Sprng.make seed) 777 in
          match Vfuzz.Mutate.apply_kind rng kind spec with
          | None -> ()
          | Some (spec', desc) ->
            Hashtbl.replace applied (Vfuzz.Mutate.kind_to_string kind) ();
            check Alcotest.bool "mutated spec validates" true
              (G.validate spec' = Ok ());
            ignore (G.to_target spec');
            check Alcotest.bool "trail records the change" true
              (List.mem desc spec'.G.g_trail))
        kinds)
    [ 1; 2; 3; 4; 5; 6 ];
  check Alcotest.bool "every kind applied at least once" true
    (List.for_all
       (fun k -> Hashtbl.mem applied (Vfuzz.Mutate.kind_to_string k))
       kinds)

let test_mutate_swap_updates_ground_truth () =
  (* find a spec where swap applies, and check poor/good + default swap *)
  let rec go seed =
    if seed > 50 then Alcotest.fail "no swappable spec found"
    else begin
      let spec = Vfuzz.Generate.spec ~seed ~index:1 () in
      let rng = Sprng.split_at (Sprng.make seed) 123 in
      match Vfuzz.Mutate.apply_kind rng Vfuzz.Mutate.Swap_predicate spec with
      | None -> go (seed + 1)
      | Some (spec', _) ->
        let changed =
          List.exists2
            (fun (a : G.plant) (b : G.plant) ->
              a.G.p_poor = b.G.p_good && a.G.p_good = b.G.p_poor && a.G.p_poor <> b.G.p_poor)
            spec.G.g_plants spec'.G.g_plants
        in
        check Alcotest.bool "one plant's polarity swapped" true changed;
        List.iter
          (fun (pl : G.plant) ->
            match G.find_cparam spec' pl.G.p_param with
            | Some c -> check Alcotest.int "default follows good" pl.G.p_good c.G.c_default
            | None -> Alcotest.fail "plant param vanished")
          spec'.G.g_plants
    end
  in
  go 1

let test_mutate_fraction () =
  let specs = Vfuzz.Generate.corpus ~seed:5 ~count:10 ~mutate_fraction:1.0 () in
  check Alcotest.bool "every member carries a trail" true
    (List.for_all (fun s -> s.G.g_trail <> []) specs)

(* ------------------------------------------------------------------ *)
(* Ground truth: recall and precision                                  *)
(* ------------------------------------------------------------------ *)

let test_harness_scores_plants () =
  let specs = Vfuzz.Generate.corpus ~seed:11 ~count:8 () in
  let _, score = Vfuzz.Harness.run specs in
  check Alcotest.int "every plant detected" score.Vfuzz.Harness.s_plants
    score.Vfuzz.Harness.s_detected;
  check Alcotest.int "no decoy flagged" 0 score.Vfuzz.Harness.s_flagged;
  check Alcotest.bool "has plants and decoys" true
    (score.Vfuzz.Harness.s_plants > 0 && score.Vfuzz.Harness.s_decoys > 0);
  check (Alcotest.float 1e-9) "recall" 1.0 score.Vfuzz.Harness.s_recall;
  check (Alcotest.float 1e-9) "precision" 1.0 score.Vfuzz.Harness.s_precision

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

(* the oracle forks, which is unsound once this process has a domain *)
let skip_if_domains () = if Vpar.Pool.spawned_domains () then Alcotest.skip ()

let test_oracle_agrees_in_process () =
  skip_if_domains ();
  List.iter
    (fun spec ->
      let r = Vfuzz.Oracle.check ~daemon:false ~inc:false spec in
      if not (Vfuzz.Oracle.agreed r) then
        Alcotest.failf "%s disagrees: %s" r.Vfuzz.Oracle.r_system
          (String.concat "; "
             (List.map
                (fun (d : Vfuzz.Oracle.disagreement) ->
                  d.Vfuzz.Oracle.d_param ^ " " ^ d.Vfuzz.Oracle.d_leg)
                r.Vfuzz.Oracle.r_disagreements));
      check Alcotest.int "slice on and off per parameter"
        (2 * List.length r.Vfuzz.Oracle.r_params)
        r.Vfuzz.Oracle.r_combos)
    (Vfuzz.Generate.corpus ~seed:21 ~count:4 ())

let test_oracle_daemon_leg () =
  skip_if_domains ();
  let spec = Vfuzz.Generate.spec ~seed:21 ~index:0 () in
  let r = Vfuzz.Oracle.check ~daemon:true ~inc:false spec in
  check Alcotest.bool "daemon leg ran" true (r.Vfuzz.Oracle.r_daemon_checks > 0);
  check Alcotest.bool "daemon agrees with in-process checker" true
    (Vfuzz.Oracle.agreed r)

let test_oracle_inc_leg () =
  (* a spliced upgrade analysis, compared byte-for-byte against a
     from-scratch rebuild *)
  skip_if_domains ();
  let spec = Vfuzz.Generate.spec ~seed:21 ~index:1 () in
  let r = Vfuzz.Oracle.check ~daemon:false ~modes:false spec in
  check Alcotest.int "inc leg compared the splice" 1 r.Vfuzz.Oracle.r_inc_checks;
  check Alcotest.bool "spliced baselines agree with scratch" true
    (Vfuzz.Oracle.agreed r)

let test_oracle_leaves_no_domain () =
  (* the daemon and fleet legs fork and the rest runs on this domain, so
     the caller can keep forking afterwards *)
  skip_if_domains ();
  let r = Vfuzz.Oracle.check (Vfuzz.Generate.spec ~seed:21 ~index:0 ()) in
  check Alcotest.bool "daemon leg ran" true (r.Vfuzz.Oracle.r_daemon_checks > 0);
  check Alcotest.bool "fleet leg ran" true (r.Vfuzz.Oracle.r_fleet_checks > 0);
  check Alcotest.int "inc leg ran" 1 r.Vfuzz.Oracle.r_inc_checks;
  check Alcotest.bool "all legs agree" true (Vfuzz.Oracle.agreed r);
  check Alcotest.bool "no domain spawned in this process" false (Vpar.Pool.spawned_domains ())

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let rec node_has_fsync = function
  | G.S_op G.O_fsync -> true
  | G.S_op _ | G.S_call _ | G.S_cfg_read _ -> false
  | G.S_if (_, t, e) -> List.exists node_has_fsync t || List.exists node_has_fsync e
  | G.S_loop (_, b) | G.S_unreachable b -> List.exists node_has_fsync b

let has_fsync (s : G.t) =
  List.exists (fun (f : G.fspec) -> List.exists node_has_fsync f.G.f_body) s.G.g_funcs

let test_shrink_candidates_valid_and_smaller () =
  let spec = Vfuzz.Generate.spec ~seed:42 ~index:0 () in
  let cs = Vfuzz.Shrink.candidates spec in
  check Alcotest.bool "has candidates" true (cs <> []);
  List.iter
    (fun c ->
      check Alcotest.bool "candidate validates" true (G.validate c = Ok ());
      check Alcotest.bool "candidate strictly smaller" true (G.size c < G.size spec))
    cs

let test_shrink_minimizes () =
  let spec = Vfuzz.Generate.spec ~seed:42 ~index:0 () in
  check Alcotest.bool "precondition: spec has an fsync" true (has_fsync spec);
  let o = Vfuzz.Shrink.shrink ~max_checks:500 ~still_fails:has_fsync spec in
  check Alcotest.bool "shrunk spec still fails" true (has_fsync o.Vfuzz.Shrink.sh_spec);
  check Alcotest.bool "strictly smaller" true
    (o.Vfuzz.Shrink.sh_to_size < o.Vfuzz.Shrink.sh_from_size);
  check Alcotest.bool "small result" true (o.Vfuzz.Shrink.sh_to_size <= 8);
  check Alcotest.bool "still validates" true (G.validate o.Vfuzz.Shrink.sh_spec = Ok ());
  ignore (G.to_target o.Vfuzz.Shrink.sh_spec);
  (* reproducer round-trips through the .vfz format *)
  match G.of_string (G.to_string o.Vfuzz.Shrink.sh_spec) with
  | Ok s -> check Alcotest.bool "reproducer round-trips" true (s = o.Vfuzz.Shrink.sh_spec)
  | Error m -> Alcotest.failf "reproducer does not parse: %s" m

(* ------------------------------------------------------------------ *)
(* export_model/import_model round-trip over generated models          *)
(* ------------------------------------------------------------------ *)

module E = Vsmt.Expr
module Dom = Vsmt.Dom
module Cost = Vruntime.Cost
module M = Vmodel.Impact_model

(* bool, enum and int domains; "p0" is one name under two domains, and
   names and enum members are not ASCII or need quoting: spaces,
   parentheses, quotes, a backslash, a newline, a leading ';' *)
let gen_vars =
  [
    E.{ name = "sync_mode"; dom = Dom.bool; origin = Config };
    E.{ name = "caché_größe"; dom = Dom.int_range 0 100; origin = Config };
    E.{ name = "p0"; dom = Dom.enum "p0 mode" [ "on"; "off"; "自动" ]; origin = Config };
    E.{ name = "p0"; dom = Dom.int_range (-5) 5; origin = Config };
    E.{ name = "n rows"; dom = Dom.int_range 1 8; origin = Workload };
    E.{
      name = "(a \"b\")\\ c\n";
      dom = Dom.enum ";kind" [ ""; "x\ty"; "back\\slash" ];
      origin = Internal;
    };
  ]

let expr_gen =
  QCheck2.Gen.(
    let leaf =
      oneof [ map E.of_var (oneofl gen_vars); map E.const (int_range (-5) 100) ]
    in
    let op = oneofl E.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ] in
    sized_size (int_range 0 6)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (1, map E.not_ (self (n - 1)));
                 (1, map E.neg (self (n - 1)));
                 (3, map3 E.binop op (self (n / 2)) (self (n / 2)));
                 (1, map3 E.ite (self (n / 3)) (self (n / 3)) (self (n / 3)));
               ]))

(* constraints drawn from a per-model pool, so rows share them *)
let constraints_gen pool =
  QCheck2.Gen.(
    list_size (int_range 0 3) (frequency [ (3, oneofl pool); (1, expr_gen) ]))

let row_gen pool =
  QCheck2.Gen.(
    let* sid = int_range 0 500 in
    let* cfg = constraints_gen pool in
    let* wl = constraints_gen pool in
    let* latency = float_range 0.0 1.0e6 in
    let* sys = int_range 0 1000 in
    let* ops =
      oneofl
        [ []; [ "fil_flush" ]; [ "log_write→fil_flush"; "fsync" ]; [ "häßlich" ] ]
    in
    return
      {
        Vmodel.Cost_row.state_id = sid;
        config_constraints = cfg;
        workload_pred = wl;
        cost = { Cost.zero with Cost.latency_us = latency; syscalls = sys };
        traced_latency_us = latency;
        (* chain and nodes are documented as not persisted *)
        chain = [];
        nodes = [];
        critical_ops = ops;
      })

let pair_gen =
  QCheck2.Gen.(
    let* slow_id = int_range 0 500 in
    let* fast_id = int_range 0 500 in
    let* similarity = int_range 0 40 in
    let* latency_ratio = float_range 1.0 50.0 in
    let* trigger = oneofl [ "Lat.&I/O"; "Sync"; "häßlich trigger"; "say \"hi\"" ] in
    let* critical_path = oneofl [ []; [ "fil_flush" ]; [ "a b"; "fsync" ]; [ "("; ")" ] ] in
    let* max_differential_us = float_range 0.0 1.0e5 in
    return
      { M.slow_id; fast_id; similarity; latency_ratio; trigger; critical_path; max_differential_us })

let degradation_gen pool =
  QCheck2.Gen.(
    let dropped =
      let* dp_state_id = int_range 0 500 in
      let* dp_config_constraints = constraints_gen pool in
      let* dp_latency_so_far_us = float_range 0.0 1.0e6 in
      return { M.dp_state_id; dp_config_constraints; dp_latency_so_far_us }
    in
    let* rungs = oneofl [ []; [ "reduced-unroll" ]; [ "reduced-unroll"; "drop-states"; ";x" ] ] in
    let* deadline_hit = bool in
    let* dropped_paths = list_size (int_range 1 3) dropped in
    return { M.rungs; deadline_hit; dropped_paths })

let model_gen =
  QCheck2.Gen.(
    let* system = oneofl [ "gen"; "systéme"; "fz-π"; "" ] in
    let* target = oneofl [ "sync_binlog"; "caché_größe"; "two\nlines" ] in
    let* related = oneofl [ []; [ "a"; "ü" ]; [ ";a"; "f(x)" ] ] in
    let* pool = list_size (int_range 1 5) expr_gen in
    let* rows = list_size (int_range 0 6) (row_gen pool) in
    let* poor_pairs = list_size (int_range 0 3) pair_gen in
    let* degradation = opt (degradation_gen pool) in
    let* threshold = float_range 0.5 2.0 in
    let* max_ratio = float_range 0.0 100.0 in
    return
      {
        M.system;
        target;
        related;
        threshold;
        rows;
        poor_pairs;
        poor_state_ids = List.map (fun (r : Vmodel.Cost_row.t) -> r.Vmodel.Cost_row.state_id) rows;
        max_ratio;
        explored_states = List.length rows;
        analysis_wall_s = 0.25;
        virtual_analysis_s = 1.5;
        degradation;
      })

(* identity is judged on the format-1 reference rendering, which writes
   every constraint out in full; the format-2 printer must also write the
   bytes of its tree reference *)
let prop_export_import_roundtrip =
  QCheck2.Test.make ~name:"export_model/import_model round-trip" ~count:200
    ~print:Model_v1.to_string model_gen
    (fun model ->
      String.equal (M.to_string model) (Model_v2.to_string model)
      &&
      let path =
        Filename.temp_file "vfuzz-model" ".vmodel"
      in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match Violet.Pipeline.export_model model path with
          | Error m -> QCheck2.Test.fail_reportf "export failed: %s" m
          | Ok () -> (
            match Violet.Pipeline.import_model path with
            | Error m -> QCheck2.Test.fail_reportf "import failed: %s" m
            | Ok model' -> String.equal (Model_v1.to_string model) (Model_v1.to_string model'))))

(* the library reader against the tree reader it replaced ([Model_v2]):
   both refuse a text, or both read it to the same content *)
let same_reading text =
  match (M.of_string text, Model_v2.of_string text) with
  | Ok a, Ok b -> String.equal (M.content_string a) (M.content_string b)
  | Error _, Error _ -> true
  | Ok _, Error e -> QCheck2.Test.fail_reportf "only the tree reader refused (%s):\n%s" e text
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "only the cursor reader refused (%s):\n%s" e text

(* each model's text, and 40 copies of it with one byte replaced: the
   damage of [prop_model_v2_damage_never_raises] plus a comment, a quote
   and a line break *)
let prop_reader_matches_tree_reader =
  let damage = [ ' '; '('; ')'; '9'; '-'; 'x'; ';'; '"'; '\n' ] in
  QCheck2.Test.make ~name:"format-2 reader agrees with the tree reader, damaged or not"
    ~count:300
    ~print:(fun (model, _) -> M.to_string model)
    QCheck2.Gen.(pair model_gen (list_repeat 40 (pair (int_bound 1_000_000) (oneofl damage))))
    (fun (model, damages) ->
      let text = M.to_string model in
      same_reading text
      && List.for_all
           (fun (i, ch) ->
             let i = i mod String.length text in
             same_reading (String.mapi (fun j d -> if i = j then ch else d) text))
           damages)

let test_export_import_pipeline_model () =
  (* the same property over a model the real pipeline produced *)
  let spec = Vfuzz.Generate.spec ~seed:33 ~index:2 () in
  let target = G.to_target spec in
  let param = (List.hd spec.G.g_plants).G.p_param in
  match Violet.Pipeline.analyze ~opts:Vfuzz.Oracle.default_opts target param with
  | Error e -> Alcotest.failf "analyze failed: %s" (Violet.Pipeline.error_to_string e)
  | Ok a ->
    let path = Filename.temp_file "vfuzz-pipe" ".vmodel" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        (match Violet.Pipeline.export_model a.Violet.Pipeline.model path with
        | Ok () -> ()
        | Error m -> Alcotest.failf "export failed: %s" m);
        match Violet.Pipeline.import_model path with
        | Error m -> Alcotest.failf "import failed: %s" m
        | Ok model' ->
          check Alcotest.string "reference rendering identical"
            (Model_v1.to_string a.Violet.Pipeline.model)
            (Model_v1.to_string model'))

let tests =
  [
    tc "sprng deterministic" test_sprng_deterministic;
    tc "sprng bounds" test_sprng_bounds;
    tc "sprng split independence" test_sprng_split_independent;
    tc "sprng shuffle permutes" test_sprng_shuffle_permutes;
    tc "generator deterministic" test_generate_deterministic;
    tc "generator valid and lowers" test_generate_valid_and_lowers;
    tc "plant default is good value" test_generate_plant_default_is_good;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    tc "spec rejects garbage" test_spec_rejects_garbage;
    tc "mutate kinds" test_mutate_kinds;
    tc "mutate swap updates ground truth" test_mutate_swap_updates_ground_truth;
    tc "mutate fraction" test_mutate_fraction;
    tc "harness scores plants" test_harness_scores_plants;
    tc "oracle agrees in process" test_oracle_agrees_in_process;
    tc "oracle daemon leg" test_oracle_daemon_leg;
    tc "oracle incremental leg" test_oracle_inc_leg;
    tc "oracle leaves no domain in its caller" test_oracle_leaves_no_domain;
    tc "shrink candidates valid and smaller" test_shrink_candidates_valid_and_smaller;
    tc "shrink minimizes" test_shrink_minimizes;
    QCheck_alcotest.to_alcotest prop_export_import_roundtrip;
    QCheck_alcotest.to_alcotest prop_reader_matches_tree_reader;
    tc "export/import pipeline model" test_export_import_pipeline_model;
  ]
