(* vfuzz: score the pipeline against generated systems with planted ground
   truth, and hold the determinism promises to the differential oracle.

   Three measurements over one seeded corpus (--seed/--count, default
   42/200):

   - recall/precision of specious-parameter detection against the plants
     (every plant should be detected, no decoy flagged);
   - differential agreement: slicing on and off must produce
     byte-identical impact models, and serving the exported model through a
     live vserve daemon must reproduce the in-process checker's findings
     byte-for-byte, on every generated system.  Any failure is shrunk to a
     minimal reproducer in fuzz-failures/;
   - shrinker calibration: minimize one corpus member under an artificial
     "still contains an expensive primitive" predicate, pinning the greedy
     loop's convergence on a known-shrinkable input.

   Emits BENCH_fuzz.json with the gate booleans CI greps. *)

module Wire = Vserve.Wire

let rec node_has_expensive = function
  | Vfuzz.Genspec.S_op
      (Vfuzz.Genspec.O_fsync | Vfuzz.Genspec.O_dns_lookup | Vfuzz.Genspec.O_pwrite _) ->
    true
  | Vfuzz.Genspec.S_op _ | Vfuzz.Genspec.S_call _ | Vfuzz.Genspec.S_cfg_read _ -> false
  | Vfuzz.Genspec.S_if (_, t, e) ->
    List.exists node_has_expensive t || List.exists node_has_expensive e
  | Vfuzz.Genspec.S_loop (_, b) | Vfuzz.Genspec.S_unreachable b ->
    List.exists node_has_expensive b

let has_expensive (s : Vfuzz.Genspec.t) =
  List.exists
    (fun (f : Vfuzz.Genspec.fspec) -> List.exists node_has_expensive f.Vfuzz.Genspec.f_body)
    s.Vfuzz.Genspec.g_funcs

let shrink_json name (o : Vfuzz.Shrink.outcome) =
  Wire.Obj
    [
      ("system", Wire.String name);
      ("from_size", Wire.Int o.Vfuzz.Shrink.sh_from_size);
      ("to_size", Wire.Int o.Vfuzz.Shrink.sh_to_size);
      ("steps", Wire.Int o.Vfuzz.Shrink.sh_steps);
      ("checks", Wire.Int o.Vfuzz.Shrink.sh_checks);
    ]

let run_corpus () =
  let seed = !Util.fuzz_seed and count = !Util.fuzz_count in
  Util.note "corpus: seed %d, %d systems" seed count;
  let specs = Vfuzz.Generate.corpus ~seed ~count () in
  let mutated =
    List.length
      (List.filter (fun (s : Vfuzz.Genspec.t) -> s.Vfuzz.Genspec.g_trail <> []) specs)
  in

  (* recall / precision against planted ground truth *)
  let t0 = Unix.gettimeofday () in
  let _, score = Vfuzz.Harness.run specs in
  let harness_s = Unix.gettimeofday () -. t0 in

  (* differential oracle, daemon leg included *)
  let t0 = Unix.gettimeofday () in
  let reports = List.map (fun s -> (s, Vfuzz.Oracle.check s)) specs in
  let oracle_s = Unix.gettimeofday () -. t0 in
  let failures = List.filter (fun (_, r) -> not (Vfuzz.Oracle.agreed r)) reports in
  let combos = List.fold_left (fun n (_, r) -> n + r.Vfuzz.Oracle.r_combos) 0 reports in
  let daemon_checks =
    List.fold_left (fun n (_, r) -> n + r.Vfuzz.Oracle.r_daemon_checks) 0 reports
  in
  let inc_checks =
    List.fold_left (fun n (_, r) -> n + r.Vfuzz.Oracle.r_inc_checks) 0 reports
  in
  let shrunk =
    List.map
      (fun ((spec : Vfuzz.Genspec.t), _) ->
        let still_fails s = not (Vfuzz.Oracle.agreed (Vfuzz.Oracle.check s)) in
        let o = Vfuzz.Shrink.shrink ~still_fails spec in
        if not (Sys.file_exists "fuzz-failures") then Unix.mkdir "fuzz-failures" 0o755;
        let path = Filename.concat "fuzz-failures" (spec.Vfuzz.Genspec.g_name ^ ".vfz") in
        Vfuzz.Genspec.save o.Vfuzz.Shrink.sh_spec path;
        Util.note "DISAGREEMENT %s: reproducer %s" spec.Vfuzz.Genspec.g_name path;
        (spec.Vfuzz.Genspec.g_name, o))
      failures
  in

  (* shrinker calibration on a known-shrinkable predicate *)
  let calib_spec = List.hd specs in
  let calibration = Vfuzz.Shrink.shrink ~still_fails:has_expensive calib_spec in

  let agreement_rate =
    if reports = [] then 1.0
    else
      float_of_int (List.length reports - List.length failures)
      /. float_of_int (List.length reports)
  in
  let recall_ok = score.Vfuzz.Harness.s_recall >= 0.9 in
  let precision_ok = score.Vfuzz.Harness.s_precision >= 0.9 in
  let differential_ok = failures = [] in

  Util.print_table
    ~header:[ "metric"; "value" ]
    [
      [ "systems"; Util.i0 score.Vfuzz.Harness.s_systems ];
      [ "mutated"; Util.i0 mutated ];
      [ "plants"; Util.i0 score.Vfuzz.Harness.s_plants ];
      [ "detected"; Util.i0 score.Vfuzz.Harness.s_detected ];
      [ "decoys"; Util.i0 score.Vfuzz.Harness.s_decoys ];
      [ "wrongly flagged"; Util.i0 score.Vfuzz.Harness.s_flagged ];
      [ "recall"; Util.f2 score.Vfuzz.Harness.s_recall ];
      [ "precision"; Util.f2 score.Vfuzz.Harness.s_precision ];
      [ "model combos compared"; Util.i0 combos ];
      [ "daemon-vs-in-process checks"; Util.i0 daemon_checks ];
      [ "spliced-vs-scratch upgrade checks"; Util.i0 inc_checks ];
      [ "differential agreement"; Util.f2 agreement_rate ];
      [ "harness wall"; Util.f1 harness_s ^ " s" ];
      [ "oracle wall"; Util.f1 oracle_s ^ " s" ];
      [
        "shrink calibration";
        Printf.sprintf "%d -> %d nodes in %d steps"
          calibration.Vfuzz.Shrink.sh_from_size calibration.Vfuzz.Shrink.sh_to_size
          calibration.Vfuzz.Shrink.sh_steps;
      ];
    ];
  Util.note "recall >= 0.9: %s; precision >= 0.9: %s; differential agreement: %s"
    (Util.yes_no recall_ok) (Util.yes_no precision_ok) (Util.yes_no differential_ok);

  let r4 = Util.round 4 and r2 = Util.round 2 in
  Util.write_bench "fuzz"
    [
      ("seed", Wire.Int seed);
      ("count", Wire.Int count);
      ("corpus_size", Wire.Int (List.length specs));
      ("mutated", Wire.Int mutated);
      ("plants", Wire.Int score.Vfuzz.Harness.s_plants);
      ("detected", Wire.Int score.Vfuzz.Harness.s_detected);
      ("decoys", Wire.Int score.Vfuzz.Harness.s_decoys);
      ("flagged", Wire.Int score.Vfuzz.Harness.s_flagged);
      ("recall", Wire.Float (r4 score.Vfuzz.Harness.s_recall));
      ("precision", Wire.Float (r4 score.Vfuzz.Harness.s_precision));
      ("combos_compared", Wire.Int combos);
      ("daemon_checks", Wire.Int daemon_checks);
      ("inc_checks", Wire.Int inc_checks);
      ("disagreements", Wire.Int (List.length failures));
      ("agreement_rate", Wire.Float (r4 agreement_rate));
      ("harness_wall_s", Wire.Float (r2 harness_s));
      ("oracle_wall_s", Wire.Float (r2 oracle_s));
      ("recall_ok", Wire.Bool recall_ok);
      ("precision_ok", Wire.Bool precision_ok);
      ("differential_ok", Wire.Bool differential_ok);
      ("shrink_calibration", shrink_json (List.hd specs).Vfuzz.Genspec.g_name calibration);
      ("shrunk_failures", Wire.List (List.map (fun (n, o) -> shrink_json n o) shrunk));
    ]

let run () =
  Util.section "vfuzz: plants, decoys and the differential oracle";
  run_corpus ()
