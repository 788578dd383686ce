(* Compiled checker fast path (DESIGN.md Section 5j): compiling the
   impact model into solver-free decision tables moves the row-decision cost
   from query time to load time.  This experiment measures both sides of
   that trade and holds the exactness promise.

   Phases and their BENCH_matcheck.json gates:

   - timing: check-current on the four target systems, solver path vs
     compiled decision tables, per-call wall percentiles over the pooled
     samples.  Gates: the compiled p99 stays in microseconds
     ("mat_p99_us_ok": p99 < 1000 us) and is at least 100x faster than the
     solver path ("speedup_ok");
   - identity: findings are byte-identical between Solver and Hybrid
     carrying the compiled artifact on every target case
     ("targets_identical");
   - corpus: the same equivalence over a seeded vfuzz corpus (--seed/--count,
     default 42/200) — every generated system's model is compiled and
     checked both ways, which must agree byte-for-byte ("corpus_identical").

   The compile wall (the load-time tax the registry pays) is reported per
   model and in total. *)

module Wire = Vserve.Wire

let cases =
  [
    "mysql", "autocommit";
    "postgres", "wal_sync_method";
    "apache", "HostnameLookups";
    "squid", "cache";
  ]

let fingerprint (rep : Vchecker.Checker.report) =
  Vfuzz.Oracle.findings_fingerprint rep.Vchecker.Checker.findings

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let i = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(max 0 (min (n - 1) i))
  end

(* one timed check-current call; the config file is empty so the checker
   runs the model's poor states against the registry defaults — the serving
   daemon's steady-state request *)
let time_check ~mode ?compiled ~model ~registry ~file iters =
  let samples = Array.make iters 0. in
  for i = 0 to iters - 1 do
    let t0 = Unix.gettimeofday () in
    (match
       Vchecker.Checker.check_current ~mode ?compiled ~model ~registry ~file ()
     with
    | Ok _ -> ()
    | Error e -> failwith ("check_current: " ^ e));
    samples.(i) <- (Unix.gettimeofday () -. t0) *. 1e6
  done;
  samples

let run () =
  Util.section "Compiled checker fast path (DESIGN.md Section 5j)";

  (* -- timing + identity on the four target systems ------------------- *)
  let solver_iters = 100 and mat_iters = 400 in
  let solver_samples = ref [] and mat_samples = ref [] in
  let compile_total = ref 0. in
  let targets_identical = ref true in
  let table_rows =
    List.map
      (fun (system, param) ->
        let target = Targets.Cases.target_of system in
        let registry = target.Violet.Pipeline.registry in
        let a = Violet.Pipeline.analyze_exn target param in
        let model = a.Violet.Pipeline.model in
        let file = Vchecker.Config_file.parse "" in
        let compiled = Vmodel.Compiled_model.compile model in
        let cstats = Vmodel.Compiled_model.stats compiled in
        compile_total := !compile_total +. cstats.Vmodel.Compiled_model.compile_s;
        (* identity before timing, so a disagreement fails loudly *)
        let fp mode ?c () =
          match
            Vchecker.Checker.check_current ~mode ?compiled:c ~model ~registry ~file ()
          with
          | Ok rep -> fingerprint rep
          | Error e -> "error: " ^ e
        in
        if
          not
            (String.equal (fp Vchecker.Checker.Solver ())
               (fp Vchecker.Checker.Hybrid ~c:compiled ()))
        then begin
          targets_identical := false;
          Util.note "IDENTITY FAILURE %s/%s: modes disagree" system param
        end;
        let s =
          time_check ~mode:Vchecker.Checker.Solver ~model ~registry ~file solver_iters
        in
        let m =
          time_check ~mode:Vchecker.Checker.Hybrid ~compiled ~model ~registry ~file
            mat_iters
        in
        solver_samples := s :: !solver_samples;
        mat_samples := m :: !mat_samples;
        Array.sort compare s;
        Array.sort compare m;
        [
          system ^ "/" ^ param;
          Printf.sprintf "%d/%d" cstats.Vmodel.Compiled_model.rows_closed
            (List.length model.Vmodel.Impact_model.rows);
          Printf.sprintf "%.2f ms" (cstats.Vmodel.Compiled_model.compile_s *. 1e3);
          Printf.sprintf "%.0f us" (percentile s 0.99);
          Printf.sprintf "%.0f us" (percentile m 0.99);
          Printf.sprintf "%.0fx" (percentile s 0.99 /. percentile m 0.99);
        ])
      cases
  in
  Util.print_table
    ~header:[ "case"; "rows closed"; "compile"; "solver p99"; "compiled p99"; "speedup" ]
    table_rows;

  let pool l =
    let a = Array.concat l in
    Array.sort compare a;
    a
  in
  let s_all = pool !solver_samples and m_all = pool !mat_samples in
  let s_p50 = percentile s_all 0.5
  and s_p99 = percentile s_all 0.99
  and m_p50 = percentile m_all 0.5
  and m_p99 = percentile m_all 0.99 in
  let speedup_p50 = s_p50 /. m_p50 and speedup_p99 = s_p99 /. m_p99 in
  let mat_p99_us_ok = m_p99 < 1000. in
  let speedup_ok = speedup_p99 >= 100. in
  Util.note "pooled: solver p50/p99 %.0f/%.0f us, compiled p50/p99 %.1f/%.1f us" s_p50
    s_p99 m_p50 m_p99;
  Util.note "speedup p50 %.0fx, p99 %.0fx; compile tax %.1f ms total" speedup_p50
    speedup_p99 (!compile_total *. 1e3);

  (* -- solver vs compiled over the generated corpus -------------------- *)
  let seed = !Util.fuzz_seed and count = !Util.fuzz_count in
  Util.note "corpus: seed %d, %d systems" seed count;
  let specs = Vfuzz.Generate.corpus ~seed ~count () in
  let t0 = Unix.gettimeofday () in
  let corpus_checks = ref 0 and corpus_mismatches = ref 0 in
  List.iter
    (fun (spec : Vfuzz.Genspec.t) ->
      let target = Vfuzz.Genspec.to_target spec in
      let registry = target.Violet.Pipeline.registry in
      let params =
        List.map (fun (p : Vfuzz.Genspec.plant) -> p.Vfuzz.Genspec.p_param)
          spec.Vfuzz.Genspec.g_plants
        @ spec.Vfuzz.Genspec.g_decoys
      in
      List.iter
        (fun param ->
          match Violet.Pipeline.analyze ~opts:Vfuzz.Oracle.default_opts target param with
          | Error _ -> ()
          | Ok a ->
            let model = a.Violet.Pipeline.model in
            let file = Vchecker.Config_file.parse "" in
            let compiled = Vmodel.Compiled_model.compile model in
            let fp mode ?c () =
              match
                Vchecker.Checker.check_current ~mode ?compiled:c ~model ~registry
                  ~file ()
              with
              | Ok rep -> fingerprint rep
              | Error e -> "error: " ^ e
            in
            incr corpus_checks;
            if
              not
                (String.equal (fp Vchecker.Checker.Solver ())
                   (fp Vchecker.Checker.Hybrid ~c:compiled ()))
            then begin
              incr corpus_mismatches;
              Util.note "CORPUS MISMATCH %s/%s" spec.Vfuzz.Genspec.g_name param
            end)
        params)
    specs;
  let corpus_s = Unix.gettimeofday () -. t0 in
  let corpus_identical = !corpus_mismatches = 0 in
  Util.note "corpus: %d mode checks over %d systems in %.1f s, %d mismatches"
    !corpus_checks (List.length specs) corpus_s !corpus_mismatches;
  Util.note "compiled p99 < 1 ms: %s; speedup >= 100x: %s; targets identical: %s; corpus identical: %s"
    (Util.yes_no mat_p99_us_ok) (Util.yes_no speedup_ok)
    (Util.yes_no !targets_identical) (Util.yes_no corpus_identical);

  let r1 = Util.round 1 and r2 = Util.round 2 in
  Util.write_bench "matcheck"
    [
      ("solver_p50_us", Wire.Float (r1 s_p50));
      ("solver_p99_us", Wire.Float (r1 s_p99));
      ("mat_p50_us", Wire.Float (r2 m_p50));
      ("mat_p99_us", Wire.Float (r2 m_p99));
      ("speedup_p50", Wire.Float (r1 speedup_p50));
      ("speedup_p99", Wire.Float (r1 speedup_p99));
      ("compile_total_s", Wire.Float (Util.round 4 !compile_total));
      ("seed", Wire.Int seed);
      ("count", Wire.Int count);
      ("corpus_size", Wire.Int (List.length specs));
      ("corpus_checks", Wire.Int !corpus_checks);
      ("corpus_mismatches", Wire.Int !corpus_mismatches);
      ("corpus_wall_s", Wire.Float (r1 corpus_s));
      ("mat_p99_us_ok", Wire.Bool mat_p99_us_ok);
      ("speedup_ok", Wire.Bool speedup_ok);
      ("targets_identical", Wire.Bool !targets_identical);
      ("corpus_identical", Wire.Bool corpus_identical);
    ]
