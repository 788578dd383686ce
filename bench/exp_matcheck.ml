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

   Two more phases are reported, not gated; their findings are compared
   with the solver engine's and feed "targets_identical":

   - mixed: per target, a seeded sequence of check-current and check-update
     requests over the config files perfbench's serve-mix builds, on one
     artifact: compiled p50/p99 and the artifact's words after the run;
   - first call: per target, check-current, check-update and a workload
     change (every workload variable bound, then none) each on a fresh
     artifact, against the solver engine, in ms.

   The compile wall (the load-time tax the registry pays) is reported per
   model and in total. *)

module Wire = Vserve.Wire
module Checker = Vchecker.Checker
module CF = Vchecker.Config_file
module CM = Vmodel.Compiled_model
module M = Vmodel.Impact_model
module Reg = Vruntime.Config_registry

let cases =
  [
    "mysql", "autocommit";
    "postgres", "wal_sync_method";
    "apache", "HostnameLookups";
    "squid", "cache";
  ]

let fingerprint (rep : Vchecker.Checker.report) =
  Vfuzz.Oracle.findings_fingerprint rep.Vchecker.Checker.findings

let fingerprint_of = function Ok rep -> fingerprint rep | Error e -> "error: " ^ e

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

(* [f ()] and its wall time in [unit]s per second *)
let timed unit f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. unit)

(* -- mixed configurations -------------------------------------------- *)

(* perfbench's serve-mix rule (check_layers.ml), written again here
   because bench cannot link perfbench's executables: [mixed_files] config
   files per model, a 30% share of check-update requests from a file to
   the next.  Like perfbench, the share is a choice, not a measurement. *)
let mixed_files = 25
let mixed_checks = 2_000
let mixed_update_share = 0.3
let mixed_seed = 903

(* Values a config file may give one parameter: every member of a small
   domain, the ends, default and quartiles of an integer range. *)
let candidates (p : Reg.param) =
  match p.Reg.kind with
  | Reg.Bool -> [ 0; 1 ]
  | Reg.Enum ms -> List.init (List.length ms) Fun.id
  | Reg.Float_choices fs -> List.init (List.length fs) Fun.id
  | Reg.Int { lo; hi } ->
    List.sort_uniq compare
      [ lo; lo + ((hi - lo) / 4); lo + ((hi - lo) / 2); hi - ((hi - lo) / 4); hi; p.Reg.default ]

(* The target parameter at each of its values, alone and with each related
   parameter at each of its values; [mixed_files] of them, evenly spaced. *)
let config_texts (m : M.t) registry =
  let line (p : Reg.param) v = Printf.sprintf "%s = %s\n" p.Reg.name (Reg.decode p v) in
  match List.filter_map (Reg.find_opt registry) (m.M.target :: m.M.related) with
  | [] -> [| "" |]
  | target :: related ->
    let all =
      List.concat_map
        (fun t ->
          line target t
          :: List.concat_map
               (fun (r : Reg.param) -> List.map (fun w -> line target t ^ line r w) (candidates r))
               related)
        (candidates target)
      |> List.sort_uniq compare |> Array.of_list
    in
    let n = Array.length all in
    if n <= mixed_files then all else Array.init mixed_files (fun i -> all.(i * n / mixed_files))

(* (file, Some next) is a check-update from file to next, (file, None) a
   check-current *)
let mixed_sequence nfiles =
  let g = Vfuzz.Sprng.make mixed_seed in
  Array.init mixed_checks (fun _ ->
      let c = Vfuzz.Sprng.int g nfiles in
      if Vfuzz.Sprng.chance g mixed_update_share then (c, Some ((c + 1) mod nfiles)) else (c, None))

let mixed_check ~mode ?compiled ~model ~registry files = function
  | c, None -> Checker.check_current ~mode ?compiled ~model ~registry ~file:files.(c) ()
  | c, Some d ->
    Checker.check_update ~mode ?compiled ~model ~registry ~old_file:files.(c)
      ~new_file:files.(d) ()

(* The sequence on one artifact, each answer compared with the solver
   engine's answer to the same request (computed first, so the timed run
   starts from the artifact alone): compiled p50/p99 in us, the artifact's
   words after the run, and the number of answers that differ. *)
let mixed_phase ~registry ~model files =
  let reqs = mixed_sequence (Array.length files) in
  let reference = Hashtbl.create 64 in
  Array.iter
    (fun req ->
      if not (Hashtbl.mem reference req) then
        Hashtbl.replace reference req
          (fingerprint_of (mixed_check ~mode:Checker.Solver ~model ~registry files req)))
    reqs;
  let compiled = CM.compile model in
  let mismatches = ref 0 in
  let samples =
    Array.map
      (fun req ->
        let rep, us =
          timed 1e6 (fun () -> mixed_check ~mode:Checker.Hybrid ~compiled ~model ~registry files req)
        in
        if not (String.equal (fingerprint_of rep) (Hashtbl.find reference req)) then incr mismatches;
        us)
      reqs
  in
  Array.sort compare samples;
  ( percentile samples 0.5,
    percentile samples 0.99,
    Obj.reachable_words (Obj.repr compiled),
    !mismatches )

(* -- first call on a fresh artifact ----------------------------------- *)

(* Each verb once on a freshly compiled artifact, then on the solver
   engine: (verb, compiled ms, solver ms, same findings).  The workload
   change binds every workload variable of the model at its domain's low
   end, then none. *)
let first_calls ~registry ~model files =
  let vars =
    List.concat_map
      (fun (r : Vmodel.Cost_row.t) -> List.concat_map Vsmt.Expr.vars r.Vmodel.Cost_row.workload_pred)
      model.M.rows
    |> List.sort_uniq (fun (a : Vsmt.Expr.var) b -> String.compare a.Vsmt.Expr.name b.Vsmt.Expr.name)
  in
  let old_workload =
    List.map (fun (v : Vsmt.Expr.var) -> (v.Vsmt.Expr.name, Vsmt.Dom.lo v.Vsmt.Expr.dom)) vars
  in
  let next = 1 mod Array.length files in
  (* the compiled engine with an artifact, the solver engine without *)
  let mode compiled = if Option.is_some compiled then Checker.Hybrid else Checker.Solver in
  let verbs =
    [
      ("current", fun compiled -> mixed_check ~mode:(mode compiled) ?compiled ~model ~registry files (0, None));
      ( "update",
        fun compiled -> mixed_check ~mode:(mode compiled) ?compiled ~model ~registry files (0, Some next) );
      ( "workload",
        fun compiled ->
          Ok
            (Checker.check_workload_change ~mode:(mode compiled) ?compiled ~model ~old_workload
               ~new_workload:[] ()) );
    ]
  in
  List.map
    (fun (verb, check) ->
      let compiled = CM.compile model in
      let c, c_ms = timed 1e3 (fun () -> check (Some compiled)) in
      let s, s_ms = timed 1e3 (fun () -> check None) in
      (verb, c_ms, s_ms, String.equal (fingerprint_of c) (fingerprint_of s)))
    verbs

let run () =
  Util.section "Compiled checker fast path (DESIGN.md Section 5j)";

  (* -- timing + identity on the four target systems ------------------- *)
  let solver_iters = 100 and mat_iters = 400 in
  let solver_samples = ref [] and mat_samples = ref [] in
  let compile_total = ref 0. in
  let targets_identical = ref true in
  let analysed = ref [] in
  let table_rows =
    List.map
      (fun (system, param) ->
        let target = Targets.Cases.target_of system in
        let registry = target.Violet.Pipeline.registry in
        let a = Violet.Pipeline.analyze_exn target param in
        let model = a.Violet.Pipeline.model in
        analysed := (system ^ "/" ^ param, registry, model) :: !analysed;
        let file = Vchecker.Config_file.parse "" in
        let compiled = Vmodel.Compiled_model.compile model in
        let cstats = Vmodel.Compiled_model.stats compiled in
        compile_total := !compile_total +. cstats.Vmodel.Compiled_model.compile_s;
        (* identity before timing, so a disagreement fails loudly *)
        let fp mode ?c () =
          fingerprint_of (Vchecker.Checker.check_current ~mode ?compiled:c ~model ~registry ~file ())
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

  (* -- mixed configurations and first calls, per target --------------- *)
  let mixed_rows, first_rows =
    List.rev !analysed
    |> List.map (fun (case, registry, model) ->
           let files = Array.map CF.parse (config_texts model registry) in
           let p50, p99, words, mismatches = mixed_phase ~registry ~model files in
           if mismatches > 0 then begin
             targets_identical := false;
             Util.note "IDENTITY FAILURE %s: %d mixed answers differ" case mismatches
           end;
           let firsts = first_calls ~registry ~model files in
           List.iter
             (fun (verb, _, _, same) ->
               if not same then begin
                 targets_identical := false;
                 Util.note "IDENTITY FAILURE %s: first %s differs" case verb
               end)
             firsts;
           ((case, Array.length files, p50, p99, words), (case, firsts)))
    |> List.split
  in
  Util.note "mixed: %d checks per target, %.0f%% check-update, seed %d" mixed_checks
    (100. *. mixed_update_share) mixed_seed;
  Util.print_table
    ~header:[ "case"; "files"; "compiled p50"; "compiled p99"; "artifact words after" ]
    (List.map
       (fun (case, files, p50, p99, words) ->
         [ case; string_of_int files; Printf.sprintf "%.0f us" p50; Printf.sprintf "%.0f us" p99;
           string_of_int words ])
       mixed_rows);
  Util.note "first call on a fresh artifact, compiled / solver engine:";
  Util.print_table
    ~header:[ "case"; "check-current"; "check-update"; "workload change" ]
    (List.map
       (fun (case, firsts) ->
         case
         :: List.map (fun (_, c_ms, s_ms, _) -> Printf.sprintf "%.2f / %.2f ms" c_ms s_ms) firsts)
       first_rows);

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
              fingerprint_of
                (Vchecker.Checker.check_current ~mode ?compiled:c ~model ~registry ~file ())
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
      ("mixed_checks", Wire.Int mixed_checks);
      ("mixed_update_share", Wire.Float mixed_update_share);
      ("mixed_seed", Wire.Int mixed_seed);
      ( "mixed",
        Wire.List
          (List.map
             (fun (case, files, p50, p99, words) ->
               Wire.Obj
                 [
                   ("case", Wire.String case);
                   ("files", Wire.Int files);
                   ("mat_p50_us", Wire.Float (r1 p50));
                   ("mat_p99_us", Wire.Float (r1 p99));
                   ("artifact_words", Wire.Int words);
                 ])
             mixed_rows) );
      ( "first_call_ms",
        Wire.List
          (List.map
             (fun (case, firsts) ->
               Wire.Obj
                 (("case", Wire.String case)
                 :: List.concat_map
                      (fun (verb, c_ms, s_ms, _) ->
                        [ (verb ^ "_compiled", Wire.Float (r2 c_ms)); (verb ^ "_solver", Wire.Float (r2 s_ms)) ])
                      firsts))
             first_rows) );
      ("targets_identical", Wire.Bool !targets_identical);
      ("corpus_identical", Wire.Bool corpus_identical);
    ]
