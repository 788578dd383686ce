(* The --jobs sweep (DESIGN.md Section 5e): end-to-end wall time of the
   MySQL autocommit analysis at --jobs 1/2/4/8.  Exploration is sequential
   at every job count; --jobs spreads only the pairwise diff screen over
   domains, so the impact model must be byte-identical throughout (modulo
   the real-wall-clock field).  Emits BENCH_par.json, stamped with the
   machine's cores, OCaml version and commit, next to the console table. *)

let target = Targets.Mysql_model.target
let param = "autocommit"
let job_counts = [ 1; 2; 4; 8 ]
let runs_per_point = 3

type point = {
  p_jobs : int;
  p_wall_s : float;  (** median over [runs_per_point] *)
  p_speedup : float;  (** vs the jobs=1 point *)
  p_cache_hit_rate : float;
  p_batches : int;
  p_queries_per_batch : float;
  p_batch_saved : int;
  p_model : string;  (** serialized model, wall clock scrubbed *)
}

let run_point ~jobs =
  let opts = { Violet.Pipeline.default_options with Violet.Pipeline.jobs } in
  let results =
    List.init runs_per_point (fun _ ->
        let t0 = Unix.gettimeofday () in
        let a = Violet.Pipeline.analyze_exn ~opts target param in
        let wall = Unix.gettimeofday () -. t0 in
        wall, a)
  in
  let walls = List.sort Float.compare (List.map fst results) in
  let median = List.nth walls (List.length walls / 2) in
  let _, a = List.hd results in
  let sched = a.Violet.Pipeline.result.Vsymexec.Executor.sched in
  Util.record_sched sched;
  let hit_rate =
    match sched.Vsched.Exploration_stats.cache with
    | Some c -> Vsched.Solver_cache.hit_rate c
    | None -> 0.
  in
  let batches, queries_per_batch, batch_saved =
    match sched.Vsched.Exploration_stats.batch with
    | Some b ->
      ( b.Vsched.Exploration_stats.b_batches,
        (if b.Vsched.Exploration_stats.b_batches = 0 then 0.
         else
           float_of_int b.Vsched.Exploration_stats.b_queries
           /. float_of_int b.Vsched.Exploration_stats.b_batches),
        b.Vsched.Exploration_stats.b_saved )
    | None -> 0, 0., 0
  in
  {
    p_jobs = jobs;
    p_wall_s = median;
    p_speedup = 1.0;
    p_cache_hit_rate = hit_rate;
    p_batches = batches;
    p_queries_per_batch = queries_per_batch;
    p_batch_saved = batch_saved;
    p_model = Vfuzz.Oracle.model_fingerprint a.Violet.Pipeline.model;
  }

let json_of ~points ~byte_identical =
  let row p =
    Printf.sprintf
      "{\"jobs\":%d,\"wall_s\":%.4f,\"speedup\":%.3f,\"cache_hit_rate\":%.4f,\"feas_batches\":%d,\"queries_per_batch\":%.2f,\"batch_saved_roundtrips\":%d}"
      p.p_jobs p.p_wall_s p.p_speedup p.p_cache_hit_rate p.p_batches p.p_queries_per_batch
      p.p_batch_saved
  in
  Printf.sprintf
    "{\"experiment\":\"par\",\"system\":\"mysql\",\"param\":%S,%s,\"byte_identical_default\":%b,\"points\":[%s]}"
    param (Util.env_json_fields ()) byte_identical
    (String.concat "," (List.map row points))

let run () =
  Util.section "The --jobs sweep: wall time and byte-identity";
  let points = List.map (fun jobs -> run_point ~jobs) job_counts in
  let base = (List.hd points).p_wall_s in
  let points =
    List.map (fun p -> { p with p_speedup = base /. Float.max p.p_wall_s 1e-9 }) points
  in
  let reference = (List.hd points).p_model in
  let byte_identical = List.for_all (fun p -> String.equal p.p_model reference) points in
  let cores = Domain.recommended_domain_count () in
  Util.print_table
    ~header:
      [
        "jobs"; "wall (median of 3)"; "speedup"; "hit rate"; "batches"; "q/batch"; "saved";
        "identity";
      ]
    (List.map
       (fun p ->
         [
           Util.i0 p.p_jobs;
           Printf.sprintf "%.3f s" p.p_wall_s;
           Util.fx p.p_speedup;
           Printf.sprintf "%.1f%%" (100. *. p.p_cache_hit_rate);
           Util.i0 p.p_batches;
           Util.f2 p.p_queries_per_batch;
           Util.i0 p.p_batch_saved;
           (if String.equal p.p_model reference then "bytes" else "DIVERGED");
         ])
       points);
  Util.note "machine has %d core(s); speedup past 1.0x needs real cores" cores;
  if not byte_identical then
    Util.note "WARNING: impact model diverged across job counts";
  let json = json_of ~points ~byte_identical in
  let oc = open_out "BENCH_par.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Util.note "wrote BENCH_par.json"
