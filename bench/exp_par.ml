(* The --jobs sweep (DESIGN.md Section 5e): end-to-end wall time of the
   MySQL autocommit analysis at --jobs 1/2/4/8.  Exploration is sequential
   at every job count; --jobs spreads only the pairwise diff screen over
   domains, so the impact model must be byte-identical throughout (modulo
   the real-wall-clock field).  Emits BENCH_par.json, stamped with the
   machine's cores, OCaml version and commit, next to the console table. *)

module Wire = Vserve.Wire

let target = Targets.Mysql_model.target
let param = "autocommit"
let job_counts = [ 1; 2; 4; 8 ]
let runs_per_point = 3

type point = {
  p_jobs : int;
  p_wall_s : float;  (** median over [runs_per_point] *)
  p_speedup : float;  (** vs the jobs=1 point *)
  p_cache_hit_rate : float;
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
  {
    p_jobs = jobs;
    p_wall_s = median;
    p_speedup = 1.0;
    p_cache_hit_rate = hit_rate;
    p_model = Vmodel.Impact_model.content_string a.Violet.Pipeline.model;
  }

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
    ~header:[ "jobs"; "wall (median of 3)"; "speedup"; "hit rate"; "identity" ]
    (List.map
       (fun p ->
         [
           Util.i0 p.p_jobs;
           Printf.sprintf "%.3f s" p.p_wall_s;
           Util.fx p.p_speedup;
           Printf.sprintf "%.1f%%" (100. *. p.p_cache_hit_rate);
           (if String.equal p.p_model reference then "bytes" else "DIVERGED");
         ])
       points);
  Util.note "machine has %d core(s); speedup past 1.0x needs real cores" cores;
  if not byte_identical then
    Util.note "WARNING: impact model diverged across job counts";
  let point p =
    Wire.Obj
      [
        ("jobs", Wire.Int p.p_jobs);
        ("wall_s", Wire.Float (Util.round 4 p.p_wall_s));
        ("speedup", Wire.Float (Util.round 3 p.p_speedup));
        ("cache_hit_rate", Wire.Float (Util.round 4 p.p_cache_hit_rate));
      ]
  in
  Util.write_bench "par"
    [
      ("system", Wire.String "mysql");
      ("param", Wire.String param);
      ("byte_identical_default", Wire.Bool byte_identical);
      ("points", Wire.List (List.map point points));
    ]
