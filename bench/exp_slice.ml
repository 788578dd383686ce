(* Independence slicing (DESIGN.md Section 5f): how much of each path
   condition actually reaches the solver once queries are restricted to the
   symbol-disjoint slices touching the branch condition — measured on the
   four target systems, slicing on vs off.  Each query groups its own path
   condition into slices ([Vsmt.Partition]); no state carries a partition.

   Two contracts are checked and recorded in BENCH_slice.json:
   - constraint_guard: slicing never increases the conjuncts sent to the
     solver (the nightly CI job greps for "constraint_guard_ok":true).  A
     sliced query is a sub-list of its path condition
     ([Vsmt.Partition.relevant pc fp]), so a tree that sends more than
     that reads false;
   - deterministic: the impact model is byte-identical with slicing on or
     off (modulo the real-wall-clock field). *)

module Wire = Vserve.Wire

let cases =
  [
    "mysql", "autocommit";
    "postgres", "wal_sync_method";
    "apache", "HostnameLookups";
    "squid", "cache";
  ]

type run_stats = {
  r_wall_s : float;
  r_solver_calls : int;
  r_pre_constraints : int;
  r_sent_constraints : int;
  r_sliced_queries : int;
  r_cache_hit_rate : float;
  r_model : string;  (** scrubbed serialized model *)
}

let run_once ~slice target param =
  let opts = { Violet.Pipeline.default_options with Violet.Pipeline.slice } in
  let t0 = Unix.gettimeofday () in
  let a = Violet.Pipeline.analyze_exn ~opts target param in
  let wall = Unix.gettimeofday () -. t0 in
  let sched = a.Violet.Pipeline.result.Vsymexec.Executor.sched in
  Util.record_sched sched;
  let q = sched.Vsched.Exploration_stats.query_sizes in
  let hit_rate =
    match sched.Vsched.Exploration_stats.cache with
    | Some c -> Vsched.Solver_cache.hit_rate c
    | None -> 0.
  in
  {
    r_wall_s = wall;
    r_solver_calls = sched.Vsched.Exploration_stats.solver_queries;
    r_pre_constraints = q.Vsched.Exploration_stats.pre_constraints;
    r_sent_constraints = q.Vsched.Exploration_stats.sent_constraints;
    r_sliced_queries = q.Vsched.Exploration_stats.sliced;
    r_cache_hit_rate = hit_rate;
    r_model = Vmodel.Impact_model.content_string a.Violet.Pipeline.model;
  }

type point = {
  p_system : string;
  p_param : string;
  p_on : run_stats;
  p_off : run_stats;
  p_guard_ok : bool;  (** conjuncts sent with slicing <= conjuncts sent without *)
  p_identical : bool;  (** impact models byte-identical on vs off *)
}

let run_case (system, param) =
  let target = Targets.Cases.target_of system in
  let on = run_once ~slice:true target param in
  let off = run_once ~slice:false target param in
  {
    p_system = system;
    p_param = param;
    p_on = on;
    p_off = off;
    p_guard_ok = on.r_sent_constraints <= off.r_sent_constraints;
    p_identical = String.equal on.r_model off.r_model;
  }

let json_fields points ~constraint_guard_ok ~deterministic =
  let side r =
    Wire.Obj
      [
        ("wall_s", Wire.Float (Util.round 4 r.r_wall_s));
        ("solver_calls", Wire.Int r.r_solver_calls);
        ("pre_constraints", Wire.Int r.r_pre_constraints);
        ("sent_constraints", Wire.Int r.r_sent_constraints);
        ("sliced_queries", Wire.Int r.r_sliced_queries);
        ("cache_hit_rate", Wire.Float (Util.round 4 r.r_cache_hit_rate));
      ]
  in
  let row p =
    Wire.Obj
      [
        ("system", Wire.String p.p_system);
        ("param", Wire.String p.p_param);
        ("slice_on", side p.p_on);
        ("slice_off", side p.p_off);
        ("guard_ok", Wire.Bool p.p_guard_ok);
        ("model_identical", Wire.Bool p.p_identical);
      ]
  in
  [
    ("constraint_guard_ok", Wire.Bool constraint_guard_ok);
    ("deterministic", Wire.Bool deterministic);
    ("points", Wire.List (List.map row points));
  ]

let run () =
  Util.section "Independence slicing: solver work on vs off, model identity";
  let points = List.map run_case cases in
  let constraint_guard_ok = List.for_all (fun p -> p.p_guard_ok) points in
  let deterministic = List.for_all (fun p -> p.p_identical) points in
  Util.print_table
    ~header:
      [ "system"; "param"; "conjuncts sent (off)"; "conjuncts sent (on)"; "reduction";
        "sliced queries"; "model" ]
    (List.map
       (fun p ->
         let reduction =
           if p.p_off.r_sent_constraints = 0 then "n/a"
           else
             Printf.sprintf "%.1f%%"
               (100.
               *. (1.
                  -. (float_of_int p.p_on.r_sent_constraints
                     /. float_of_int p.p_off.r_sent_constraints)))
         in
         [
           p.p_system;
           p.p_param;
           Util.i0 p.p_off.r_sent_constraints;
           Util.i0 p.p_on.r_sent_constraints;
           reduction;
           Util.i0 p.p_on.r_sliced_queries;
           (if p.p_identical then "identical" else "DIVERGED");
         ])
       points);
  if not constraint_guard_ok then
    Util.note "WARNING: slicing increased the conjuncts sent on some case — guard violated";
  if not deterministic then
    Util.note "WARNING: impact model diverged between slicing on and off";
  Util.write_bench "slice" (json_fields points ~constraint_guard_ok ~deterministic)
