type sample = { step : int; queue_depth : int }
type completion = { state_id : int; at_step : int; dropped : bool }

(* Query-size histogram buckets: a query with [n] constraints lands in the
   first bucket whose threshold is >= n; the final bucket catches the rest. *)
let hist_thresholds = [| 1; 2; 4; 8; 16; 32; 64 |]
let n_hist_buckets = Array.length hist_thresholds + 1

let hist_bucket n =
  let rec go i =
    if i >= Array.length hist_thresholds then i
    else if n <= hist_thresholds.(i) then i
    else go (i + 1)
  in
  go 0

type query_sizes = {
  pre_constraints : int;  (* conjuncts across all queries, before slicing *)
  pre_nodes : int;  (* expression tree nodes, before slicing *)
  sent_constraints : int;  (* conjuncts actually sent (after slicing) *)
  sent_nodes : int;
  sliced : int;  (* queries where slicing removed at least one conjunct *)
  hist_pre : int array;  (* constraints-per-query histogram, before slicing *)
  hist_sent : int array;  (* same, after slicing *)
}

(* Batched-feasibility accounting: one batch per executor aggregation event
   (a fork's true/false pair, a loop-exit probe), [saved] counts the queries
   in those batches answered without a solver round-trip. *)
type batch = { b_batches : int; b_queries : int; b_saved : int }

type t = {
  searcher : string;
  solver_cache_enabled : bool;
  states_created : int;
  states_completed : int;
  states_dropped : int;
  forks : int;
  steps : int;
  fork_rate : float;
  solver_queries : int;
  solver_solves : int;
  cache : Solver_cache.stats option;
  completions : completion list;
  queue_samples : sample list;
  wall_time_s : float;
  degradation : Vresilience.Degradation.event list;
  deadline_hit : bool;
  resumed : bool;
  query_sizes : query_sizes;
  memo_sizes : (string * int) list;
  batch : batch option;
}

(* ------------------------------------------------------------------ *)

type recorder = {
  r_searcher : string;
  r_cache_enabled : bool;
  mutable r_resumed : bool;
  mutable r_steps : int;
  mutable r_forks : int;
  mutable r_completions : completion list;  (* newest first *)
  mutable r_samples : sample list;  (* newest first *)
  mutable r_last_sample_step : int;
  mutable r_degradation : Vresilience.Degradation.event list;  (* newest first *)
  mutable r_q_pre_constraints : int;
  mutable r_q_pre_nodes : int;
  mutable r_q_sent_constraints : int;
  mutable r_q_sent_nodes : int;
  mutable r_q_sliced : int;
  r_hist_pre : int array;
  r_hist_sent : int array;
}

let sample_every = 64

let recorder ~searcher ~solver_cache_enabled () =
  {
    r_searcher = searcher;
    r_cache_enabled = solver_cache_enabled;
    r_resumed = false;
    r_steps = 0;
    r_forks = 0;
    r_completions = [];
    r_samples = [];
    r_last_sample_step = -sample_every;  (* so the very first pick samples *)
    r_degradation = [];
    r_q_pre_constraints = 0;
    r_q_pre_nodes = 0;
    r_q_sent_constraints = 0;
    r_q_sent_nodes = 0;
    r_q_sliced = 0;
    r_hist_pre = Array.make n_hist_buckets 0;
    r_hist_sent = Array.make n_hist_buckets 0;
  }

let on_step r = r.r_steps <- r.r_steps + 1
let on_fork r = r.r_forks <- r.r_forks + 1
let on_degrade r ev = r.r_degradation <- ev :: r.r_degradation
let steps r = r.r_steps

let copy r =
  { r with r_hist_pre = Array.copy r.r_hist_pre; r_hist_sent = Array.copy r.r_hist_sent }

let on_query r ~pre_constraints ~pre_nodes ~sent_constraints ~sent_nodes =
  r.r_q_pre_constraints <- r.r_q_pre_constraints + pre_constraints;
  r.r_q_pre_nodes <- r.r_q_pre_nodes + pre_nodes;
  r.r_q_sent_constraints <- r.r_q_sent_constraints + sent_constraints;
  r.r_q_sent_nodes <- r.r_q_sent_nodes + sent_nodes;
  if sent_constraints < pre_constraints then r.r_q_sliced <- r.r_q_sliced + 1;
  let bp = hist_bucket pre_constraints and bs = hist_bucket sent_constraints in
  r.r_hist_pre.(bp) <- r.r_hist_pre.(bp) + 1;
  r.r_hist_sent.(bs) <- r.r_hist_sent.(bs) + 1

let on_pick r ~queue_depth =
  if r.r_steps - r.r_last_sample_step >= sample_every then begin
    r.r_samples <- { step = r.r_steps; queue_depth } :: r.r_samples;
    r.r_last_sample_step <- r.r_steps
  end

let on_complete r ~state_id ~dropped =
  r.r_completions <- { state_id; at_step = r.r_steps; dropped } :: r.r_completions

(* A resumed run carries the checkpointed counters and logs on; like a
   fresh recorder, its first pick takes a queue sample. *)
let resume r ~solver_cache_enabled =
  {
    (copy r) with
    r_cache_enabled = solver_cache_enabled;
    r_resumed = true;
    r_last_sample_step = -sample_every;
  }

let completions r = List.rev r.r_completions
let set_completions r cs = r.r_completions <- List.rev cs

let finish ?(deadline_hit = false) ?(memo_sizes = []) ?batch r
    ~states_created ~solver_queries ~solver_solves ~cache ~wall_time_s =
  let completions = List.rev r.r_completions in
  let dropped = List.length (List.filter (fun c -> c.dropped) completions) in
  {
    searcher = r.r_searcher;
    solver_cache_enabled = r.r_cache_enabled;
    states_created;
    states_completed = List.length completions - dropped;
    states_dropped = dropped;
    forks = r.r_forks;
    steps = r.r_steps;
    fork_rate = (if r.r_steps = 0 then 0. else float_of_int r.r_forks /. float_of_int r.r_steps);
    solver_queries;
    solver_solves;
    cache;
    completions;
    queue_samples = List.rev r.r_samples;
    wall_time_s;
    degradation = List.rev r.r_degradation;
    deadline_hit;
    resumed = r.r_resumed;
    query_sizes =
      {
        pre_constraints = r.r_q_pre_constraints;
        pre_nodes = r.r_q_pre_nodes;
        sent_constraints = r.r_q_sent_constraints;
        sent_nodes = r.r_q_sent_nodes;
        sliced = r.r_q_sliced;
        hist_pre = Array.copy r.r_hist_pre;
        hist_sent = Array.copy r.r_hist_sent;
      };
    memo_sizes;
    batch;
  }

let first_completion t ~satisfying =
  List.find_opt (fun c -> satisfying c.state_id) t.completions

(* ------------------------------------------------------------------ *)
(* JSON, hand-rolled: flat records of numbers and one string field.    *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let cache_to_json (c : Solver_cache.stats) =
  Printf.sprintf
    "{\"lookups\":%d,\"exact_hits\":%d,\"cex_hits\":%d,\"subsumption_hits\":%d,\"misses\":%d,\"stored_models\":%d,\"stored_cores\":%d,\"hit_rate\":%s,\"solver_constraints\":%d,\"solver_nodes\":%d,\"unknown_purged\":%d}"
    c.Solver_cache.lookups c.Solver_cache.exact_hits c.Solver_cache.cex_hits
    c.Solver_cache.subsumption_hits c.Solver_cache.misses c.Solver_cache.stored_models
    c.Solver_cache.stored_cores
    (json_float (Solver_cache.hit_rate c))
    c.Solver_cache.solver_constraints c.Solver_cache.solver_nodes c.Solver_cache.unknown_purged

let batch_to_json b =
  Printf.sprintf
    "{\"batches\":%d,\"queries\":%d,\"queries_per_batch\":%s,\"saved_round_trips\":%d}"
    b.b_batches b.b_queries
    (json_float
       (if b.b_batches = 0 then 0. else float_of_int b.b_queries /. float_of_int b.b_batches))
    b.b_saved

let hist_to_json h =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list h)) ^ "]"

let query_sizes_to_json q =
  Printf.sprintf
    "{\"pre_constraints\":%d,\"pre_nodes\":%d,\"sent_constraints\":%d,\"sent_nodes\":%d,\"sliced_queries\":%d,\"hist_thresholds\":%s,\"hist_pre\":%s,\"hist_sent\":%s}"
    q.pre_constraints q.pre_nodes q.sent_constraints q.sent_nodes q.sliced
    (hist_to_json hist_thresholds) (hist_to_json q.hist_pre) (hist_to_json q.hist_sent)

let memo_sizes_to_json ms =
  "{"
  ^ String.concat ","
      (List.map (fun (name, n) -> Printf.sprintf "\"%s\":%d" (json_escape name) n) ms)
  ^ "}"

let degradation_to_json evs =
  evs
  |> List.map (fun (e : Vresilience.Degradation.event) ->
         Printf.sprintf "{\"rung\":\"%s\",\"at_step\":%d,\"pressure\":%s}"
           (Vresilience.Degradation.rung_to_string e.Vresilience.Degradation.rung)
           e.Vresilience.Degradation.at_step
           (json_float e.Vresilience.Degradation.pressure))
  |> String.concat ","

let to_json t =
  let completions =
    t.completions
    |> List.map (fun c ->
           Printf.sprintf "{\"state_id\":%d,\"at_step\":%d,\"dropped\":%b}" c.state_id
             c.at_step c.dropped)
    |> String.concat ","
  in
  let samples =
    t.queue_samples
    |> List.map (fun s -> Printf.sprintf "{\"step\":%d,\"queue_depth\":%d}" s.step s.queue_depth)
    |> String.concat ","
  in
  Printf.sprintf
    "{\"searcher\":\"%s\",\"solver_cache_enabled\":%b,\"states_created\":%d,\"states_completed\":%d,\"states_dropped\":%d,\"forks\":%d,\"steps\":%d,\"fork_rate\":%s,\"solver_queries\":%d,\"solver_solves\":%d,\"cache\":%s,\"completions\":[%s],\"queue_samples\":[%s],\"wall_time_s\":%s,\"degradation\":[%s],\"deadline_hit\":%b,\"resumed\":%b,\"query_sizes\":%s,\"memo_sizes\":%s,\"feas_batches\":%s}"
    (json_escape t.searcher) t.solver_cache_enabled t.states_created t.states_completed
    t.states_dropped t.forks t.steps (json_float t.fork_rate) t.solver_queries t.solver_solves
    (match t.cache with None -> "null" | Some c -> cache_to_json c)
    completions samples (json_float t.wall_time_s)
    (degradation_to_json t.degradation)
    t.deadline_hit t.resumed
    (query_sizes_to_json t.query_sizes)
    (memo_sizes_to_json t.memo_sizes)
    (match t.batch with None -> "null" | Some b -> batch_to_json b)

let save ~path ts =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i t ->
          if i > 0 then output_string oc ",\n";
          output_string oc (to_json t))
        ts;
      output_string oc "\n]\n")

(* ------------------------------------------------------------------ *)
(* Serving telemetry (vserve)                                          *)
(* ------------------------------------------------------------------ *)

(* power-of-two microsecond buckets: bucket i counts latencies <= 2^i us;
   27 buckets reach ~67 s, the last bucket is the overflow *)
let latency_buckets = 28

type latency_hist = {
  counts : int array;
  mutable observations : int;
  mutable sum_us : float;
  mutable max_us : float;
}

let latency_hist () =
  { counts = Array.make latency_buckets 0; observations = 0; sum_us = 0.; max_us = 0. }

let latency_bucket us =
  let rec go i = if i >= latency_buckets - 1 || us <= float_of_int (1 lsl i) then i else go (i + 1) in
  go 0

let observe_latency h ~us =
  let us = Float.max 0. us in
  let b = latency_bucket us in
  h.counts.(b) <- h.counts.(b) + 1;
  h.observations <- h.observations + 1;
  h.sum_us <- h.sum_us +. us;
  h.max_us <- Float.max h.max_us us

let latency_observations h = h.observations
let latency_mean_us h = if h.observations = 0 then 0. else h.sum_us /. float_of_int h.observations

let latency_percentile_us h q =
  if h.observations = 0 then 0.
  else begin
    let rank = Float.max 1. (Float.round (q *. float_of_int h.observations)) in
    let rec go i seen =
      if i >= latency_buckets then h.max_us
      else
        let seen = seen + h.counts.(i) in
        if float_of_int seen >= rank then
          if i = latency_buckets - 1 then h.max_us else float_of_int (1 lsl i)
        else go (i + 1) seen
    in
    go 0 0
  end

let merge_latency ~into h =
  Array.iteri (fun i v -> into.counts.(i) <- into.counts.(i) + v) h.counts;
  into.observations <- into.observations + h.observations;
  into.sum_us <- into.sum_us +. h.sum_us;
  into.max_us <- Float.max into.max_us h.max_us

(* fold in a histogram that arrived as serialized parts (a worker's stats
   JSON crossing the wire); the exact sum is reconstructed from the mean *)
let absorb_latency into ~counts ~mean_us ~max_us =
  List.iteri
    (fun i v -> if i < latency_buckets then into.counts.(i) <- into.counts.(i) + v)
    counts;
  let n = List.fold_left ( + ) 0 counts in
  into.observations <- into.observations + n;
  into.sum_us <- into.sum_us +. (mean_us *. float_of_int n);
  into.max_us <- Float.max into.max_us max_us

let latency_hist_to_json h =
  Printf.sprintf
    "{\"observations\":%d,\"mean_us\":%s,\"max_us\":%s,\"p50_us\":%s,\"p90_us\":%s,\"p99_us\":%s,\"bucket_counts\":%s}"
    h.observations
    (json_float (latency_mean_us h))
    (json_float h.max_us)
    (json_float (latency_percentile_us h 0.50))
    (json_float (latency_percentile_us h 0.90))
    (json_float (latency_percentile_us h 0.99))
    (hist_to_json h.counts)

type serve = {
  requests : int;
  by_verb : (string * int) list;
  shed_queue_full : int;
  shed_deadline : int;
  batches : int;
  batched_requests : int;
  coalesced : int;
  write_failed : int;
  model_reloads : int;
  model_load_failures : int;
  model_compiles : int;
  compile_wall_s : float;
  models : (string * int) list;
  latency : latency_hist;
}

let serve_to_json s =
  let counts kvs =
    "{"
    ^ String.concat ","
        (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" (json_escape k) n) kvs)
    ^ "}"
  in
  Printf.sprintf
    "{\"requests\":%d,\"by_verb\":%s,\"shed_queue_full\":%d,\"shed_deadline\":%d,\"batches\":%d,\"batched_requests\":%d,\"coalesced\":%d,\"write_failed\":%d,\"model_reloads\":%d,\"model_load_failures\":%d,\"model_compiles\":%d,\"compile_wall_s\":%s,\"models\":%s,\"latency\":%s}"
    s.requests (counts s.by_verb) s.shed_queue_full s.shed_deadline s.batches
    s.batched_requests s.coalesced s.write_failed s.model_reloads s.model_load_failures
    s.model_compiles (json_float s.compile_wall_s)
    (counts s.models)
    (latency_hist_to_json s.latency)

(* ------------------------------------------------------------------ *)
(* Fleet telemetry (vfleet)                                            *)
(* ------------------------------------------------------------------ *)

type fleet_shard = {
  fs_id : int;
  fs_pid : int;
  fs_state : string;
  fs_restarts : int;
  fs_breaker_trips : int;
  fs_failures : int;
  fs_stats : string option;
}

type fleet = {
  f_shards : fleet_shard list;
  f_routed : int;
  f_retries : int;
  f_failovers : int;
  f_timeouts : int;
  f_stale_responses : int;
  f_fallback_degraded : int;
  f_shed : int;
  f_write_failed : int;
  f_reloads_staged : int;
  f_reloads_committed : int;
  f_latency : latency_hist;
}

let fleet_shard_to_json s =
  Printf.sprintf
    "{\"id\":%d,\"pid\":%d,\"state\":\"%s\",\"restarts\":%d,\"breaker_trips\":%d,\"failures\":%d,\"stats\":%s}"
    s.fs_id s.fs_pid (json_escape s.fs_state) s.fs_restarts s.fs_breaker_trips s.fs_failures
    (match s.fs_stats with None -> "null" | Some j -> j)

let fleet_to_json f =
  Printf.sprintf
    "{\"shards\":[%s],\"routed\":%d,\"retries\":%d,\"failovers\":%d,\"timeouts\":%d,\"stale_responses\":%d,\"fallback_degraded\":%d,\"shed\":%d,\"write_failed\":%d,\"reloads_staged\":%d,\"reloads_committed\":%d,\"latency\":%s}"
    (String.concat "," (List.map fleet_shard_to_json f.f_shards))
    f.f_routed f.f_retries f.f_failovers f.f_timeouts f.f_stale_responses
    f.f_fallback_degraded f.f_shed f.f_write_failed f.f_reloads_staged f.f_reloads_committed
    (latency_hist_to_json f.f_latency)

let pp ppf t =
  Fmt.pf ppf
    "searcher=%s states=%d (%d completed, %d dropped) forks=%d steps=%d fork_rate=%.4f solver=%d/%d%a%a%s%s"
    t.searcher t.states_created t.states_completed t.states_dropped t.forks t.steps t.fork_rate
    t.solver_solves t.solver_queries
    (fun ppf -> function
      | None -> ()
      | Some c -> Fmt.pf ppf " cache[%a]" Solver_cache.pp_stats c)
    t.cache
    (fun ppf -> function
      | [] -> ()
      | evs ->
        Fmt.pf ppf " degraded[%s]"
          (String.concat " -> "
             (List.map
                (fun (e : Vresilience.Degradation.event) ->
                  Vresilience.Degradation.rung_to_string e.Vresilience.Degradation.rung)
                evs)))
    t.degradation
    (if t.deadline_hit then " DEADLINE" else "")
    (if t.resumed then " resumed" else "");
  if t.query_sizes.pre_constraints > 0 then
    Fmt.pf ppf " slice[constraints=%d/%d nodes=%d/%d sliced_queries=%d]"
      t.query_sizes.sent_constraints t.query_sizes.pre_constraints t.query_sizes.sent_nodes
      t.query_sizes.pre_nodes t.query_sizes.sliced;
  if t.memo_sizes <> [] then
    Fmt.pf ppf " memo[%s]"
      (String.concat " " (List.map (fun (n, s) -> Printf.sprintf "%s=%d" n s) t.memo_sizes));
  (match t.batch with
  | Some b when b.b_batches > 0 ->
    Fmt.pf ppf " batch[batches=%d queries/batch=%.2f saved=%d]" b.b_batches
      (float_of_int b.b_queries /. float_of_int b.b_batches)
      b.b_saved
  | _ -> ())
