(** Per-run exploration telemetry.

    The executor drives a {!recorder} while it runs (one bump per event, a
    throttled queue-depth sample per state pick) and {!finish}es it into an
    immutable {!t} that rides on the executor result.  [t] serializes to JSON
    so the bench harness can dump trajectories ([--stats-out]) without any
    external JSON dependency. *)

type sample = { step : int; queue_depth : int }

type completion = {
  state_id : int;
  at_step : int;  (** global step counter when the state reached a terminal
                      status — the "state steps" currency searcher
                      comparisons are measured in *)
  dropped : bool;  (** killed rather than terminated *)
}

type batch = { b_batches : int; b_queries : int; b_saved : int }
(** Batched-feasibility accounting: [b_batches] counts executor aggregation
    events (a fork's true/false pair, a loop-exit probe), [b_queries] the
    feasibility queries inside them, [b_saved] the queries answered without
    a solver round-trip (served by a cache probe). *)

type query_sizes = {
  pre_constraints : int;  (** conjuncts across all queries, before slicing *)
  pre_nodes : int;  (** expression tree nodes across all queries, before slicing *)
  sent_constraints : int;  (** conjuncts actually sent to the solver layer *)
  sent_nodes : int;  (** tree nodes actually sent to the solver layer *)
  sliced : int;  (** queries where slicing removed at least one conjunct *)
  hist_pre : int array;  (** constraints-per-query histogram, before slicing *)
  hist_sent : int array;  (** constraints-per-query histogram, after slicing *)
}
(** Query-size accounting, measured at the executor (cache-independent):
    "pre" is the full simplified path condition a query would classically
    send, "sent" is what the independence slicer actually sent.  Histogram
    buckets are bounded by {!hist_thresholds} (last bucket = overflow). *)

val hist_thresholds : int array
(** Upper bounds of the histogram buckets ([[|1;2;4;8;16;32;64|]]); a query
    with [n] constraints lands in the first bucket with threshold >= [n]. *)

type t = {
  searcher : string;
  solver_cache_enabled : bool;
  states_created : int;
  states_completed : int;  (** reached [Terminated] *)
  states_dropped : int;  (** killed (infeasible, out of fuel, stuck) *)
  forks : int;
  steps : int;
  fork_rate : float;  (** forks per executed statement step *)
  solver_queries : int;  (** feasibility + model queries issued *)
  solver_solves : int;  (** queries that reached {!Vsmt.Solver} (= queries
                            when the cache is off) *)
  cache : Solver_cache.stats option;
  completions : completion list;  (** in completion order *)
  queue_samples : sample list;  (** (step, frontier depth) over time *)
  wall_time_s : float;
  degradation : Vresilience.Degradation.event list;
      (** every degradation-ladder rung entered, oldest first — the
          [degradation] section of the JSON dump.  Empty = complete run. *)
  deadline_hit : bool;  (** exploration was cut short by the deadline *)
  resumed : bool;  (** this run continued from a checkpoint *)
  query_sizes : query_sizes;
  memo_sizes : (string * int) list;
      (** sizes of the process's shared expression-level tables at finish
          time (lock-striped simplify/footprint memos summed across
          stripes, rendered strings, the shared hash-cons table, and — for
          cached runs — the run's solver-cache entry counts) — the
          observability hook for the bounded-memo policy *)
  batch : batch option;
      (** batched-feasibility counters; [None] when the run predates the
          batching layer (e.g. deserialized older telemetry) *)
}

(** {1 Recording} *)

type recorder

val recorder : searcher:string -> solver_cache_enabled:bool -> unit -> recorder
val on_step : recorder -> unit
val on_fork : recorder -> unit

val on_pick : recorder -> queue_depth:int -> unit
(** Called on every state selection; samples are kept at most once every 64
    steps (plus the first), so long runs stay small. *)

val on_complete : recorder -> state_id:int -> dropped:bool -> unit

val on_query :
  recorder ->
  pre_constraints:int ->
  pre_nodes:int ->
  sent_constraints:int ->
  sent_nodes:int ->
  unit
(** Called once per logical solver query (feasibility or model) with the
    query's size before and after independence slicing.  With slicing off
    the executor reports [sent = pre]. *)

val on_degrade : recorder -> Vresilience.Degradation.event -> unit
val steps : recorder -> int
(** Current step count — the timestamp currency for degradation events. *)

val copy : recorder -> recorder
(** A snapshot of the recorder, decoupled from further mutation — what the
    executor puts in a checkpoint. *)

val resume : recorder -> solver_cache_enabled:bool -> recorder
(** The recorder for a run that continues a checkpoint: a copy of the
    checkpointed one, marked resumed, whose next pick takes a queue sample
    as a fresh recorder's first pick does. *)

val completions : recorder -> completion list
(** Completion log so far, oldest first. *)

val set_completions : recorder -> completion list -> unit
(** Replace the completion log (oldest first) — the executor renumbers
    state ids by fork path and rewrites the log to match before
    {!finish}. *)

val finish :
  ?deadline_hit:bool ->
  ?memo_sizes:(string * int) list ->
  ?batch:batch ->
  recorder ->
  states_created:int ->
  solver_queries:int ->
  solver_solves:int ->
  cache:Solver_cache.stats option ->
  wall_time_s:float ->
  t

(** {1 Reporting} *)

val first_completion : t -> satisfying:(int -> bool) -> completion option
(** Earliest completion whose state id satisfies the predicate — e.g. "when
    did the first specious path finish". *)

val to_json : t -> string
val save : path:string -> t list -> unit
(** Write a JSON array of stats records. *)

val pp : t Fmt.t

(** {1 Serving telemetry}

    Counters for the continuous-checking service (vserve): per-request
    latency histograms and shed/batch accounting, dumped into the same
    hand-rolled JSON dialect as the exploration stats.  Kept here so every
    telemetry surface of the system shares one home and one JSON style. *)

type latency_hist
(** Power-of-two-bucketed latency histogram (microseconds, 28 buckets up to
    ~67 s; the last bucket is the overflow).  Mutable; not domain-safe —
    observe from the serving loop only. *)

val latency_hist : unit -> latency_hist
val observe_latency : latency_hist -> us:float -> unit
val latency_observations : latency_hist -> int
val latency_mean_us : latency_hist -> float

val latency_percentile_us : latency_hist -> float -> float
(** [latency_percentile_us h q] for [q] in [0..1]: the upper bound of the
    bucket holding the q-quantile observation (the recorded maximum for the
    overflow bucket); [0.] with no observations. *)

val merge_latency : into:latency_hist -> latency_hist -> unit
(** Bucket-wise sum — the fleet router folds per-shard histograms into one
    fleet-wide view with this. *)

val absorb_latency :
  latency_hist -> counts:int list -> mean_us:float -> max_us:float -> unit
(** {!merge_latency} for a histogram that arrived in serialized parts (a
    worker's stats JSON pulled over the wire): bucket counts sum, the
    observation total and sum are reconstructed from the mean. *)

val latency_hist_to_json : latency_hist -> string

type serve = {
  requests : int;  (** requests answered (check + service verbs) *)
  by_verb : (string * int) list;
  shed_queue_full : int;  (** rejected at admission: queue depth exceeded *)
  shed_deadline : int;
      (** degraded at execution: queue wait consumed the request deadline,
          so only the conservative widening ran *)
  batches : int;  (** batch groups executed *)
  batched_requests : int;  (** requests that shared a batch group *)
  coalesced : int;  (** requests served from an identical batch-mate *)
  write_failed : int;
      (** responses dropped because the client connection failed mid-write
          (the connection is closed; nothing truncated ever reaches a peer) *)
  model_reloads : int;
  model_load_failures : int;
  model_compiles : int;
      (** models compiled into decision tables at load/stage (DESIGN.md
          Section 5j); digest-unchanged refreshes don't recompile *)
  compile_wall_s : float;  (** wall time spent in those compilations *)
  models : (string * int) list;  (** live model keys and their generations *)
  latency : latency_hist;  (** enqueue-to-response, check requests only *)
}

val serve_to_json : serve -> string

(** {1 Fleet telemetry}

    The vfleet router/supervisor counters, aggregated across shards into the
    same JSON dialect.  [fs_stats] carries each worker's own {!serve} JSON
    verbatim (the router collects it over the wire), so a fleet stats dump
    nests the complete per-shard picture. *)

type fleet_shard = {
  fs_id : int;  (** shard index (position on the hash ring) *)
  fs_pid : int;  (** current worker pid; 0 when down *)
  fs_state : string;  (** ["up"], ["down"], ["restarting"], or ["tripped"] *)
  fs_restarts : int;  (** times the supervisor respawned this shard *)
  fs_breaker_trips : int;  (** crash-loop / failure breaker openings *)
  fs_failures : int;  (** probe failures + dispatch errors charged here *)
  fs_stats : string option;  (** the worker's own serve-stats JSON, verbatim *)
}

type fleet = {
  f_shards : fleet_shard list;
  f_routed : int;  (** check requests dispatched to a worker *)
  f_retries : int;  (** re-dispatches after a retryable error *)
  f_failovers : int;  (** re-dispatches that switched to a sibling shard *)
  f_timeouts : int;  (** per-attempt deadlines that expired *)
  f_stale_responses : int;  (** late answers for already-answered requests *)
  f_fallback_degraded : int;
      (** requests answered from the router's conservative widening because
          every candidate shard was down past its budget *)
  f_shed : int;  (** rejected at router admission (pending table full) *)
  f_write_failed : int;  (** router responses dropped on dead client conns *)
  f_reloads_staged : int;  (** fleet-wide stage rounds that fully succeeded *)
  f_reloads_committed : int;  (** fleet-wide generation flips completed *)
  f_latency : latency_hist;  (** router-observed dispatch-to-answer *)
}

val fleet_shard_to_json : fleet_shard -> string
val fleet_to_json : fleet -> string
