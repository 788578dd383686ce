(** Per-run exploration telemetry.

    The executor drives a {!recorder} while it runs (one bump per event, a
    throttled queue-depth sample per state pick) and {!finish}es it into an
    immutable {!t} that rides on the executor result. *)

type sample = { step : int; queue_depth : int }

type completion = {
  state_id : int;
  at_step : int;  (** global step counter when the state reached a terminal
                      status — the "state steps" currency searcher
                      comparisons are measured in *)
  dropped : bool;  (** killed rather than terminated *)
}

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
      (** every degradation-ladder rung entered, oldest first.  Empty =
          complete run. *)
  deadline_hit : bool;  (** exploration was cut short by the deadline *)
  resumed : bool;  (** this run continued from a checkpoint *)
  query_sizes : query_sizes;
  memo_sizes : (string * int) list;
      (** sizes of the process's shared expression-level tables at finish
          time (lock-striped simplify/footprint memos summed across
          stripes, rendered strings, the shared hash-cons table, and — for
          cached runs — the run's solver-cache entry counts) — the
          observability hook for the bounded-memo policy *)
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

val pp : t Fmt.t
