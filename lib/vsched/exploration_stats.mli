(** Per-run exploration telemetry.

    The executor drives a {!recorder} while it runs (one bump per event) and
    {!finish}es it into an immutable {!t} that rides on the executor
    result. *)

type query_sizes = {
  pre_constraints : int;  (** conjuncts across all queries, before slicing *)
  sent_constraints : int;  (** conjuncts actually sent to the solver layer *)
  sliced : int;  (** queries where slicing removed at least one conjunct *)
}
(** Query-size accounting, measured at the executor (memo-independent):
    "pre" is the full simplified path condition a query would classically
    send, "sent" is what the independence slicer actually sent. *)

type t = {
  states_created : int;
  states_completed : int;  (** reached [Terminated] *)
  states_dropped : int;  (** killed (infeasible, out of fuel, stuck) *)
  forks : int;
  steps : int;
  fork_rate : float;  (** forks per executed statement step *)
  solver_queries : int;  (** feasibility + model queries issued *)
  solver_solves : int;  (** lookups that reached {!Vsmt.Solver} *)
  cache : Solver_cache.stats option;  (** the run's solver memo; always [Some] *)
  wall_time_s : float;
  degradation : Vresilience.Degradation.event list;
      (** every degradation-ladder rung entered, oldest first.  Empty =
          complete run. *)
  deadline_hit : bool;  (** exploration was cut short by the deadline *)
  resumed : bool;  (** this run continued from a checkpoint *)
  query_sizes : query_sizes;
}
(** Every counter counts this run's own events (a query costs one
    [List.length] per constraint list), so a run's record depends on that
    run alone, not on what the process interned or rendered before it
    started. *)

(** {1 Recording} *)

type recorder

val recorder : unit -> recorder
val on_step : recorder -> unit
val on_fork : recorder -> unit
val on_complete : recorder -> dropped:bool -> unit

val on_query : recorder -> pre_constraints:int -> sent_constraints:int -> unit
(** Called once per logical solver query (feasibility or model) with the
    query's size before and after independence slicing.  With slicing off
    the executor reports [sent = pre]. *)

val on_degrade : recorder -> Vresilience.Degradation.event -> unit
val steps : recorder -> int
(** Current step count — the timestamp currency for degradation events. *)

val copy : recorder -> recorder
(** A snapshot of the recorder, decoupled from further mutation — what the
    executor puts in a checkpoint. *)

val resume : recorder -> recorder
(** The recorder for a run that continues a checkpoint: a copy of the
    checkpointed one, marked resumed.  The resumed run's memo starts empty,
    so its [cache] counters and [solver_solves] cover only the resumed
    part, while the other counters cover the whole run. *)

val finish :
  ?deadline_hit:bool ->
  recorder ->
  states_created:int ->
  solver_queries:int ->
  cache:Solver_cache.stats ->
  wall_time_s:float ->
  t
(** [solver_solves] is the memo's miss count. *)

(** {1 Reporting} *)

val pp : t Fmt.t
