(** The unified exploration budget.

    One value carries every resource cap a Violet run obeys: the wall-clock
    deadline, the state cap, the per-state fuel and the per-query solver node
    budget.  The same [t] is threaded from {!Core.Pipeline} through
    {!Vsymexec.Executor} down to {!Vsmt.Solver}, replacing the scattered
    integer caps the layers used to carry separately.

    A budget is a pure {e specification}; {!arm} starts its clock.  The armed
    value answers the only questions the engine asks while running: has the
    deadline passed ({!expired}), and how close is it
    ({!pressure}, which drives the graceful-degradation ladder).

    The clock is injectable ([now]) so tests and benchmarks can run the whole
    pipeline on a virtual clock — this is what makes a resumed run's impact
    model byte-identical to an uninterrupted one, wall-time metadata
    included. *)

type t = {
  deadline_s : float option;  (** wall-clock allowance; [None] = no deadline *)
  max_states : int;  (** cap on symbolic states ever created *)
  fuel : int;  (** per-state statement budget *)
  solver_max_nodes : int;  (** per-query solver search budget *)
  now : unit -> float;  (** the clock; defaults to [Unix.gettimeofday] *)
}

val make :
  ?deadline_s:float ->
  ?max_states:int ->
  ?fuel:int ->
  ?solver_max_nodes:int ->
  ?now:(unit -> float) ->
  unit ->
  t
(** Defaults: no deadline, [max_states] 4096, [fuel] 200_000,
    [solver_max_nodes] 4_000, real clock. *)

val default : t

val with_deadline : t -> float option -> t
val with_max_states : t -> int -> t
val with_clock : t -> (unit -> float) -> t

(** {1 Armed budgets} *)

type armed
(** A budget whose clock has started. *)

val arm : t -> armed
val spec : armed -> t
val elapsed_s : armed -> float
val remaining_s : armed -> float option
(** [None] when the budget has no deadline. *)

val expired : armed -> bool
(** True once [elapsed_s >= deadline_s].  Always false without a deadline. *)

val pressure : armed -> float
(** Fraction of the deadline consumed, clamped to [0..1]; [0.] without a
    deadline.  The degradation ladder's input. *)

val rearm : armed -> armed
(** A fresh armed budget with the same spec — the clock restarts now.  The
    serving layer holds one per-request budget specification and re-arms it
    for every admitted request instead of rebuilding the spec each time, so
    all requests share one deadline/cap policy (and one injectable clock). *)

val unlimited : unit -> armed
(** An armed default budget with no deadline — never expires. *)

(** {1 Test clocks} *)

val ticking_clock : ?start:float -> step_s:float -> unit -> unit -> float
(** A deterministic clock that advances by [step_s] on every read.  Lets
    deadline pressure grow with engine activity, reproducibly. *)

val manual_clock : ?start:float -> unit -> (unit -> float) * (float -> unit)
(** [(now, advance)]: a clock that only moves when [advance dt] is called. *)
