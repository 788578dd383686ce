(** The graceful-degradation ladder.

    When deadline pressure mounts, the executor does not simply die at the
    deadline with whatever happened to be finished — it degrades
    {e deterministically}, trading completeness for termination one rung at a
    time:

    + {!Reduced_unroll}: shrink the loop-unroll bound, cutting off the
      deepest path families first;
    + {!Concretize_all}: disable the Section 5.4 relaxation rules, so every
      library call concretizes its arguments aggressively ([concretizeAll])
      and path families collapse;
    + {!Drop_states}: drop the lowest-priority frontier states outright.

    Every rung entered is recorded as an {!event} and lands in the
    [degradation] section of the exploration telemetry and in the impact
    model itself, so a degraded model is never silently mistaken for a
    complete one.  Dropped paths are remembered with their
    constraints-so-far; the checker treats a configuration matching a
    dropped path conservatively (the specious set can only widen, never
    shrink, under degradation). *)

type rung = Full | Reduced_unroll | Concretize_all | Drop_states

val rung_level : rung -> int
(** [Full] = 0 up to [Drop_states] = 3. *)

val rung_to_string : rung -> string

type event = { rung : rung; at_step : int; pressure : float }
(** One escalation: the rung entered, the recorder step count and the budget
    pressure at that moment. *)

type policy = {
  enabled : bool;
  t_unroll : float;  (** pressure threshold entering {!Reduced_unroll} *)
  t_concretize : float;  (** pressure threshold entering {!Concretize_all} *)
  t_drop : float;  (** pressure threshold entering {!Drop_states} *)
  drop_keep_fraction : float;  (** frontier fraction kept on a drop *)
}

val default_policy : policy
(** Enabled, thresholds 0.5 / 0.7 / 0.85, keep fraction 0.5. *)

val disabled : policy

type controller
(** Mutable ladder state for one run. *)

val controller : policy -> controller
val current : controller -> rung

val observe : controller -> pressure:float -> step:int -> event list
(** Compare the pressure against the policy thresholds and escalate; returns
    the rungs newly entered this call (in escalation order, possibly several
    when pressure jumped, [] when nothing changed or the policy is
    disabled).  Escalation is monotone: rungs are never left. *)

val events : controller -> event list
(** Every escalation so far, oldest first. *)

val restore : controller -> event list -> unit
(** Re-enter the rungs recorded in a snapshot (resume path): replaces the
    controller's history and sets {!current} to the highest recorded rung. *)
