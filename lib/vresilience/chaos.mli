(** Fault injection for the {e engine itself}.

    Distinct from {!Vsymexec.Executor.options.fault_injection}, which injects
    faults into the {e modeled program} (library calls returning -1).  Chaos
    attacks Violet's own moving parts instead: solver queries come back
    [Unknown], tracer signals are dropped or delayed, checkpoint files are
    truncated on disk, serialized model rows are corrupted.  The QCheck chaos
    suite drives the pipeline under these faults and asserts the robustness
    contract: no uncaught exception, termination by the deadline, and a
    degraded result that is flagged as degraded.

    All randomness comes from one seeded [Random.State], so a chaotic run is
    reproducible from its seed. *)

type t = {
  seed : int;
  solver_unknown_p : float;  (** a solver query returns [Unknown] unsolved *)
  signal_drop_p : float;  (** a tracer signal is lost in transit *)
  signal_delay_p : float;  (** a tracer signal's timestamp is skewed *)
  signal_delay_us : float;
  checkpoint_truncate_p : float;  (** a written checkpoint file is truncated *)
  model_corrupt_p : float;  (** a serialized model byte is flipped *)
  rng : Random.State.t;
}

val make :
  ?solver_unknown:float ->
  ?signal_drop:float ->
  ?signal_delay:float ->
  ?signal_delay_us:float ->
  ?checkpoint_truncate:float ->
  ?model_corrupt:float ->
  seed:int ->
  unit ->
  t
(** All probabilities default to [0.]; [signal_delay_us] to [500.]. *)

val default_with_seed : int -> t
(** The standard chaos mix: 5% solver unknowns, 5% signal drops/delays,
    20% checkpoint truncation, 5% model corruption. *)

val of_string : string -> (t, string) result
(** ["SEED"] for {!default_with_seed}, or ["SEED:P"] to set every fault
    probability to [P] (checkpoint truncation included). *)

val flip : t -> float -> bool
(** One biased coin toss from the chaos rng. *)

val truncate_file : t -> string -> bool
(** With probability [checkpoint_truncate_p], truncate the file to a random
    prefix (possibly zero bytes).  Returns whether it fired.  Errors while
    mauling are swallowed — chaos never aborts the run itself. *)

val corrupt_string : t -> string -> string
(** With probability [model_corrupt_p], flip a random byte (returns the
    input unchanged otherwise or when empty). *)
