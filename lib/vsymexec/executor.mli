(** The forking symbolic executor.

    Plays the role S²E (with its embedded KLEE) plays in the paper: it
    interprets an IR program, forks a new state at every branch whose
    condition is symbolic and two-way feasible, memorizes path constraints,
    and emits call/return signals for the tracer.  The frontier is one
    depth-first stack: each state runs to completion before its sibling.
    Every feasibility and model query goes through a per-run
    {!Vsched.Solver_cache}.  The Violet-specific
    machinery is layered in directly:

    - {e symbolic hooks} (Section 4.1/4.4): configuration and workload
      variables listed in {!options.sym_configs}/{!options.sym_workloads}
      evaluate to range-restricted symbolic variables; all others read their
      concrete values;
    - {e selective concretization} (Section 5.4): library calls with symbolic
      arguments follow the Strictly-Consistent Unit-Level consistency model —
      arguments are silently concretized with a solver model, the pinned
      variable is substituted through the whole store ([concretizeAll]), and
      the relaxation rules for [Pure]/[Benign] libraries drop the
      concretization constraint (a [Pure] call instead returns a fresh
      symbol);
    - {e profiling controls} (Section 5.3): tracing starts/stops on the
      [Trace_on]/[Trace_off] hooks, state-switch costs are only charged when
      state switching is enabled, and optional latency jitter models
      measurement noise in the engine;
    - {e resilience} (the [vresilience] layer): every resource cap lives in
      one {!Vresilience.Budget.t}, exploration can be checkpointed to a
      {!snapshot} and resumed, and budget pressure walks a
      {!Vresilience.Degradation} ladder instead of aborting. *)

type noise = {
  jitter : float;  (** relative latency jitter, e.g. 0.05 for ±5% *)
  signal_delay_prob : float;
      (** probability that a return signal is delayed (the [gettimeofday]
          effect behind the paper's false positives, Section 7.8) *)
  signal_delay_us : float;
  seed : int;
}

type snapshot
(** A self-contained, [Marshal]-safe image of a paused exploration: every
    engine counter, the DFS stack, the telemetry recorder, and the
    degradation-ladder history.  Resuming from a snapshot and running to
    completion produces the same states — and therefore a byte-identical
    impact model — as the uninterrupted run.  The solver memo is not part
    of it: a resumed run starts with an empty memo, which changes its solve
    count but no answer. *)

type options = {
  env : Vruntime.Hw_env.t;
  sym_configs : (string * Vsmt.Expr.var) list;
  concrete_config : string -> int;
  sym_workloads : (string * Vsmt.Expr.var) list;
  concrete_workload : string -> int;
  budget : Vresilience.Budget.t;
      (** unified resource budget: wall-clock deadline, state cap, per-state
          fuel, and solver node budget (replaces the old scattered
          [max_states]/[fuel]/[solver_max_nodes] fields) *)
  max_loop_unroll : int;  (** iterations of a symbolic-condition loop *)
  state_switching : bool;
      (** charge {!Vruntime.Hw_env.t.state_switch_us} on every switch; the
          tracer disables this when it would distort latency (Section 5.3) *)
  slice : bool;
      (** independence slicing (KLEE lineage): feasibility queries send only
          the symbol-disjoint slices of the path condition that overlap the
          branch condition's footprint, and model queries solve each slice
          independently and compose the per-slice models in name order.
          Each query groups its own path condition ({!Vsmt.Partition});
          no state carries a partition between queries.  Sound (untouched slices are inherited from the feasible parent;
          slices share no symbols) and deterministic (the solver's
          name-ordered search makes a slice's model the projection of the
          full query's, so impact models are byte-identical with slicing on
          or off while every query shrinks — [false] is the reference the
          slicing A/B and the fuzz oracle compare against, not a
          correctness switch).  Default [true]. *)
  noise : noise option;
  enable_tracer : bool;
      (** false = "vanilla S²E": no signals are captured at all (Table 7) *)
  relaxation_rules : bool;
      (** false = ablation of Section 5.4: every library call keeps its
          concretization constraints, as strict consistency would *)
  fault_injection : bool;
      (** fork an error-return (-1) state at every library call with a
          destination — the paper's Section 8 extension for specious
          configuration that only matters in error handling *)
  chaos : Vresilience.Chaos.t option;
      (** engine-level fault injection (distinct from [fault_injection],
          which models faults in the analyzed program): probabilistic solver
          [Unknown]s, dropped/delayed tracer signals *)
  degradation : Vresilience.Degradation.policy;
      (** graceful-degradation ladder walked under budget pressure; each
          rung entered is recorded in {!result.sched} *)
  checkpoint_every : int;
      (** invoke [on_checkpoint] every N state picks; [0] disables *)
  on_checkpoint : (snapshot -> unit) option;
}

val default_options :
  ?env:Vruntime.Hw_env.t ->
  config:(string -> int) ->
  workload:(string -> int) ->
  unit ->
  options
(** No symbolic variables, DFS, no switching, no noise, no chaos, default
    degradation policy, checkpointing off; the default budget caps states
    at 512 with no deadline. *)

type stats = {
  states_created : int;
  states_terminated : int;  (** {!result.sched}'s [states_completed] *)
  states_killed : int;  (** {!result.sched}'s [states_dropped] *)
  forks : int;  (** {!result.sched}'s [forks] *)
  solver_calls : int;
  concretizations : int;
  wall_time_s : float;
  deadline_hit : bool;  (** exploration was cut short by the budget deadline *)
}

type result = {
  states : Sym_state.t list;
  stats : stats;
  sched : Vsched.Exploration_stats.t;
  visited_functions : string list;
}
(** [states] holds every state that reached a terminal status, renumbered
    0..n-1 in fork-path order — a canonical order independent of the
    exploration order.  [stats] keeps the historical headline counters
    ([solver_calls] counts {e queries}, memoized or not, so virtual-time
    accounting is memo-independent); [sched] is the full exploration
    telemetry including solver-memo hit rates and degradation events.
    [visited_functions] is the sorted set of functions any path
    {e entered} during exploration (including paths that later died
    infeasible) — the dynamic coverage incremental re-analysis uses to
    decide whether a code change can affect this analysis. *)

val run : ?resume:snapshot -> options -> Vir.Ast.program -> result
(** Explore [program].  With [?resume], continue a checkpointed exploration
    instead of starting fresh; raises [Invalid_argument] when the snapshot
    was taken for a different program. *)

(** {1 Budget-kill conventions}

    States dropped for resource reasons are [Killed] with a reason starting
    with ["budget:"], so downstream layers can distinguish resource drops
    (which widen the model conservatively) from semantic kills
    (infeasibility, stuck statements). *)

val deadline_reason : string
val degraded_drop_reason : string
val is_budget_kill : string -> bool

(** {1 Checkpoint persistence} *)

val snapshot_version : int

val save_snapshot :
  path:string -> snapshot -> (unit, Vresilience.Checkpoint.error) Stdlib.result
(** Atomic (write-to-temp + rename) versioned, checksummed snapshot file. *)

val load_snapshot :
  path:string -> (snapshot, Vresilience.Checkpoint.error) Stdlib.result
(** Never raises on a truncated, corrupt, or mismatched file — every failure
    mode is a typed {!Vresilience.Checkpoint.error}. *)

val sym_config_var : Vruntime.Config_registry.t -> string -> string * Vsmt.Expr.var
(** Convenience: the [(name, var)] pair for a registry parameter, using its
    declared domain — the [make_symbolic] hook of paper Figure 7. *)

val sym_workload_var : Vruntime.Workload.template -> string -> string * Vsmt.Expr.var
