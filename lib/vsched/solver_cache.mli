(** Constraint-solving caches in front of {!Vsmt.Solver} — the KLEE-style
    layer the executor consults on every fork.

    Two query entry points with different cache strength, because they have
    different soundness obligations:

    - {!check_model} serves the executor's model-generation queries (silent
      concretization).  It uses exact memoization only, keyed on the
      {e sorted} constraint set (permuted path conditions share one entry);
      the solver is deterministic and a miss solves that same sorted set, so
      a hit returns byte-for-byte the model a fresh solve would, and
      concretization values — and therefore the derived impact model — are
      identical with the cache on or off.
    - {!is_feasible} serves the executor's branch-feasibility queries, where
      only the Sat/Unsat verdict matters.  On top of (order-insensitive)
      exact memoization it runs the two KLEE counterexample-cache probes:
      a stored satisfying assignment is evaluated against the new query
      (a superset of a satisfiable set often still holds under the same
      model — sound because the probe {e verifies} the model by evaluation),
      and a stored unsatisfiable set that is a subset of the new query
      proves it unsatisfiable (a superset of an unsat core is unsat).

    [Unknown] results are budget-dependent: they are cached together with the
    [max_nodes] budget that produced them and replayed only for queries with
    the same or a smaller budget; a query with a larger budget re-solves and
    overwrites the entry.  [Sat]/[Unsat] are proofs and replay for any
    budget.

    Every entry is additionally tagged with the query's symbol footprint
    (sorted names, so dumps stay process-portable).  When a larger-budget
    re-solve {e decides} a previously-[Unknown] query, smaller-budget
    [Unknown] entries whose footprint lies within the decided query's are
    reclaimed as stale; the footprint guard keeps the reclaim from evicting
    [Unknown] entries of unrelated slices (which still carry useful
    budget-exhaustion evidence for other paths).

    With query slicing on (see {!Vsmt.Partition}) the executor sends one
    query per touched slice, so entries are naturally slice-keyed: a verdict
    for an untouched slice replays across every path that shares it, which
    is where the hit-rate win lives.

    When the underlying solver is decisive (never returns [Unknown]) the
    cache is answer-preserving.  When the solver would return [Unknown] on
    the full query, a subsumption hit can be {e more precise} (a genuine
    [Unsat] where the direct solve would over-approximate to feasible);
    precision can only increase, never flip a decided verdict. *)

type t

val create : ?max_models:int -> ?max_cores:int -> unit -> t
(** [max_models] bounds the counterexample list probed per query (default
    64, most recently stored first); [max_cores] bounds the stored
    unsatisfiable sets (default 256). *)

val check_model :
  t -> ?budget:Vresilience.Budget.armed -> max_nodes:int -> Vsmt.Expr.t list ->
  Vsmt.Solver.result
(** Decide the conjunction, exact-memoized.  Identical to
    [Vsmt.Solver.check ~max_nodes] on every call, hit or miss.  An armed
    [budget] is threaded to the solver for its cooperative deadline; results
    computed after the deadline expired are returned but {e not} recorded
    (a deadline [Unknown] describes this run's clock, not the query). *)

val is_feasible :
  t -> ?budget:Vresilience.Budget.armed -> max_nodes:int -> Vsmt.Expr.t list -> bool
(** True when the conjunction is satisfiable or undecided, like
    {!Vsmt.Solver.is_feasible}, with all cache probes enabled: one counted
    lookup, and a solver call only when every probe misses.  Same [budget]
    semantics as {!check_model}. *)

(** {1 Checkpointing} *)

type dump
(** A self-contained copy of the cache's contents (memo tables,
    counterexample models, unsat cores, counters), safe to [Marshal] into a
    checkpoint: it shares no mutable structure with the live cache. *)

val dump : t -> dump

val dump_entries : dump -> int
(** Total memo entries (feasibility + model) held by a dump. *)

val filter_dump : dump -> dirty:string list -> dump
(** Prepare a dump for cross-run reuse: drop every memo entry whose
    footprint mentions one of the [dirty] symbol names, along with stored
    models and unsat cores touching them, and zero all counters (a primed
    dump's counters fold into the receiving cache, so a cross-run dump
    must not carry last run's totals).  Cached Sat/Unsat verdicts are
    proofs about the constraint text and would stay sound across code
    versions; the footprint scoping keeps a warm run's solver provenance
    identical to a cold run's for the changed slices. *)

val prime : t -> dump -> unit
(** Fold a dump into a live cache (checkpoint resume, cross-run warm
    start).  Primed into a fresh cache, a dump answers a replay of the
    same query sequence exactly as the dumped cache would have.  A conflicting entry keeps the stronger of the two (a decided
    verdict over [Unknown]; the larger-budget [Unknown] otherwise); stored
    models and unsat cores are added and counters summed. *)

type stats = {
  lookups : int;
  exact_hits : int;  (** same constraint set seen before *)
  cex_hits : int;  (** a stored model satisfied the query *)
  subsumption_hits : int;  (** a stored unsat set was a subset of the query *)
  misses : int;  (** fell through to {!Vsmt.Solver} *)
  stored_models : int;
  stored_cores : int;
  solver_constraints : int;  (** conjuncts sent to the solver across all misses *)
  solver_nodes : int;  (** expression tree nodes sent to the solver across all misses *)
  unknown_purged : int;  (** stale [Unknown] entries reclaimed by decided re-solves *)
}

val stats : t -> stats
val hits : stats -> int
val hit_rate : stats -> float
(** Hits over lookups; [0.] before the first lookup. *)

val pp_stats : stats Fmt.t

val table_sizes : t -> int * int
(** [(feasibility entries, model entries)] — telemetry for the executor's
    [memo_sizes]. *)
