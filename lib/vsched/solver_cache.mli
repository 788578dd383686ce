(** The solver memo in front of {!Vsmt.Solver} — the KLEE-style layer the
    executor consults on every fork.

    One table maps each query's canonical constraint set (simplified,
    sorted, deduplicated) to the solver's own result for that set at the
    memo's fixed node budget.  Permuted path conditions share one entry, and
    {!is_feasible} and {!check_model} both read it.  The solver is
    deterministic, so every answer the table gives is the answer a fresh
    solve at the same budget would give: impact models cannot tell the memo
    is there.

    A feasibility miss first probes the newest stored satisfying models
    (KLEE's counterexample cache): a superset of a satisfiable set often
    still holds under the same assignment, and the probe verifies the
    assignment by evaluation, so a hit is a proof of [Sat].  A probe hit
    answers [true] but is not written to the table, so {!check_model} only
    ever returns what the solver returned. *)

type t

val create : max_nodes:int -> unit -> t
(** A memo whose misses solve with a budget of [max_nodes] search nodes.
    A feasibility miss probes the 64 most recently stored models. *)

val check_model :
  t -> ?budget:Vresilience.Budget.armed -> Vsmt.Expr.t list -> Vsmt.Solver.result
(** Decide the conjunction: identical to [Vsmt.Solver.check ~max_nodes] on
    every call, hit or miss.  An armed [budget] is threaded to the solver
    for its cooperative deadline; a result computed after the deadline
    expired is returned but {e not} recorded (a deadline [Unknown]
    describes this run's clock, not the query). *)

val is_feasible : t -> ?budget:Vresilience.Budget.armed -> Vsmt.Expr.t list -> bool
(** True when the conjunction is satisfiable or undecided, like
    [Vsmt.Solver.is_feasible ~max_nodes]: one counted lookup, and a solver
    call only when both the table and the model probe miss.  Same [budget]
    semantics as {!check_model}. *)

type stats = {
  lookups : int;
  exact_hits : int;  (** the canonical set was in the table *)
  cex_hits : int;  (** a stored model satisfied the query *)
  misses : int;  (** fell through to {!Vsmt.Solver} *)
  stored_models : int;
  solver_constraints : int;  (** conjuncts sent to the solver across all misses *)
}

val stats : t -> stats
val hits : stats -> int
val hit_rate : stats -> float
(** Hits over lookups; [0.] before the first lookup. *)

val pp_stats : stats Fmt.t
