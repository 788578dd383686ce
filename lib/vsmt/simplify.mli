(** Algebraic simplification of symbolic expressions.

    The executor simplifies every expression it stores or branches on; this
    keeps path constraints small and makes many branch conditions concrete
    without ever calling the solver (e.g. after substituting a just-concretized
    variable).  Simplification is semantics-preserving: for every assignment,
    [eval env (simplify e) = eval env e] — a property-tested invariant. *)

val simplify : Expr.t -> Expr.t

val simplify_conj : Expr.t list -> Expr.t list
(** Simplify a conjunction of constraints: simplifies each conjunct, flattens
    nested [&&], drops duplicates and trivially-true conjuncts.  If any
    conjunct is trivially false the result is [[Expr.fls]].

    A list that is already fully simplified comes back with itself as a
    prefix (each conjunct is a fixpoint, non-[And], and deduplication keeps
    first occurrences): the executor's path conditions grow by suffix. *)

val memo_size : unit -> int
(** Entries in the process-wide simplification memo, keyed by hash-cons
    node id (telemetry). *)

val clear_memo : unit -> unit
(** Drop the simplification memo (results recompute on demand). *)

val set_memo_cap : int -> unit
(** Cap the memo (it resets wholesale at the cap).  Clamped to at least
    1024.  Default [262144]. *)
