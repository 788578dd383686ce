(** Symbol-disjoint slices of a path condition, grouped per query.

    Two conjuncts fall in the same slice when a chain of conjuncts, each
    sharing a footprint symbol with the next, links them (the KLEE
    constraint-independence factoring).  A feasibility query for a branch
    condition then needs only the slices that share symbols with the
    condition's footprint — the rest of the path condition cannot affect
    the verdict — and a model for the full conjunction is the composition
    of independent per-slice models.

    Nothing is kept between queries: both functions group the conjuncts
    they are given.  Path conditions are short (a query has 14–16
    conjuncts on the mysql parameters, 3.5–6.6 on the other targets), so
    a structure carried by every state would cost memory for no measured
    speed.

    Determinism: {!relevant} lists conjuncts in path order, and {!slices}
    orders slices by their earliest conjunct, each in path order.  Both
    are pure functions of the conjunct sequence — no symbol or expression
    id (process-local allocation order) leaks into them. *)

val relevant : Expr.t list -> Footprint.t -> Expr.t list
(** [relevant pc fp]: the conjuncts of every slice of [pc] that shares a
    symbol with [fp], and every var-free conjunct that is not a literal,
    in path order.  Literal-true conjuncts are never relevant; a literal
    false anywhere in [pc] gives [[Expr.fls]]. *)

val slices : Expr.t list -> Expr.t list list option
(** The slices of [pc], ordered by their earliest conjunct, each in path
    order; literal-true conjuncts belong to none.  [None] when [pc] holds
    a literal false or a var-free conjunct that is not a literal: such a
    condition is solved whole. *)
