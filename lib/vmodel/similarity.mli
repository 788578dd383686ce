(** State-pair similarity (paper Section 4.6).

    When several variables are symbolic, comparing arbitrary state pairs is
    misleading (e.g. [autocommit==0 && flush_log==1] against
    [autocommit==1 && flush_log==2] differs in two parameters at once).  The
    analyzer compares most-similar pairs first.  Similarity is the paper's
    deliberately simple appearance count: for each constraint involving a
    related parameter in one state's formula, add one if the {e same}
    constraint appears in the other state's formula.  Expressions are
    hash-consed, so "the same constraint" is a pointer comparison (and
    coincides with the printed-form equality earlier versions used).
    Pairs whose {!Vsmt.Footprint}s are symbol-disjoint score 0 without
    walking either list: every config/workload constraint mentions a
    variable, so disjoint footprints rule out any shared node. *)

val score : Cost_row.t -> Cost_row.t -> int

val workload_score : Cost_row.t -> Cost_row.t -> int
(** Same counting over the input predicates; used to prefer comparing states
    triggered by the same input class. *)

val appearance_count : Vsmt.Expr.t list -> Vsmt.Expr.t list -> int
(** [appearance_count a b]: how many of [a]'s constraints appear in [b],
    without the footprint screen. *)

val shared : Vsmt.Footprint.t -> Vsmt.Footprint.t -> Vsmt.Expr.t list -> Vsmt.Expr.t list -> int
(** [shared fa fb a b]: the appearance count of [a]'s constraints in [b],
    given their footprints (for callers that score many pairs). *)
