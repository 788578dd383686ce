(** State-pair similarity (paper Section 4.6).

    When several variables are symbolic, comparing arbitrary state pairs is
    misleading (e.g. [autocommit==0 && flush_log==1] against
    [autocommit==1 && flush_log==2] differs in two parameters at once).  The
    analyzer compares most-similar pairs first.  Similarity is the paper's
    deliberately simple appearance count: for each constraint involving a
    related parameter in one state's formula, add one if the {e same}
    constraint appears in the other state's formula.  Expressions are
    hash-consed, so "the same constraint" is a pointer comparison (and
    coincides with the printed-form equality earlier versions used).  The
    trace diff ranks its pairs by [score + workload_score], and the
    checker's witness scan orders candidates by
    [(workload_score, score)]; both count the rows' own lists. *)

val score : Cost_row.t -> Cost_row.t -> int
(** [score a b]: how many of [a]'s config constraints appear in [b]'s. *)

val workload_score : Cost_row.t -> Cost_row.t -> int
(** Same counting over the input predicates; used to prefer comparing states
    triggered by the same input class. *)
