(** Sorted disjoint interval sets — the leaves of the compiled checker's
    per-parameter decision tables (DESIGN.md Section 5j).

    An {!t} is a normalized array of disjoint, non-adjacent {!Interval.t}
    ranges, kept sorted by lower bound so membership is a binary search.
    {!of_expr} compiles a single-variable constraint into the {e exact} set
    of domain values on which it evaluates truthy — exact, not an
    over-approximation, so a compiled lookup can replace the
    substitute-simplify-evaluate path byte-for-byte.  Constraints the
    compiler cannot close return [None] and stay on the solver path. *)

type t

val empty : t
val of_dom : Dom.t -> t
(** The whole domain as one interval. *)

val of_intervals : Interval.t list -> t
(** Normalize: sort, merge overlapping and adjacent ranges. *)

val intervals : t -> Interval.t list
val is_empty : t -> bool
val mem : int -> t -> bool
(** Binary search over the normalized ranges. *)

val inter : t -> t -> t
val min_inter : t -> t -> int option
(** The least value in both sets, [None] when they are disjoint:
    [min_inter s s] is the least value of [s]. *)

val union : t -> t -> t
val complement : dom:Dom.t -> t -> t
(** Domain values not in the set (the set is first clipped to the domain). *)

val cardinal : t -> int
val equal : t -> t -> bool
val pp : t Fmt.t

val of_expr : var:Expr.var -> Expr.t -> t option
(** [of_expr ~var e] is the exact truth set [{ x ∈ dom var | eval (var:=x) e
    ≠ 0 }], or [None] when the compiler cannot close [e].  Precondition:
    [var] is the only variable of [e].  Boolean structure (And/Or/Not)
    recurses; comparisons between linear forms [k·v + c] are solved with
    exact floor/ceiling division (bailing out when coefficient magnitudes
    could overflow native evaluation); anything else falls back to
    enumeration when the domain is small enough ({!enum_max}), and [None]
    otherwise. *)

val enum_max : int
(** Largest domain size the enumeration fallback of {!of_expr} will walk. *)
