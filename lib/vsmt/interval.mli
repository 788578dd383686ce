(** Integer interval arithmetic, used by the solver for domain propagation.

    An interval [{ lo; hi }] denotes all integers between [lo] and [hi]
    inclusive.  The special bounds {!neg_inf}/{!pos_inf} stand for unbounded
    ends; arithmetic saturates at them.  Intervals over-approximate the set of
    values an expression can take, which lets {!Solver} prune branches that are
    infeasible for every assignment without enumerating. *)

type t = { lo : int; hi : int }

val neg_inf : int
val pos_inf : int

val make : int -> int -> t
(** [make lo hi]; raises [Invalid_argument] when [lo > hi]. *)

val point : int -> t
val of_dom : Dom.t -> t
val is_point : t -> bool
val mem : int -> t -> bool
val size : t -> int
(** Number of integers in the interval; {!max_int} when unbounded. *)

val inter : t -> t -> t option
(** Intersection; [None] when empty. *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t

val cmp_result : (int -> int -> bool) -> t -> t -> t
(** Interval of a comparison outcome: [point 1] if it holds for every value
    pair, [point 0] if for none, [make 0 1] otherwise.  Sound only for
    monotone relations (<, <=, >, >=); use {!eq_result}/{!ne_result} for
    equality. *)

val eq_result : t -> t -> t
val ne_result : t -> t -> t

val logical_and : t -> t -> t
val logical_or : t -> t -> t
val logical_not : t -> t

val pp : t Fmt.t
val equal : t -> t -> bool
