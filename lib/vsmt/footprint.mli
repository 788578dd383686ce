(** Free-symbol footprints of hash-consed expressions.

    The footprint of an expression is the set of symbolic variables it
    mentions.  Footprints drive the constraint-independence optimization
    (KLEE lineage): two constraints with disjoint footprints cannot
    influence each other's satisfiability, so feasibility queries need
    only the slices of the path condition that share symbols with the
    branch condition (see {!Partition}).

    Representation: a sorted array of interned symbol ids, so union and
    overlap tests are linear merges and a footprint is computed once per
    hash-consed node ({!of_expr} is memoized per [Expr.id]).  Symbols are
    interned by {e name} — matching [Expr.vars]'s identity — in a plain
    process-global table.

    Symbol ids, like expression ids, are process-local: never persist
    them; {!names} gives the sorted symbol names instead. *)

type t = private int array
(** A footprint: strictly increasing array of symbol ids. *)

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val of_expr : Expr.t -> t
(** Footprint of one expression.  Memoized per hash-consed node id in a
    process-wide table (capped; see {!set_memo_cap}). *)

val of_list : Expr.t list -> t
(** Union of the footprints of a constraint list. *)

val union : t -> t -> t
val overlaps : t -> t -> bool
(** [overlaps a b] iff [a] and [b] share at least one symbol. *)

val subset : t -> t -> bool
(** [subset a b] iff every symbol of [a] is in [b]. *)

val mem : int -> t -> bool

val names : t -> string list
(** Symbol names of the footprint, sorted — the process-portable form. *)

val exists_origin : Expr.origin -> t -> bool
(** True iff some symbol in the footprint has the given origin. *)

val for_all_origin : Expr.origin -> t -> bool
(** True iff every symbol in the footprint has the given origin
    (vacuously true on {!empty}). *)

val memo_size : unit -> int
(** Entries in the footprint memo (telemetry). *)

val clear_memo : unit -> unit
(** Drop the footprint memo (footprints recompute on demand). *)

val set_memo_cap : int -> unit
(** Cap the memo (it resets wholesale at the cap).  Clamped to at least
    1024.  Default [131072]. *)

val pp : t Fmt.t
