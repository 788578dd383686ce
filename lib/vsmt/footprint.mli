(** Free-symbol footprints of hash-consed expressions.

    The footprint of an expression is the set of symbolic variables it
    mentions.  Footprints drive the constraint-independence optimization
    (KLEE lineage): two constraints with disjoint footprints cannot
    influence each other's satisfiability, so feasibility queries need
    only the slices of the path condition that share symbols with the
    branch condition (see {!Partition}).

    Footprints serve the executor's slicing (its partitions and the slices
    a feasibility query sends) and origin queries; the trace diff and the
    similarity count read none.  Representation: a sorted array of
    interned symbol ids, so a union is a linear merge and a footprint is
    computed once per hash-consed node ({!of_expr} is memoized per
    [Expr.id]).  Symbols are interned by {e name} — matching
    [Expr.vars]'s identity — in a plain process-global table.

    Symbol ids, like expression ids, are process-local: a snapshot's
    partitions are rebuilt from its expressions on load
    ([Sym_state.map_exprs]), never read back. *)

type t = private int array
(** A footprint: strictly increasing array of symbol ids. *)

val empty : t
val is_empty : t -> bool

val of_expr : Expr.t -> t
(** Footprint of one expression.  Memoized per hash-consed node id in a
    process-wide table (capped; see {!set_memo_cap}). *)

val union : t -> t -> t

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
