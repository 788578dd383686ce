(** O(1) fork-history paths.

    A path records the forks a state's lineage survived, one character per
    fork (['t']/['f'] for a branch, ['s']/['x'] for fault injection).  It is
    unique per state and independent of scheduling order — the sort key of
    the executor's deterministic reduction — but unlike the eager string it
    replaces, {!extend} is a single allocation sharing the parent's spine:
    the canonicalization cost is deferred to the points that actually need
    the rendered string (fresh-symbol naming, the final path sort), where it
    is memoized per node.

    Values are immutable apart from the internal render memo and are
    [Marshal]-safe (snapshots carry them; sharing is preserved). *)

type t

val root : t
(** The empty path of the root state. *)

val extend : t -> char -> t
(** [extend p tag] is the path [p] with [tag] appended — O(1). *)

val to_string : t -> string
(** The rendered path, identical to the eager concatenation of tags from
    the root ([""] for {!root}).  Memoized per node. *)

val length : t -> int

val compare : t -> t -> int
(** Lexicographic on the rendered strings — the canonical state order of
    the deterministic reduction. *)
