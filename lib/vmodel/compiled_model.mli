(** Impact models compiled into solver-free decision tables (DESIGN.md
    Section 5j), and the one definition of each checker decision.

    [compile] is linear in rows and makes no solver query: it turns an
    {!Impact_model} into per-parameter interval sets ({!Vsmt.Iset}) over
    the configuration constraints of each config class (rows with the
    identical ordered constraint list), so "which rows does this
    assignment satisfy" is hash lookups and binary searches decided once
    per class, and a first-poor-pair table replacing the [pairs_between]
    list scan.  Workload-predicate plans are built per workload class on
    the first {!rows_matching_workload} that reads them.  The
    pairwise structures fill on first use, each entry deterministic, so
    memoizing it is exact and steady-state checks are lookups:

    - materialized comparison orders: per slow row, the tie groups of every
      candidate in the checker comparator's order, so ordering a query's
      candidates is a table walk instead of scoring and sorting them;
    - joint-input feasibility per pair of distinct workload-predicate
      classes;
    - pair verdicts (first recorded poor pair, else the differential
      comparison with its critical path);
    - per candidate list, the witness each slow row finds in it;
    - each row's content rank, the order {!content_order} sorts by.

    Every structure is {e exact}, not approximate: a row whose constraints
    the compiler cannot close (mixed-origin symbols, unbound variables at
    query time, out-of-domain values) falls back to the
    {!Cost_row.satisfied_by} solver path, and a row that is not physically
    a model row takes {!live_witness}'s decisions.  Post-compile mutation
    is limited to deterministic caches and bounded memo tables,
    unsynchronised: an artifact belongs to the one process that serves it. *)

type t

type stats = {
  rows_closed : int;
      (** rows whose config constraints mention only config symbols — the
          ones expected to stay on the lookup path *)
  rows_open : int;  (** rows expected to need the solver fallback *)
  compile_s : float;
}

val live_witness :
  Impact_model.t ->
  cap:int ->
  require_joint_input:bool ->
  slow:Cost_row.t ->
  Cost_row.t list ->
  (Cost_row.t * (float * string * string list)) option
(** The checker's witness scan with every decision computed live — the
    solver engine's.  Orders the candidates (drop those sharing [slow]'s
    state id, stable-sort the rest by descending [(workload_score, score)],
    keep the first [cap]) and returns the first that passes the joint-input
    gate (when [require_joint_input]: both rows' workload predicates are
    jointly feasible within 1_000 solver nodes) and yields a verdict — the
    first recorded poor pair if any, else the differential comparison —
    with that [(ratio, trigger, critical_path)].  {!first_witness} answers
    the same from the compiled tables. *)

val compile : Impact_model.t -> t

val model : t -> Impact_model.t
(** The exact model [compile] was given (physical identity — the checker
    uses this to reject a stale artifact). *)

val stats : t -> stats

val rows_matching : t -> (string * int) list -> Cost_row.t list
(** Byte-identical to {!Impact_model.rows_matching} (model row order). *)

val rows_matching_workload : t -> (string * int) list -> Cost_row.t list
(** Rows whose workload predicate the assignment satisfies, in model
    order — the compiled form of filtering by
    {!Cost_row.workload_satisfied_by}. *)

val mentions : t -> Cost_row.t -> string list -> bool
(** {!Cost_row.mentions}, from name sets precomputed per config class. *)

val is_poor_row : t -> Cost_row.t -> bool

val content_order : t -> Cost_row.t list -> Cost_row.t list option
(** The rows stable-sorted by {!Cost_row.content_key}, byte-identical to
    sorting the keys themselves: each model row's dense key rank is
    computed once, on the first call, and the rows are sorted by it.
    [None] when some row is not physically a model row. *)

val comparison_order : t -> cap:int -> slow:Cost_row.t -> Cost_row.t list -> Cost_row.t list
(** The comparison order of {!live_witness}, byte-identical.  Answered by
    walking [slow]'s materialized tie groups; a slow row or candidate that
    is not (physically) a model row falls back to live scoring. *)

val first_witness :
  t ->
  cap:int ->
  require_joint_input:bool ->
  slow:Cost_row.t ->
  Cost_row.t list ->
  (Cost_row.t * (float * string * string list)) option
(** {!live_witness} as one memoized lookup, byte-identical.  Memoized per
    candidate view, slow row and gate flag — every input deciding the scan
    — so steady-state checks answer from the table; foreign rows take the
    live walk. *)
