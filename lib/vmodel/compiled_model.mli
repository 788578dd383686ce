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

    - joint-input feasibility per pair of distinct workload-predicate
      classes;
    - pair verdicts (first recorded poor pair, else the differential
      comparison with its critical path);
    - per candidate pool, the witness each slow row finds in it: a table
      of at most 64 pools and 32,768 witnesses, reset when full, so a
      configuration seen before answers from it even after others;
    - each row's content rank, the order {!content_order} sorts by.

    Nothing is materialized per slow row over the whole model: both
    engines order a pool with the one {!live_order}.

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

val live_order : cap:int -> slow:Cost_row.t -> Cost_row.t list -> Cost_row.t list
(** The comparison order of the witness scan, for both engines: drop the
    candidates sharing [slow]'s state id, stable-sort the rest by
    descending [(Similarity.workload_score slow r, Similarity.score slow r)]
    (most comparable first), keep the first [cap].  The scores are counted
    without their footprint screen, which never changes them. *)

val live_witness :
  Impact_model.t ->
  cap:int ->
  require_joint_input:bool ->
  slow:Cost_row.t ->
  Cost_row.t list ->
  (Cost_row.t * (float * string * string list)) option
(** The checker's witness scan with every decision computed live — the
    solver engine's.  Returns the first candidate in {!live_order} that
    passes the joint-input gate (when [require_joint_input]: both rows'
    workload predicates are jointly feasible within 1_000 solver nodes) and
    yields a verdict — the first recorded poor pair if any, else the
    differential comparison — with that [(ratio, trigger, critical_path)].
    {!first_witness} answers the same from the compiled tables. *)

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

val first_witness :
  t ->
  cap:int ->
  require_joint_input:bool ->
  slow:Cost_row.t ->
  Cost_row.t list ->
  (Cost_row.t * (float * string * string list)) option
(** {!live_witness} as one memoized lookup, byte-identical.  Memoized per
    candidate pool (element-wise physical identity, and [cap]), slow row
    and gate flag — every input deciding the scan — so a pool seen before
    answers from the table; the scan itself takes the memoized gate and
    verdicts over {!live_order}.  A slow row or pool holding a row that is
    not physically a model row is scanned without the pool table. *)
