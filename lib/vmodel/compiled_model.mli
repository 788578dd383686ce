(** Impact models compiled into solver-free decision tables (DESIGN.md
    Section 5j).

    [compile] pays once at registry-load time to turn an {!Impact_model}
    into pure-lookup structures for the checker's hot paths:

    - per-parameter interval sets ({!Vsmt.Iset}) over each row's
      footprint-sliced configuration constraints, so "which rows does this
      assignment satisfy" is hash lookups + binary searches;
    - a first-poor-pair table replacing the [pairs_between] list scan;
    - precomputed pair verdicts (differential comparison + critical path);
    - materialized comparison orders: per slow row, the tie groups of every
      candidate in the checker comparator's order, so ordering a query's
      candidates is a table walk instead of scoring and sorting them;
    - a joint-input feasibility table over the distinct workload-predicate
      classes, replacing the per-pair solver gate.

    The quadratic structures are built eagerly for models under the pair
    cap; beyond it they fill lazily on first query (each entry is
    deterministic, so memoization is exact and steady-state checks are
    pure lookups either way).

    Every structure is {e exact}, not approximate: a row whose constraints
    the compiler cannot close (mixed-origin symbols, unbound variables at
    query time, out-of-domain values) falls back to the
    {!Cost_row.satisfied_by} solver path.  Post-compile mutation is
    limited to deterministic caches and bounded memo tables, unsynchronised:
    an artifact belongs to the one domain that serves it. *)

type t

type stats = {
  rows_total : int;
  rows_closed : int;
      (** rows whose config constraints mention only config symbols — the
          ones expected to stay on the lookup path *)
  rows_open : int;  (** rows expected to need the solver fallback *)
  iset_params : int;  (** per-parameter interval sets built *)
  eval_constraints : int;  (** closed multi-variable constraints *)
  wclasses : int;  (** distinct workload-predicate classes *)
  joint_pairs : int;  (** precomputed joint-input feasibility verdicts *)
  joint_solver_calls : int;  (** solver calls spent filling the table *)
  verdict_pairs : int;  (** precomputed pair verdicts *)
  order_rows : int;  (** slow rows with an eagerly materialized order *)
  compile_s : float;
}

val joint_input_budget : int
(** Node budget of the checker's joint-input feasibility gate (1_000), used
    by the compiled table and the checker's solver path alike.  It is not
    the analyzer's: [Violet.Pipeline] screens pairs at the run's
    [Budget.solver_max_nodes] (4_000 by default). *)

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
(** Whether any of the row's config constraints mention one of the given
    parameter names (precomputed name sets). *)

val is_poor_row : t -> Cost_row.t -> bool

val comparison_order : t -> cap:int -> slow:Cost_row.t -> Cost_row.t list -> Cost_row.t list
(** Byte-identical to the checker's reference ordering: drop candidates
    sharing [slow]'s state id, stable-sort the rest by descending
    [(workload_score, score)], keep the first [cap].  Answered by walking
    [slow]'s materialized tie groups; a slow row or candidate that is not
    (physically) a model row falls back to live scoring. *)

val first_witness :
  t ->
  cap:int ->
  require_joint_input:bool ->
  slow:Cost_row.t ->
  Cost_row.t list ->
  (Cost_row.t * (float * string * string list)) option
(** The checker's witness scan as one memoized lookup: the first candidate
    in {!comparison_order} that passes the joint-input gate
    (feasibility of both rows' workload predicates together, when
    [require_joint_input]) and yields a verdict — the first recorded poor
    pair if any, else the differential comparison — together with that
    [(ratio, trigger, critical_path)].  Memoized per candidate view, slow
    row and gate flag — every input deciding the scan — so steady-state
    checks answer from the table; foreign rows take the live walk. *)
