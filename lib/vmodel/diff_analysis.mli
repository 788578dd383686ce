(** Pairwise differential performance analysis (paper Section 4.6).

    The analyzer compares state pairs, most-similar first.  A pair is
    {e suspicious} when the slower state's traced latency exceeds the faster
    state's by more than the threshold (default 100%), or when any logical
    cost metric does — even if latency does not (the paper's c6 case is
    caught through the I/O metric alone). *)

type trigger = Latency | Logical of string

type poor_pair = {
  slow : Cost_row.t;
  fast : Cost_row.t;
  similarity : int;
  latency_ratio : float;  (** slow/fast traced latency; [infinity] if fast=0 *)
  worst_ratio : float;  (** 1 + worst relative difference over all metrics *)
  triggers : trigger list;  (** every metric exceeding the threshold *)
  diff : Critical_path.diff;
}

type t = {
  threshold : float;
  pairs : poor_pair list;  (** suspicious pairs, most similar first *)
  poor_state_ids : int list;  (** distinct ids of slow states *)
  max_ratio : float;  (** the "Max Diff" headline (Table 4): worst metric
                          ratio among each poor state's most-similar pair *)
  screened : int;  (** pairs whose triggers were tested *)
  solver_queries : int;  (** joint-input queries sent to the solver *)
}

val compare_pair :
  threshold:float -> slow:Cost_row.t -> fast:Cost_row.t -> (float * trigger list) option
(** [Some (worst ratio, triggers)] when [slow] is suspicious relative to
    [fast]; [None] otherwise.  The checker reuses this on specific row
    pairs (old vs new value, old vs new version). *)

val analyze :
  ?threshold:float -> ?max_nodes:int -> ?jobs:int -> ?slice:bool -> Cost_row.t list -> t
(** [threshold] is the relative difference that makes a pair suspicious:
    1.0 means the slow state is worse by ≥100%.  [pairs] come by descending
    similarity (row [i]'s config and workload constraints found in row
    [j]'s, {!Similarity.shared}), ties by ascending [(i, j)], the rows'
    input positions with [i < j]; row [i] is the slow side unless row [j]'s
    traced latency is higher.  A pair is kept when it triggers, its states
    are comparable (different config sets, jointly satisfiable workloads)
    and its slow state keeps fewer than 8 earlier pairs: each state's 8
    most similar witnesses.

    The cap and the per-state keys go by [state_id]: rows sharing an id
    (only a hand-made trace file has them) are one state, with its last
    row's constraint sets and workload predicate.  Joint satisfiability
    reads only the two states' workload classes (states with the same
    workload predicate set), so it is decided once per unordered pair of
    classes: one predicate set containing the other is sat; else each
    class's per-variable truth sets ({!Vsmt.Iset.of_expr} over its
    single-variable conjuncts, built once per class) decide it, unsat when
    some variable's sets do not meet, sat when every other conjunct holds
    at the least common value of each variable; only what they leave open
    goes to the solver (so does a name declared with two domains), with
    [max_nodes] (default 1_000) bounding each query.  Since no verdict
    depends on the order pairs are asked in, the walk takes one state at
    a time: it ranks the state's slow-side candidates in other config
    classes into one reused buffer, keeps the first 8 comparable ones in
    the order above, and the kept pairs are sorted once at the end.

    [slice] (default [true]) splits the solver's joint satisfiability of
    symbol-disjoint workload predicates into per-side queries memoized per
    workload class, and lets the similarity count skip symbol-disjoint
    constraint lists ({!Similarity.shared}); without it every pair is
    counted in full ({!Similarity.appearance_count}).  [jobs] is accepted
    and ignored: the analysis runs on the calling domain, and the argument
    stays only because the repository benchmark passes it. *)

module Key_tbl : Hashtbl.S with type key = int list
(** Tables keyed on lists of expression ids; the hash reads every id.
    [analyze] numbers its config and workload classes with one. *)

val classes : int list array -> int array
(** Dense class numbers for the keys: equal keys share a number, numbered
    in first-seen order from 0. *)

val trigger_label : trigger list -> string
(** Table 4 style: ["Latency"], ["I/O"], ["Lat.&Sync."], ... *)

val is_poor : t -> int -> bool
