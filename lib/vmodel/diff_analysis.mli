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
    most similar witnesses.  The cap and the per-state keys go by
    [state_id].  [max_nodes] bounds the joint-input satisfiability queries
    (default 1_000).  [jobs] (default 1) spreads the ranking of each
    row's slow-side pairs over a {!Vpar.Pool}: the partners in other config
    classes (a same-class pair is never ranked), their triggers, their
    similarity and the sort.  The comparability walk that follows stays
    sequential and in the order above, so the result is the same for any
    job count.  It decides joint satisfiability once per unordered pair of
    workload classes (rows with the same workload predicate set): the
    pair's first query asks the memoized solver path, later ones read its
    verdict.  That path's memo is keyed on the class pair and compares
    the union of the two classes' predicate sets, so class pairs whose
    predicates conjoin to the same set share one solver answer.  [slice]
    (default [true]) splits joint satisfiability of symbol-disjoint
    workload predicates into per-side queries memoized per input class,
    and lets the similarity count skip symbol-disjoint constraint lists
    ({!Similarity.shared}); without it every pair is counted in full
    ({!Similarity.appearance_count}). *)

module Key_tbl : Hashtbl.S with type key = int list
(** Tables keyed on lists of expression ids; the hash reads every id.
    [analyze] numbers its config and workload classes with one. *)

val classes : int list array -> int array
(** Dense class numbers for the keys: equal keys share a number, numbered
    in first-seen order from 0. *)

val trigger_label : trigger list -> string
(** Table 4 style: ["Latency"], ["I/O"], ["Lat.&Sync."], ... *)

val is_poor : t -> int -> bool
