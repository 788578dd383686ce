(** The configuration performance impact model — Violet's final analysis
    output (paper Sections 3.2 and 4.6).

    A model bundles the raw cost table (Table 1), the suspicious state
    pairs with their differential critical paths, the related-parameter set,
    and analysis metadata.  Models serialize to disk so the continuous
    checker can reuse them at user sites (Section 4.7); the call-tree nodes
    are not persisted — the checker needs only constraints, costs and the
    pre-computed critical paths. *)

type poor_pair_summary = {
  slow_id : int;
  fast_id : int;
  similarity : int;
  latency_ratio : float;
  trigger : string;  (** Table 4 style label, e.g. ["Lat.&I/O"] *)
  critical_path : string list;
  max_differential_us : float;
}

type dropped_path = {
  dp_state_id : int;
  dp_config_constraints : Vsmt.Expr.t list;
      (** the configuration region whose behavior the model does {e not}
          cover because the path was dropped under budget pressure *)
  dp_latency_so_far_us : float;
}

type degradation_summary = {
  rungs : string list;
      (** {!Vresilience.Degradation} rung names entered, oldest first *)
  deadline_hit : bool;
  dropped_paths : dropped_path list;
}
(** How exploration was degraded while this model was built.  A model with a
    summary is still sound for the paths it contains, but incomplete: the
    checker treats [dropped_paths] as conservative "unknown cost" regions. *)

type t = {
  system : string;
  target : string;
  related : string list;
  threshold : float;
  rows : Cost_row.t list;
  poor_pairs : poor_pair_summary list;
  poor_state_ids : int list;
  max_ratio : float;
  explored_states : int;
  analysis_wall_s : float;
  virtual_analysis_s : float;
      (** simulated end-to-end analysis time on the virtual clock (sum of
          all states' symbolic-execution clocks); the Figure 14 metric *)
  degradation : degradation_summary option;
      (** [None] = complete run (also for models saved before this field
          existed) *)
}

val is_degraded : t -> bool

val build :
  ?degradation:degradation_summary ->
  system:string ->
  target:string ->
  related:string list ->
  rows:Cost_row.t list ->
  analysis:Diff_analysis.t ->
  explored_states:int ->
  analysis_wall_s:float ->
  virtual_analysis_s:float ->
  unit ->
  t

val row_by_id : t -> int -> Cost_row.t option

val rows_matching : t -> (string * int) list -> Cost_row.t list
(** Rows whose configuration constraints a concrete assignment satisfies. *)

val poor_rows : t -> Cost_row.t list
val is_poor_row : t -> Cost_row.t -> bool

val pairs_between : t -> slow:Cost_row.t -> fast:Cost_row.t -> poor_pair_summary list
(** Poor pairs whose slow/fast state ids match the given rows. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Format 2 (DESIGN.md §5g): each distinct variable and expression node
    once, rows naming constraints by node index.  Round-trips everything
    except the in-memory call trees ([nodes] and [chain] of each row come
    back empty).  A format-1 payload is refused with {!format1_error}. *)

val content_string : t -> string
(** {!to_string} with [analysis_wall_s] zeroed.  Wall-clock time is the one
    field two equal analyses do not reproduce, so equal content strings
    mean the same analysis result: the text model digests and the fuzz
    oracle's fingerprints are taken over. *)

val format1_error : string
(** Names format 1 and says how to regenerate the file. *)

val pp_cost_table : t Fmt.t
(** Render the raw cost table like paper Table 1. *)
