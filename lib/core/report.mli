(** Human-readable rendering of analysis results, used by the CLI, the
    examples and the benchmark harness. *)

val pp_analysis : Pipeline.analysis Fmt.t
(** Full report: related parameters, exploration statistics, the cost table
    with poor states marked, and each suspicious pair with its differential
    critical path. *)

val summary_row : Pipeline.analysis -> string list
(** The Table 4 columns as strings: explored states, poor states, related
    configs, cost-metric label, virtual analysis time, max diff. *)

val human_time : float -> string
(** Seconds to a ["6 m 25 s"]-style string. *)
