(** The continuous specious-configuration checker (paper Section 4.7).

    Consumes a stored impact model and validates concrete user
    configurations, in three modes:

    + {b update}: a configuration update introduces a performance
      regression — compare the states matching the parameter's old and new
      values;
    + {b defaults}: a default (or currently deployed) value is poor for the
      user's setup — the state the current value falls in appears on the
      slow side of a significant pair;
    + {b upgrade / workload change}: a new code version's model makes an old
      setting poor, or the production workload class shifted into a poor
      state's input predicate.

    Findings carry the logical explanation (cost metrics, differential
    critical path) and a generated validation test case, not just a verdict —
    the analytical output the paper argues testing cannot give. *)

type finding = {
  param : string;
  message : string;
  slow_row : Vmodel.Cost_row.t;
  fast_row : Vmodel.Cost_row.t option;
  ratio : float;  (** slow/fast latency ratio (or worst metric ratio) *)
  trigger : string;
  critical_path : string list;
  test_case : Test_case.t option;
}

type report = { findings : finding list; checked_in_s : float }

(** How row decisions are made (DESIGN.md Section 5j):

    - [Solver]: the original substitute-simplify-solve path — the reference
      the equivalence tests and benches compare against;
    - [Hybrid] (the default): answer from the supplied
      {!Vmodel.Compiled_model} when it was compiled from this exact model
      (the serving registry compiles at load time), otherwise stay on the
      solver path.  Nothing is compiled per call.

    Both produce byte-identical findings — the compiled tables are exact,
    with per-row fallback to the solver path for decisions the compiler
    could not close, and both engines take each decision from its one
    definition ({!Vmodel.Compiled_model.live_witness}). *)
type mode = Solver | Hybrid

val by_content : Vmodel.Cost_row.t list -> Vmodel.Cost_row.t list
(** The order candidate pools take before the witness scan: a stable sort
    by {!Vmodel.Cost_row.content_key}.  Findings follow it.  The solver
    engine sorts with this reference; the compiled engine answers the same
    order from {!Vmodel.Compiled_model.content_order}. *)

val degraded_findings : Vmodel.Impact_model.t -> finding list
(** Conservative findings for a model built under budget degradation: one
    per dropped path (its configuration region has unknown cost, [fast_row =
    None], [trigger = "degraded"]).  Included by {!check_current},
    {!check_update} and {!check_workload_change} automatically, so
    degradation can only {e widen} the reported specious set, never shrink
    it. *)

val check_update :
  ?mode:mode ->
  ?compiled:Vmodel.Compiled_model.t ->
  model:Vmodel.Impact_model.t ->
  registry:Vruntime.Config_registry.t ->
  old_file:Config_file.t ->
  new_file:Config_file.t ->
  unit ->
  (report, string) result
(** Mode 1.  [Error] when a file fails to validate against the registry.
    [compiled] is used only when it was compiled from this exact [model]
    (physical identity) and [mode] is [Hybrid]. *)

val check_current :
  ?mode:mode ->
  ?compiled:Vmodel.Compiled_model.t ->
  model:Vmodel.Impact_model.t ->
  registry:Vruntime.Config_registry.t ->
  file:Config_file.t ->
  unit ->
  (report, string) result
(** Mode 2, generalized: checks the file's effective values (defaults
    included) against the model's poor states. *)

val check_upgrade :
  ?old_digest:string ->
  ?new_digest:string ->
  old_model:Vmodel.Impact_model.t ->
  new_model:Vmodel.Impact_model.t ->
  unit ->
  report
(** Mode 3a: states that got significantly slower in the new code version's
    model, matched by configuration-constraint text (keyed lookup — no
    solver involved, so no [mode]).  When both serialized-model digests are
    supplied and equal, the row sweep is skipped outright — identical
    models cannot produce findings (the incremental path hits this
    constantly: an upgrade whose diff misses a slice carries its model over
    verbatim). *)

val check_workload_change :
  ?mode:mode ->
  ?compiled:Vmodel.Compiled_model.t ->
  model:Vmodel.Impact_model.t ->
  old_workload:(string * int) list ->
  new_workload:(string * int) list ->
  unit ->
  report
(** Mode 3b: rows whose input predicate the new workload satisfies compared
    against the rows the old workload satisfied.  On a degraded model the
    conservative {!degraded_findings} are appended: the shifted workload may
    land in an unknown-cost region, so the widening applies here too. *)

val pp_report : report Fmt.t
