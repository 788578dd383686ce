(** Incremental re-analysis: diff → invalidate → re-explore → splice.

    Given a {!Baseline} of a prior program version and the new version,
    {!run} re-explores only the {e invalidated} slices (the per-parameter
    impact models whose recorded dynamic coverage intersects changed
    functions) and carries every other slice over verbatim, producing a
    new baseline whose models are byte-identical to a from-scratch
    analysis of the new version — distinguishable from one only by its
    [Spliced] provenance record.

    Invalidation is sound because entry {e into} a changed function is
    decided by call sites in unchanged callers: an analysis whose
    exploration never entered a dirty function explores the new version
    identically, so its model (and every verdict derived from it) cannot
    change.  When that argument does not apply — missing coverage, a
    changed entry function, an options-fingerprint mismatch, a changed
    registry key ({!Violet.Pipeline.registry_keys}: a domain, default or
    hook change touches no function), a changed related-parameter set, a
    model file failing its digest — the slice (or the whole baseline)
    conservatively re-explores. *)

type report = {
  sp_diff : Irdiff.t;
  sp_dirty_functions : string list;
  sp_conservative : string option;
      (** [Some reason] when the whole baseline was invalidated (system,
          entry, options or registry mismatch) and every slice
          re-explored *)
  sp_reused : string list;  (** parameters carried over verbatim *)
  sp_reexplored : (string * string) list;
      (** parameters re-analyzed, with the reason ("coverage touches
          changed code", "no baseline slice", "related-parameter set
          changed", a conservative whole-baseline reason, ...) *)
  sp_models : (string * Vmodel.Impact_model.t) list;
      (** every slice of the new baseline, sorted by parameter *)
  sp_baseline : Baseline.t;  (** the new manifest (already saved to [out]) *)
}

val reuse_fraction : report -> float
(** [reused / (reused + reexplored)]; [0.] on an empty baseline. *)

val run :
  ?opts:Violet.Pipeline.options ->
  baseline:string ->
  out:string ->
  Violet.Pipeline.target ->
  (report, string) result
(** Splice [target] (the {e new} program version) against the baseline in
    directory [baseline], writing the resulting models and manifest into
    [out] (which may equal [baseline]; every write is atomic).  The
    analysis options must match the baseline's fingerprint for any slice
    to be reused. *)

val check_upgrade :
  old_dir:string -> new_dir:string -> ((string * Vchecker.Checker.report) list, string) result
(** Mode-3a upgrade check between two baselines, per parameter present in
    both manifests.  Slices whose model digests match short-circuit
    without touching their model files ({!Vchecker.Checker.check_upgrade}
    digest fast path) — on a small diff that is almost every slice. *)
