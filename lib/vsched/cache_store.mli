(** Persistent cross-run solver cache store.

    Serializes {!Solver_cache.dump} values to disk under the
    {!Vresilience.Checkpoint} envelope (magic + version + kind + length +
    md5, atomic tmp+rename writes), so repeated analyses of near-identical
    program versions start warm; a loaded dump warms a run through
    {!Solver_cache.prime}.

    Every file carries a [stamp] naming the variable domains its
    verdicts were proved under.  A cache key renders a variable by its
    name alone, yet [opt >= 1 && opt <> 1] is unsatisfiable over [0..1]
    and satisfiable over [0..3]; the pipeline stamps each file with the
    analyzed system's registry keys, and a file read under another stamp
    is rejected.

    A missing, truncated, corrupt, version-skewed or differently stamped
    file is never an error for the analysis — {!load} reports why via
    [Error], and callers fall back to a cold cache.  [save] failures
    (e.g. read-only cache dir) are likewise reported, not raised. *)

val kind : string
(** Envelope kind prefix ("solver-cache"); the envelope's kind is this
    prefix followed by a digest of the stamp. *)

val version : int
(** On-disk format version; bump when {!Solver_cache.dump}'s shape
    changes. *)

val file : dir:string -> system:string -> param:string -> string
(** Canonical cache path [<dir>/<system>.<param>.vcache] for one
    (system, parameter) analysis.  Path separators and other non-filename
    characters in the components are replaced with ['_']. *)

val save :
  path:string -> stamp:string -> Solver_cache.dump -> (unit, Vresilience.Checkpoint.error) result
(** Atomically persist a dump under [stamp] (parent directory is created
    if missing). *)

val load :
  path:string -> stamp:string -> (Solver_cache.dump, Vresilience.Checkpoint.error) result
(** Read back a dump; the payload is unmarshalled only after the
    envelope's digest verifies, so corruption surfaces as a typed error,
    never a crash.  A file saved under another [stamp] comes back as
    [Kind_mismatch]. *)

val load_filtered :
  path:string ->
  stamp:string ->
  dirty:string list ->
  (Solver_cache.dump, Vresilience.Checkpoint.error) result
(** {!load} followed by {!Solver_cache.filter_dump}: entries whose
    footprints mention a [dirty] symbol name are dropped and the dump's
    counters are zeroed, making the result safe to prime into a fresh
    run's cache. *)
