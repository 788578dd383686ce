(** Persisted whole-system analysis baselines.

    A baseline directory holds one registry-format impact model per
    analyzed parameter ([<param>.vmodel], written with
    {!Violet.Pipeline.export_model}) plus a checksummed manifest
    ([manifest.vinc], a {!Vresilience.Checkpoint} envelope) recording
    everything incremental re-analysis needs that the models themselves
    do not carry:

    - the {e content keys} of every function of the analyzed program
      version ({!Irdiff.program_keys}), so a new version can be diffed
      without the old program, and of every configuration and workload
      parameter ({!Violet.Pipeline.registry_keys});
    - per slice: the related-parameter set actually made symbolic, the
      digest of the serialized model, the {e dynamic function coverage}
      ({!Vsymexec.Executor.result.visited_functions} — serialized models
      drop call chains, and completed-row chains would miss paths that
      entered a function and then died infeasible);
    - an analysis-options fingerprint (a baseline analyzed under
      different options is not a valid splice donor);
    - a checksummed provenance record: whether this baseline was built
      from scratch or spliced, and from what. *)

type slice_origin =
  | Fresh_slice  (** produced by a full [Pipeline.analyze] run *)
  | Carried  (** copied verbatim from the parent baseline *)

type slice = {
  sl_param : string;
  sl_related : string list;  (** related parameters made symbolic, sorted *)
  sl_digest : string;  (** md5 hex of the serialized impact model *)
  sl_visited : string list;  (** dynamic function coverage, sorted *)
  sl_origin : slice_origin;
}

type provenance =
  | Scratch
  | Spliced of {
      parent : string;  (** {!digest} of the donor baseline *)
      reused : int;  (** slices carried over verbatim *)
      reexplored : int;  (** slices re-explored against the new version *)
    }

type t = {
  mf_system : string;
  mf_entry : string;  (** entry function name; a changed entry invalidates all *)
  mf_program_keys : (string * string) list;  (** (fname, content key), sorted *)
  mf_registry_keys : (string * string) list;
      (** (parameter, content key), sorted; a changed key invalidates all *)
  mf_options_fp : string;
  mf_provenance : provenance;
  mf_slices : slice list;  (** sorted by [sl_param] *)
}

val manifest_kind : string
val manifest_version : int
(** 3: slice digests are {!model_digest}s of format-2 model bytes. *)

val options_fingerprint : Violet.Pipeline.options -> string
(** Digest of every option that can change analysis output (threshold,
    symbolic-set policy, budget caps, overrides, ...).  [jobs]
    is excluded — the diff ignores it, so models are jobs-independent. *)

val digest : t -> string
(** Checksum of the baseline's content (program and registry keys + slice
    digests + options fingerprint): the provenance link a spliced child
    records, and the identity under which two baselines are
    interchangeable. *)

val manifest_file : dir:string -> string
val model_file : dir:string -> param:string -> string

val ensure_dir : string -> unit
(** [mkdir -p] (atomic envelope writes need the directory to exist). *)

val slice_of_analysis :
  origin:slice_origin -> string -> Violet.Pipeline.analysis -> slice
(** Manifest slice for one completed analysis (related set and coverage
    sorted, model digested). *)

val model_digest : Vmodel.Impact_model.t -> string
(** md5 hex of the model's serialized form with [analysis_wall_s] zeroed
    (real wall-clock time is the one field two equal analyses do not
    reproduce) — the identity [sl_digest] records and upgrade checking
    short-circuits on. *)

val save : dir:string -> t -> (unit, string) result
(** Write [manifest.vinc] (atomic, checksummed; the directory is created
    if missing).  Model files are written separately by the caller. *)

val load : dir:string -> (t, string) result
(** Read and verify the manifest; truncation, bit flips and version skew
    come back as [Error], never an exception. *)

val load_model : dir:string -> param:string -> (Vmodel.Impact_model.t * string, string) result
(** Load one slice's model and the md5 digest of its serialized payload
    (for verification against [sl_digest]). *)

val build :
  ?opts:Violet.Pipeline.options ->
  ?params:string list ->
  dir:string ->
  Violet.Pipeline.target ->
  (t * (string * Violet.Pipeline.analysis) list, string) result
(** Build a from-scratch baseline: analyze every parameter ([?params]
    defaults to {!Violet.Pipeline.analyzable_params}), export each model
    into [dir], and save a [Scratch] manifest.  Returns the manifest and
    the per-parameter analyses (for callers that also want wall-clock or
    row data).  Fails on the first parameter whose analysis fails. *)
