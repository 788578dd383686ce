(** The end-to-end Violet pipeline (paper Figure 6).

    [analyze] wires together every stage for one target parameter:

    + static analysis discovers the control-dependent related parameters
      (Algorithms 1–2);
    + the symbolic hooks make the target and its related set symbolic with
      their valid ranges, plus the requested workload-template parameters;
    + the symbolic executor explores the paths while the tracer records
      signals and costs;
    + the trace analyzer matches records, reconstructs call paths, builds
      the cost table, and runs the differential analysis;
    + the result is a serializable configuration performance impact model.

    A {!target} packages what the paper calls "the target system": the
    (modelled) program, its configuration registry and workload templates.

    Resource limits are carried by one {!Vresilience.Budget.t}.  A run can be
    checkpointed ({!options.checkpoint}) and resumed ({!options.resume});
    a resumed run produces an impact model byte-identical to the
    uninterrupted one.  Under budget pressure the executor walks the
    {!Vresilience.Degradation} ladder, and the resulting model carries a
    degradation summary instead of silently posing as complete. *)

type target = {
  name : string;
  program : Vir.Ast.program;
  registry : Vruntime.Config_registry.t;
  workloads : Vruntime.Workload.template list;
}

(** Everything [analyze] can fail with, as data: the continuous checker
    reports and continues instead of crashing on a [failwith]. *)
type error =
  | Unknown_parameter of { system : string; param : string }
  | Not_hookable of { system : string; param : string }
      (** no symbolic hook can be attached (paper Section 4.1) *)
  | Unused_parameter of { system : string; param : string }
      (** the program never reads the parameter *)
  | Checkpoint_failed of { path : string; reason : Vresilience.Checkpoint.error }
      (** [--resume] could not load the snapshot (missing, truncated,
          corrupt, version mismatch) *)
  | Engine_failure of string
      (** an exception escaped the exploration or trace-analysis stages *)

exception Pipeline_error of error

val error_to_string : error -> string
val pp_error : error Fmt.t

type checkpointing = {
  path : string;  (** snapshot file, atomically rewritten *)
  every_picks : int;  (** checkpoint every N state picks *)
}

type options = {
  threshold : float;  (** differential threshold, default 1.0 (=100%) *)
  budget : Vresilience.Budget.t;
      (** unified resource budget (deadline, state cap, fuel, solver nodes);
          replaces the old [max_states]/[fuel]/[solver_max_nodes] fields *)
  env : Vruntime.Hw_env.t;
  workload_template : string option;
      (** template whose parameters the program reads; defaults to the
          target's first template *)
  sym_workload_params : string list;
      (** workload parameters to make symbolic; [[]] = all of the template's *)
  workload_overrides : (string * int) list;
      (** concrete values for non-symbolic workload parameters *)
  config_overrides : (string * int) list;
      (** concrete values for non-symbolic configuration parameters *)
  include_related : bool;  (** false = ablation: only the target symbolic *)
  all_symbolic : bool;
      (** true = ablation of Section 4.2/Figure 9: make {e every} hookable
          parameter symbolic instead of the related set *)
  slice : bool;
      (** independence slicing in the executor (default true): it sends
          only the relevant symbol-disjoint slices of each path condition
          to the solver and composes per-slice models.  Nothing after
          exploration reads it, so impact models are byte-identical with
          slicing on or off; [false] is the reference that bench [slice],
          the fuzz oracle and the tests compare against, and no CLI flag
          sets it. *)
  noise : Vsymexec.Executor.noise option;
  relaxation_rules : bool;  (** false: Section 5.4 relaxation-rule ablation *)
  fault_injection : bool;
      (** explore library-call failure paths (Section 8 extension) *)
  checkpoint : checkpointing option;  (** periodic frontier snapshots *)
  resume : bool;
      (** continue from [checkpoint.path] instead of starting fresh *)
  chaos : Vresilience.Chaos.t option;
      (** engine-fault injection (solver unknowns, dropped signals,
          truncated checkpoints) — the chaos harness's hook *)
  degradation : Vresilience.Degradation.policy;
  jobs : int;
      (** passed to {!Vmodel.Diff_analysis.analyze}, which ignores it: the
          whole analysis runs on the calling domain, so models are
          jobs-independent.  Default 1, and no CLI flag sets it; it stays
          only while the repository benchmark sets it. *)
}

val default_options : options

type analysis = {
  model : Vmodel.Impact_model.t;
  related : Vanalysis.Related_config.result;
  result : Vsymexec.Executor.result;
  rows : Vmodel.Cost_row.t list;
  diff : Vmodel.Diff_analysis.t;
}

val related_params : target -> string -> Vanalysis.Related_config.result

val hookable : target -> string -> bool
(** Can a symbolic hook be attached to this parameter (paper Section 4.1)? *)

val analyzable_params : target -> string list
(** Parameters eligible for the coverage experiment: performance-related,
    hookable, and actually read by the program (Section 7.6). *)

val companions : ?opts:options -> target -> string -> string list
(** The parameters {!analyze} makes symbolic alongside [param] under
    [opts], sorted, which is the analysed model's [related] list, sorted:
    the static related set cut to its first eight hookable parameters;
    every analyzable parameter under [all_symbolic]; nothing without
    [include_related].  [analyze] chooses its symbolic set through the
    same function. *)

val registry_keys : target -> (string * string) list
(** [(name, content key)] for every configuration and workload parameter
    name, sorted: the registry entry (kind and domain, default, hook) and
    the parameter's definition in every workload template that declares
    it.  A domain or default change shapes exploration without touching
    any function body, so a vinc baseline records these keys. *)

val analyze : ?opts:options -> target -> string -> (analysis, error) result
(** Analyze one target parameter.  Never raises: bad parameters, unloadable
    snapshots and engine escapes all come back as typed {!error}s. *)

val analyze_exn : ?opts:options -> target -> string -> analysis
(** Raises {!Pipeline_error}. *)

(** {1 Registry-format model files}

    The serving layer ({!Vserve.Registry}) loads impact models from files in
    the {!Vresilience.Checkpoint} envelope (versioned, checksummed, written
    with atomic rename): a corrupt or half-written model file is rejected
    before {!Vmodel.Impact_model.of_string} ever sees it. *)

val model_kind : string
(** The envelope [kind] of a registry-format model file (["impact-model"]). *)

val model_version : int
(** 2: the payload is {!Vmodel.Impact_model} format 2. *)

val export_model : Vmodel.Impact_model.t -> string -> (unit, string) result
(** Write a model in registry format (atomically — a crash mid-write leaves
    any previous file intact). *)

val read_model_payload : string -> (string * string, string) result
(** The verified payload of a registry-format model file, unparsed, and
    the md5 hex the envelope verified it against.  A version-1 file is
    refused with {!Vmodel.Impact_model.format1_error}. *)

val import_model : string -> (Vmodel.Impact_model.t, string) result
(** Read and verify a registry-format model file. *)
