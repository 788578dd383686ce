(** The serving model registry.

    A registry watches one directory of registry-format model files
    ([<key>.vmodel], the {!Violet.Pipeline.export_model} envelope) and keeps
    the latest {e good} generation of each key in memory:

    - every successful (re)load bumps the key's generation counter and
      retains the previous model, so mode-3a upgrade checks can compare "the
      model before the last hot reload" against the current one;
    - a file whose envelope fails verification (checksum mismatch, truncated,
      wrong version — e.g. a write that was killed half-way) is {e rejected}
      and the previous generation keeps serving;
    - swap is atomic per key: readers either see the old entry or the fully
      loaded new one, never a half-state.

    Reloading is poll-based: {!refresh} re-examines the directory and is
    cheap when nothing changed (a stat per file).  The server calls it
    between checks. *)

type entry = {
  key : string;
  path : string;
  generation : int;  (** 1 on first load, +1 per successful reload *)
  digest : string;  (** md5 hex of the model payload *)
  model : Vmodel.Impact_model.t;
  compiled : Vmodel.Compiled_model.t option;
      (** decision tables compiled at load/stage time (DESIGN.md Section
          5j); [None] when the registry was created with [~compile:false].
          Reused across generation bumps whose digest is unchanged. *)
  previous : Vmodel.Impact_model.t option;
      (** the generation this one replaced; [None] for generation 1 *)
  mtime : float;
  size : int;
}

type event =
  | Loaded of { key : string; generation : int }
  | Rejected of { key : string; reason : string }
      (** verification or parse failure; the old generation (if any) is
          still live *)
  | Removed of string  (** the file disappeared; the key was dropped *)

val event_to_string : event -> string

type t

val create : ?compile:bool -> dir:string -> unit -> t
(** No I/O happens until {!refresh}.  [compile] (default [true]) builds a
    {!Vmodel.Compiled_model} for every freshly parsed model at load/stage
    time. *)

val dir : t -> string

val refresh : ?force:bool -> t -> event list
(** Rescan the directory, file by file: a file that fails to load rejects
    only itself.  Unchanged files (same mtime and size) are skipped
    unless [force] is set — tests that rewrite a file within stat
    granularity pass [~force:true].  A touched file whose envelope digest
    still matches the live generation's only refreshes the stat cache: no
    re-parse, no recompile, no generation bump.  {!refresh}, {!stage} and
    {!commit} share one loader and one installer, so they decide these
    cases the same way. *)

val find : t -> string -> entry option
val entries : t -> entry list
(** All live entries, sorted by key. *)

val reloads : t -> int
(** Successful loads (including first loads) since {!create}. *)

val load_failures : t -> int
(** Rejected loads since {!create}. *)

val compiles : t -> int
(** Models compiled into decision tables since {!create} (digest-unchanged
    reloads and stages reuse the live artifact and do not count). *)

val compile_wall_s : t -> float
(** Total wall-clock time spent compiling — the measured load-time tax. *)

(** {2 Two-phase reload}

    The fleet-wide hot-reload discipline: every shard runs {!stage} — which
    verifies each file in the directory (envelope checksum, version, parse)
    and holds the loaded models back from the live table — and only when
    all shards staged successfully does the router ask each to {!commit},
    flipping the staged set in.  A shard that cannot load the new files
    fails the stage and the whole fleet keeps serving the old generation,
    so mixed-generation answers never escape. *)

val stage : t -> (string * (string, string) result) list
(** Verify every model file in the directory without touching the live
    table.  Returns, per key, the payload digest ([Ok]) or the rejection
    reason ([Error]).  The staged set is retained for {!commit} only when
    every file verified. *)

val staged : t -> bool
(** A successful {!stage} is pending. *)

val commit : t -> (event list, string) result
(** Flip the staged set into the live table: changed digests bump the key's
    generation (retaining the previous model for mode 3a), unchanged ones
    only refresh the stat cache, keys whose files disappeared before the
    stage are dropped.  [Error] when no successful stage is pending.
    Consumes the staged set either way. *)

val model_file : dir:string -> key:string -> string
(** The path a key is served from: [<dir>/<key>.vmodel]. *)
