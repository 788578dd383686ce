(** Fleet layout conventions.

    A fleet lives in one run directory: every shard worker binds a
    Unix-domain socket there, the router binds the front socket, and the
    supervisor publishes its view of the world as an atomically-replaced
    JSON state file.  Everything that needs to find a fleet component —
    CLI, tests, bench, chaos harness — goes through these paths, so the
    naming scheme exists in exactly one place, and so does the state
    file's format. *)

type t = {
  run_dir : string;
  shards : int;  (** worker count; shard ids are [0 .. shards-1] *)
}

val make : run_dir:string -> shards:int -> t
(** Creates [run_dir] (and missing parents) if needed. *)

val worker_addr : t -> int -> Vserve.Server.addr
(** [`Unix "<run_dir>/shard-<i>.sock"]. *)

val router_addr : t -> Vserve.Server.addr
(** [`Unix "<run_dir>/router.sock"] — the socket clients talk to. *)

val state_file : t -> string
(** ["<run_dir>/fleet-state.json"] — the supervisor's published state. *)

(** {1 The state file} *)

type shard_status = {
  id : int;  (** shard index (position on the hash ring) *)
  pid : int;  (** current worker pid; 0 when down *)
  state : string;  (** ["up"], ["down"], ["restarting"] or ["tripped"] *)
  restarts : int;  (** times the supervisor respawned this shard *)
  breaker_trips : int;  (** crash-loop or failure breaker openings *)
  failures : int;  (** probe failures and dispatch errors charged here *)
}

val shard_to_wire : ?stats:Vserve.Wire.t -> shard_status -> Vserve.Wire.t
(** One shard's object, [{id, pid, state, restarts, breaker_trips,
    failures, stats}], as the state file and [fleet stats] both print it.
    [stats] (default [null]) is the worker's own stats answer. *)

val state_to_wire : pid:int -> router_pid:int -> shard_status list -> Vserve.Wire.t
(** The state file's document: [{pid, router_pid, shards}] with the
    supervisor's pid first and the shards in the order given (id order),
    so the file's second ["pid"] is shard 0's — the fleet smoke scripts
    rely on that. *)

val write_state : t -> Vserve.Wire.t -> unit
(** Atomically replace {!state_file} with the printed document (write to a
    temp file in the same directory, then rename) — a reader never sees a
    torn write. *)

val read_state : t -> string option
(** Contents of {!state_file}, or [None] before the first publication. *)

val read_shards : t -> shard_status option array
(** The state file decoded, indexed by shard id: [None] for a shard the
    file does not list, and for every shard when the file is missing or
    unparsable.  Missing fields read as [0] / [""]. *)
