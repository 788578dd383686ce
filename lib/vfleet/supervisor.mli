(** The fleet parent: spawns the router and one worker process per shard,
    watches them, and restarts what dies.

    The supervisor process itself never spawns a domain — children come
    from [fork] (so a fleet can only be started from a process that has not
    spawned domains either; {!Vpar.Pool.spawned_domains} is the guard the
    callers use).  Each child resets signal handlers, runs its body
    ({!Vserve.Server.run} for a worker shard, {!Router.run} for the router)
    and leaves with [Unix._exit] — it never returns into the parent's
    control flow.

    Failure handling, per shard:

    - an exited worker is reaped ([waitpid WNOHANG]) and respawned after an
      exponential backoff with jitter (seeded {!Random.State}; doubling per
      consecutive crash, reset by a stable run);
    - a {e crash loop} — more than [crashloop_limit] exits inside 10 s —
      trips the shard's breaker: no more restarts until
      [crashloop_cooldown_s] has passed, then one half-open attempt;
    - an {e unresponsive} worker (alive but failing 3 consecutive health
      probes, each bounded by 1 s) is killed with SIGKILL and handled as an
      exit.

    The supervisor publishes its view — per-shard pid, state
    ([up]/[down]/[restarting]/[tripped]), restart/trip/failure counts — to
    the topology's {!Topology.state_file} after every change (atomic
    replace), which is how [violet fleet stats], the chaos harness, and the
    router's stats aggregation see it.

    Shutdown: SIGTERM (or the router exiting cleanly after a [shutdown]
    request — "drain") sends SIGTERM to every child, reaps them, and
    returns. *)

type options = {
  topology : Topology.t;
  models_dir : string;
  worker_opts : int -> Vserve.Server.options;
      (** options for shard [i]'s daemon; {!default_options} binds the
          shard socket, disables polling reload ([manual_reload]) and
          shutdown-by-wire, and leaves the rest at vserve defaults *)
  router_opts : Router.options;
  probe_every_s : float;  (** health-probe period (default 0.5) *)
  backoff_base_s : float;  (** first restart delay (default 0.05) *)
  crashloop_limit : int;  (** exits in the 10 s window that trip (default 5) *)
  crashloop_cooldown_s : float;  (** tripped pause before half-open (default 5.0) *)
  seed : int;  (** backoff-jitter seed *)
  spawn_worker : (int -> unit) option;
      (** override the forked worker body (tests inject crashy workers);
          [None] runs [Vserve.Server.run (worker_opts i)] *)
}
(** The rest of supervision is fixed:
    - each health probe waits at most 1.0 s for its answer;
    - 3 consecutive failed probes get the worker a SIGKILL;
    - restart delays double from [backoff_base_s] up to 2.0 s;
    - crashes are counted in a 10.0 s window. *)

val default_options : topology:Topology.t -> models_dir:string -> options

val run : options -> (unit, string) result
(** Fork the fleet and supervise until SIGTERM or router exit.  Returns
    after every child has been reaped.  [Error] when called from a process
    that has already spawned domains (forking would be unsound). *)
