(** The continuous configuration-checking daemon.

    One process serves {!Protocol} requests over a Unix-domain or TCP socket,
    newline-delimited JSON both ways.  The loop is a single-threaded
    [select] reactor that runs one check per turn:

    + readable sockets are drained and parsed; service verbs
      ([health]/[stats]/[reload-stage]/[reload-commit]/[shutdown]) are
      answered inline, check verbs pass
      {e admission control} — a bounded queue; when it is full the request is
      answered [overloaded] immediately and counted as shed;
    + then the oldest queued check runs on the server's one domain and its
      answer is written straight away;
    + each admitted request carries a {!Vresilience.Budget} armed at
      admission (one shared spec, {!Vresilience.Budget.rearm}ed per
      request).  If queue wait has pushed the budget past [shed_pressure] by
      the time the request executes, the full check is skipped and only the
      conservative degraded-region widening
      ({!Vchecker.Checker.degraded_findings}) runs — overload degrades
      answers instead of erroring;
    + between turns the {!Registry} is re-polled, so replacing a model
      file hot-swaps the next check onto the new generation (a corrupt
      replacement is rejected and the old generation keeps serving).

    A server is one domain in one process: a caller that wants more cores
    runs a fleet of forked workers ([violet fleet start]), and a test or benchmark that wants
    a throwaway daemon forks one.

    Responses to service verbs may overtake queued check responses on the
    same connection; clients correlate by request [id].

    [stats] answers one object, in this field order: [requests] (answered,
    service verbs included), [by_verb], [shed_queue_full] (refused at
    admission), [shed_deadline] (served degraded because queue wait used up
    the deadline), [write_failed] (responses lost to a dead client
    connection), [model_reloads], [model_load_failures], [model_compiles],
    [compile_wall_s], [models] (key to generation) and [latency]
    ({!Latency.to_wire}, enqueue to response, check verbs only). *)

type addr = Conn.addr

type options = {
  addr : addr;
  models_dir : string;
  resolve_registry : Vmodel.Impact_model.t -> Vruntime.Config_registry.t option;
      (** configuration registry for a model's system ([check-current] and
          [check-update] need one to encode config files); the CLI wires
          {!Targets.Cases}, tests wire their fixture *)
  max_queue : int;  (** admission-queue depth bound (default 64) *)
  request_deadline_s : float option;
      (** per-request budget deadline, armed at admission (default none) *)
  shed_pressure : float;
      (** budget pressure at execution time beyond which the request is
          served degraded-only (default 0.9) *)
  refresh_every_s : float;  (** model-directory poll period (default 0.5) *)
  manual_reload : bool;
      (** disable the background directory poll: models load once at startup
          and change only via the two-phase [reload-stage]/[reload-commit]
          verbs.  Fleet workers run this way so every shard flips generation
          at the router's command, never on its own clock (default false) *)
  allow_shutdown : bool;  (** honour the [shutdown] verb (default true) *)
}
(** Latency metrics and request budgets read [Unix.gettimeofday]. *)

val default_options : addr:addr -> models_dir:string -> options
(** [resolve_registry] defaults to [fun _ -> None]. *)

val health : Registry.t -> stopping:bool -> Protocol.response
(** The [health] answer, for the daemon and the vfleet router: status
    ["ok"] or ["stopping"], and every live model's key, generation and
    digest in key order. *)

val run : options -> (unit, string) result
(** Bind, serve until a [shutdown] request, then drain and exit.  [Error] on
    bind/listen failure.  An existing Unix-socket file at [addr] is
    replaced; the file is removed again on clean shutdown.  SIGPIPE is
    ignored process-wide (disconnecting clients must not kill the daemon).
    Mode-3a upgrade reports are memoized per (model key, generation) in the
    server's own state, so two servers in one process never share one. *)
