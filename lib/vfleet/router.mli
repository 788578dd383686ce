(** The fleet front door: a single-threaded [select] proxy that speaks the
    {!Vserve.Protocol} on both sides.

    Clients connect to one socket and see one logical daemon; behind it the
    router consistent-hashes each check's model key onto a preference list
    of shard workers ({!Hash_ring.preference}) and proxies the request:

    - {e dispatch}: the request is re-encoded with a router-assigned id and
      written to the preferred shard's connection; the response is
      re-encoded with the client's id.  The wire encoding is canonical, so
      a proxied answer is byte-identical to what the worker produced (and
      to what an in-process checker would have encoded) — the vfuzz Oracle
      pins this;
    - {e retry / failover}: every dispatch carries a per-attempt deadline.
      A timeout, a dead worker connection, or a worker [overloaded] answer
      re-dispatches the (pure, idempotent) check to the next untried shard
      on the preference list.  Worker overload is retried but {e not}
      charged to the shard's breaker, and is counted in
      [overload_redispatches]; timeouts and connection failures are charged,
      and counted in [failovers].  A worker's [unknown-model] answer for a
      key the router's own registry holds (the worker started while the
      model file was unreadable) goes to the next candidate, or to the
      fallback when none is left; it is counted in [retries] only and not
      charged.  A key the router does not know is answered
      [unknown-model];
    - {e breaker}: consecutive charged failures open a per-shard breaker
      for a cooldown; an open shard is skipped at dispatch.  After the
      cooldown one probe dispatch is allowed through (half-open);
    - {e fallback}: when no shard candidate remains — all down, tripped, or
      past the down budget — the router answers from its own model registry
      with the conservative widening ({!Vchecker.Checker.degraded_findings},
      [degraded = true]), so overloaded or dying fleets degrade instead of
      erroring;
    - {e stale answers}: a late response whose request was already answered
      (by failover or fallback) is dropped and counted, never forwarded;
    - {e two-phase reload}: [reload-stage] drains in-flight requests, then
      fans stage to every shard (and the router's own registry); commit is
      refused unless the last stage round fully succeeded, then drains and
      fans the flip.  No check is dispatched between a shard committing and
      the round completing, so clients never observe answers from two model
      generations;
    - {e service verbs}: [health] answers from the router's registry;
      [stats] pulls each live worker's stats over the wire and answers one
      object: [shards] (each {!Topology.shard_to_wire}, merged with the
      supervisor's state file when present, carrying the worker's own stats
      answer under [stats]), then [routed], [retries], [failovers],
      [overload_redispatches], [timeouts], [stale_responses],
      [fallback_degraded], [shed], [write_failed], [reloads_staged],
      [reloads_committed], and a [latency] histogram folding the router's
      dispatch-to-answer times with every worker's
      ({!Vserve.Latency.of_wire}). *)

type options = {
  topology : Topology.t;
  models_dir : string;
  replication : int;
      (** preference-list prefix eligible for a key (capped at the shard
          count); 1 = no failover candidates (default 2) *)
  retries : bool;
      (** [false] disables the resilience machinery wholesale — no
          re-dispatch and no degraded fallback, the first failure answers
          the client with an error (the bench A/B hatch for the chaos
          experiment) *)
  attempt_timeout_s : float;  (** per-dispatch deadline (default 2.0) *)
  max_pending : int;  (** router admission bound (default 256) *)
}
(** The rest of the router's failure handling is fixed:
    - 64 ring points per shard ({!Hash_ring.make});
    - at most 3 dispatches per request, across shards;
    - a shard down for more than 1.0 s is skipped at dispatch;
    - 3 consecutive charged failures open a shard's breaker, for 1.0 s
      before half-open;
    - down shards are probed for reconnection every 0.25 s;
    - the [shutdown] verb is always honoured;
    - times are read from [Unix.gettimeofday]. *)

val default_options : topology:Topology.t -> models_dir:string -> options

val run : options -> (unit, string) result
(** Bind the router socket and serve until a [shutdown] request.  Same
    contract as {!Vserve.Server.run}; runs in a process that
    {!Supervisor} forks (under [violet fleet start], and in the vfuzz
    oracle's fleet leg).  The router loads [models_dir] once at startup and
    thereafter changes generation only via two-phase reload. *)
