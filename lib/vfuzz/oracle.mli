(** The differential oracle.

    The pipeline promises its impact models are deterministic: independence
    slicing ({!Violet.Pipeline.options.slice}) and serving a model through
    the {!Vserve} daemon are both supposed to be {e invisible} to the output.
    The oracle holds every generated system against that promise:

    - analyses with slicing on and off must produce byte-identical impact
      models (wall-clock scrubbed, the one legitimately run-dependent field)
      for every analyzable parameter;
    - checking the exported model through a live daemon must produce findings
      byte-identical (canonical wire encoding) to running
      {!Vchecker.Checker.check_current} in process on the re-imported model;
    - checking through a 2-shard {!Vfleet.Router} fronting two such daemons
      must also be byte-identical — routing, re-encoding with the client's
      request id, and failover machinery must all be invisible to the
      answer bytes.

    The daemon and the fleet are forked children; everything else runs in
    the caller, on its one domain, so a process can run the oracle any
    number of times, and start a fleet after it.

    Any disagreement is a bug in the pipeline, not in the generated system —
    the harness shrinks the system to a minimal reproducer and writes it to
    disk. *)

type disagreement = {
  d_system : string;
  d_param : string;
  d_leg : string;  (** e.g. ["slice=off vs slice=on"] or ["daemon"] *)
  d_detail : string;  (** first point of divergence, truncated *)
}

type report = {
  r_system : string;
  r_params : string list;  (** parameters put through the grid *)
  r_combos : int;  (** model fingerprints compared: two per parameter *)
  r_daemon_checks : int;  (** daemon-vs-in-process findings compared *)
  r_fleet_checks : int;  (** fleet-vs-in-process findings compared *)
  r_mode_checks : int;  (** compiled-vs-solver findings compared (Section 5j) *)
  r_inc_checks : int;  (** spliced-vs-scratch upgrade analyses compared (Section 5k) *)
  r_disagreements : disagreement list;
}

val agreed : report -> bool

val default_opts : Violet.Pipeline.options
(** {!Violet.Pipeline.default_options} with the state budget clamped for
    fuzz-scale systems, so a corpus run stays fast. *)

val findings_fingerprint : Vchecker.Checker.finding list -> string
(** Canonical wire encoding of a findings list ({!Vserve.Protocol}). *)

val check :
  ?opts:Violet.Pipeline.options ->
  ?daemon:bool ->
  ?fleet:bool ->
  ?modes:bool ->
  ?inc:bool ->
  Genspec.t ->
  report
(** Analyze every plant and decoy parameter of the system with slicing on
    and off.  [daemon] (default [true])
    additionally exports each reference model, serves it from a forked
    throwaway daemon on a Unix socket, and compares [check-current]
    findings against the in-process checker.  [fleet] (default = [daemon])
    repeats the comparison through a forked 2-shard
    {!Vfleet.Supervisor.run} fleet, the one [violet fleet start] runs, once
    every worker reports every model loaded.  [modes] (default [true])
    re-checks each exported model in process under [Hybrid] with an
    artifact compiled from it, which must match the [Solver] reference
    byte-for-byte.  [inc] (default [true]) mutates the system with
    {!Mutate.apply}, derives the upgraded models by splicing against a
    baseline of the original ({!Vinc.Splice.run}), and requires the spliced
    baseline to match a from-scratch rebuild byte-for-byte — per-slice
    model digests and upgrade findings alike.

    @raise Failure when called from a process that has already spawned a
    domain (forking would be unsound), as {!Vfleet.Supervisor.run}
    refuses to. *)
