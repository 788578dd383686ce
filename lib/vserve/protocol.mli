(** The vserve request/response protocol.

    One JSON object per line in each direction.  Requests mirror the three
    continuous-checker modes (paper Section 4.7) plus the service verbs:

    - [check-current]: mode 2 — is the (full) config file's effective value
      of the model's target parameter in a poor state?
    - [check-update]: mode 1 — does the old→new file change introduce a
      regression?
    - [check-upgrade]: mode 3 — with workloads given, 3b (the workload class
      shifted); without, 3a (the registry's previous model generation vs the
      current one, i.e. "did the last hot-reloaded model make my setting
      slow?").
    - [health] / [stats] / [shutdown]: service management.
    - [reload-stage] / [reload-commit]: two-phase hot reload — stage
      verifies every model file in the registry directory without touching
      the live table; commit flips the staged generation in.  The vfleet
      router drives the pair across every shard so mixed-generation answers
      never escape the fleet.

    Config files travel as raw file text (the daemon parses with
    {!Vchecker.Config_file.parse}, with its per-line recovery), so any byte
    sequence a real my.cnf can hold — including non-ASCII values — reaches
    the checker unchanged.

    Findings serialize completely: rows carry their constraints as the same
    s-expression strings impact models persist, so a served finding decodes
    to the identical {!Vchecker.Checker.finding} value the in-process
    checker produced (call-tree [nodes] excepted, exactly as model
    persistence drops them). *)

type request =
  | Check_current of { key : string; config : string }
  | Check_update of { key : string; old_config : string; new_config : string }
  | Check_upgrade of {
      key : string;
      workloads : ((string * int) list * (string * int) list) option;
          (** [(old, new)] workload assignments selects mode 3b; [None] is
              mode 3a against the previous model generation *)
    }
  | Health
  | Stats
  | Reload_stage
  | Reload_commit
  | Shutdown

type outcome = {
  findings : Vchecker.Checker.finding list;
  checked_in_s : float;
  generation : int;  (** model-registry generation that served the check *)
  batched : bool;
  coalesced : bool;
      (** [batched] and [coalesced] are always [false]: the daemon runs each
          check by itself.  They stay because they are part of the wire
          format that every client decodes. *)
  degraded : bool;
      (** overload shed: only the conservative widening (degraded-region
          findings) ran, not the full comparison *)
}

type model_info = { mi_key : string; mi_generation : int; mi_digest : string }

type error_code =
  | Overloaded  (** admission queue full — load was shed *)
  | Bad_request
  | Unknown_model
  | Check_failed  (** the checker itself reported an error *)
  | Shutting_down

type response =
  | Report of outcome
  | Health_info of { status : string; models : model_info list }
  | Stats_info of Wire.t  (** the stats JSON object, spliced verbatim *)
  | Reload_info of { phase : string; ok : bool; entries : (string * string) list }
      (** [phase] is ["stage"] or ["commit"]; [entries] pairs each key with
          its staged digest / committed generation, or with the rejection
          reason when [ok] is false *)
  | Error_resp of { code : error_code; message : string }
  | Bye  (** shutdown acknowledged *)

val verb_of_request : request -> string

val key_of_request : request -> string option
(** The model key a check verb names; [None] for a service verb. *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

val request_to_wire : ?id:int -> request -> Wire.t
(** The request as the JSON value a peer sends, one line each
    ({!Conn.send}).  [id] is echoed in the response. *)

val encode_request : ?id:int -> request -> string
(** [request_to_wire]'s one line, no trailing newline. *)

val request_line : ?id:int -> request -> string
(** [encode_request ?id req ^ "\n"], rendered in {!Wire.to_line}'s reused
    buffer: what the client writes. *)

val decode_request : string -> (int option * request, string) result

val response_to_wire : ?id:int -> response -> Wire.t
(** The response as the JSON value the daemon and the router send. *)

val encode_response : ?id:int -> response -> string

val decode_response : string -> (int option * response, string) result

val findings_to_wire : Vchecker.Checker.finding list -> Wire.t
(** The findings array exactly as {!encode_response} embeds it — the hook
    the end-to-end byte-identity test compares on. *)

val findings_of_wire : Wire.t -> (Vchecker.Checker.finding list, string) result
