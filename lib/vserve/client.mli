(** Blocking client for the vserve daemon (and the vfleet router, which
    speaks the same protocol).

    One connection, sequential request/response: {!call} assigns a request
    id, writes the line, and reads lines until the response carrying that id
    (or an id-less response, for servers answering without echo) arrives.
    {!post}/{!await} split the two halves so a caller can put several
    requests in flight across connections before collecting any answers —
    what the fleet crash-recovery tests use to have requests genuinely
    in-flight when a worker is killed.  Concurrency otherwise comes from
    many connections, not from pipelining one. *)

type t

val addr_of_string : string -> (Server.addr, string) result
(** ["unix:/path"], ["tcp:HOST:PORT"], or a bare path (taken as a
    Unix-domain socket). *)

val addr_to_string : Server.addr -> string

val connect : Server.addr -> (t, string) result
(** [Error] on resolution failure (including a host that resolves to an
    empty address list) or connection refusal — never an exception. *)

val connect_retry :
  ?deadline_s:float ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  Server.addr ->
  (t, string) result
(** Retry {!connect} with exponential backoff and jitter until it succeeds
    or [deadline_s] (default 5 s) of wall clock has elapsed.  Delays start
    at [base_delay_s] (default 1 ms), double per attempt, and are capped
    at [max_delay_s] (default 0.5 s); each is multiplied by a random factor
    in [0.5, 1.5) so restarting clients spread out.  The failure message
    reports the attempt count and the last underlying error. *)

val close : t -> unit

val call : ?timeout_s:float -> t -> Protocol.request -> (Protocol.response, string) result
(** [Error] on I/O failure, EOF, or an undecodable response line.
    [timeout_s] bounds each wait for response bytes, so a hung daemon
    cannot block the caller forever; omitted = wait indefinitely. *)

val call_once :
  ?timeout_s:float -> Server.addr -> Protocol.request -> (Protocol.response, string) result
(** {!connect}, {!call}, {!close}: one request on its own connection. *)

val post : t -> Protocol.request -> (int, string) result
(** Send one request without waiting; returns the request id for {!await}. *)

val await : ?timeout_s:float -> t -> int -> (Protocol.response, string) result
(** Read until the response carrying the given id (or an id-less response)
    arrives. *)

val call_raw : t -> string -> (string, string) result
(** Send one raw line, return the next raw response line — the byte-level
    hatch the wire tests use. *)
