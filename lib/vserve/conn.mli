(** Line-framed socket connections, shared by the daemon reactor and the
    vfleet router.

    A connection owns its fd and a read buffer for bytes past the last
    complete line.  Writes are all-or-nothing from the peer's point of view:
    if a write fails part-way ([EPIPE], [ECONNRESET], a full buffer that
    does not drain within {!send_timeout_s}), the connection is closed — the
    peer must never observe a truncated response line — and
    [on_write_failed] fires, so dropped responses are observable as a
    counter rather than silent. *)

val send_timeout_s : float
(** The send timeout [make] gives every socket: a peer that reads nothing
    for this long is dropped instead of blocking its writer. *)

val max_line_bytes : int
(** Longest pending line [read_lines] keeps; a peer past it is dropped. *)

type addr = [ `Unix of string | `Tcp of string * int ]

val addr_to_string : addr -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val resolve : addr -> (Unix.sockaddr, string) result
(** The one address resolver: a TCP host resolves to its first address.
    [Error] names a host that does not resolve or resolves to no address. *)

val listen : addr -> Unix.file_descr
(** The one binder, for the daemon and the router: bind and listen
    (backlog 64).  An existing Unix-socket file is replaced; a TCP socket
    sets [SO_REUSEADDR], and a host that does not resolve binds the
    loopback interface.  Raises [Unix.Unix_error] when the bind fails. *)

val unlisten : addr -> Unix.file_descr -> unit
(** Close a {!listen} socket and remove its Unix-socket file. *)

val dial : addr -> (Unix.file_descr, string) result
(** Resolve and connect a stream socket, for the client and the router's
    shard connections.  [Error] on resolution failure or connection
    refusal (["connect ADDR: REASON"]), never an exception. *)

type t

val make : ?on_write_failed:(unit -> unit) -> Unix.file_descr -> t
(** Wrap an accepted/connected socket and set its send timeout
    ({!send_timeout_s}).  [on_write_failed] defaults to a no-op. *)

val fd : t -> Unix.file_descr
val closed : t -> bool

val close : t -> unit
(** Idempotent. *)

val send : t -> Wire.t -> unit
(** Write [v] as one line, the bytes of {!Wire.to_line}[ v], straight from
    {!Wire.with_line}'s reused buffer: how the daemon and the router write
    every response and request.  On any write error the connection is
    closed and [on_write_failed] is called; no partial line is ever left
    visible as a complete response.  No-op on a closed connection. *)

val read_lines : t -> string list
(** One readable-event read: drain what the kernel has, return the complete
    lines received (blank lines filtered).  EOF, read errors and a pending
    line longer than {!max_line_bytes} close the connection and return
    [[]]. *)
