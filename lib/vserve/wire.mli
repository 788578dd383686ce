(** Minimal JSON for the newline-delimited wire protocol.

    The serving layer speaks one JSON value per line.  No external JSON
    dependency exists in this repo, so the codec lives here: a full value
    type, a recursive-descent parser and a canonical printer.  It is the
    repo's one JSON writer: telemetry, the fleet state file and the bench
    reports are [t] values too.

    Canonical output is what makes the protocol testable byte-for-byte:
    objects print their fields in construction order, strings escape exactly
    the characters JSON requires (control characters, double quote and
    backslash) and pass
    every other byte through untouched (so UTF-8 — and any non-ASCII
    configuration value — survives a round-trip verbatim), and floats print
    with enough digits to re-read to the same value, always with a ['.'] or
    exponent so they re-parse as [Float], never as [Int]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved and printed *)

val to_string : t -> string
(** Canonical single-line rendering: [to_string (parse (to_string v)) =
    to_string v].  Non-finite floats (never produced by the protocol) render
    as [null]. *)

val with_line : t -> (Buffer.t -> 'a) -> 'a
(** [with_line v k] renders [to_string v ^ "\n"] into one buffer the
    process reuses for every line, and passes that buffer to [k] without
    copying the text; a line over 1 MiB gives the buffer's memory back
    after [k] returns.  [k] must not keep the buffer or render another
    line.  Not reentrant: call it from one domain. *)

val to_line : t -> string
(** [with_line v Buffer.contents]: the line as a string, for a caller that
    needs one (the client, tests). *)

val of_string : string -> (t, string) result
(** Parse exactly one JSON value (surrounding whitespace allowed).  Accepts
    standard JSON, including [\uXXXX] escapes (decoded to UTF-8, with
    surrogate pairs); numbers containing ['.'], ['e'] or ['E'] parse as
    [Float], all others as [Int]. *)

(** {1 Accessors} — shape helpers for decoding, all total *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for absent fields and non-objects. *)

val to_str : t -> string option
val to_int : t -> int option
val to_float : t -> float option
(** [Int] values convert too — JSON writers are free to print [1] for [1.]. *)

val to_bool : t -> bool option
val to_list : t -> t list option
