(** Versioned on-disk snapshot envelope.

    A checkpoint file is a one-line header followed by an opaque payload:

    {v violet-ckpt <version> <kind> <payload-bytes> <md5-hex> v}

    The digest covers the payload and is verified {e before} the payload is
    handed back to the caller, so a truncated or bit-flipped file surfaces as
    a typed error instead of reaching [Marshal.from_string] (which may crash
    the process on corrupt input).  Writes go to a temporary file in the same
    directory and are renamed into place, so a crash mid-write — including a
    [kill -9] — leaves the previous checkpoint intact. *)

type error =
  | Io of string  (** open/read/write/rename failure *)
  | Bad_magic  (** not a checkpoint file *)
  | Bad_header  (** header line does not parse *)
  | Version_mismatch of { expected : int; found : int }
  | Kind_mismatch of { expected : string; found : string }
  | Truncated of { expected : int; got : int }
  | Corrupt  (** digest mismatch *)

val error_to_string : error -> string

val write : path:string -> kind:string -> version:int -> string -> (unit, error) result
(** Atomically write [payload] under the envelope. *)

val read : path:string -> kind:string -> version:int -> (string * string, error) result
(** Read and verify a checkpoint: the payload and the md5 hex it was
    verified against, returned only when the magic, version, kind, length
    and digest all check out.  The payload is read into the returned
    string, with no second copy. *)
