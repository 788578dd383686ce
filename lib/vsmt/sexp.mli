(** Minimal s-expressions, the on-disk syntax of impact models.

    The checker is a standalone tool that consumes models produced by an
    earlier analysis run (paper Section 4.7), so models must survive a
    round-trip through a file.  Atoms are unquoted tokens or double-quoted
    strings with [\\]-escapes. *)

type t = Atom of string | List of t list

val atom : string -> t
val list : t list -> t
val int : int -> t
val float : float -> t

val to_string : t -> string

val add : Buffer.t -> t -> unit
(** Append [to_string s] to the buffer.  A printer that appends one small
    tree per item to one buffer never holds a tree of its whole text. *)

val of_string : string -> (t, string) Stdlib.result
(** Parses exactly one s-expression (surrounding whitespace allowed). *)

val to_int : t -> int option
val to_float : t -> float option
val to_atom : t -> string option
