(** One buffer a printer renders every text into.  It grows to the longest
    text once instead of every text regrowing a fresh buffer, and gives the
    memory back after one over 1 MiB.  A buffer must stay on one domain. *)

type t

val create : unit -> t

val use : t -> (Buffer.t -> unit) -> (Buffer.t -> 'a) -> 'a
(** [use buf f k] empties [buf], lets [f] append the text to it and passes
    the buffer holding the text to [k], with no copy.  [k] must not keep
    the buffer, nor render into [buf] itself. *)

val render : t -> (Buffer.t -> unit) -> string
(** [render buf f] is [use buf f Buffer.contents]: a copy of the text. *)
