(** One buffer a printer renders every text into.  It grows to the longest
    text once instead of every text regrowing a fresh buffer, and gives the
    memory back after one over 1 MiB.  A buffer must stay on one domain. *)

type t

val create : unit -> t

val render : t -> (Buffer.t -> unit) -> string
(** [render buf f] empties [buf], lets [f] append the text to it and
    returns a copy of the text. *)
