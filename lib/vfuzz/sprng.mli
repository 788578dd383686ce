(** The seeded splittable PRNG every piece of vfuzz randomness goes through.

    Reproducibility is the whole point of the fuzzer: a corpus, a mutation
    trail and a differential failure must all be reconstructible from
    [--seed] alone, on any machine, in any process layout.  [Stdlib.Random]'s
    single global state cannot give that once streams are consumed in
    different orders (parallel scoring, early-exit shrinking), so vfuzz uses
    a SplitMix64 generator with {e splitting}: {!split} derives a child
    stream whose output is statistically independent of the parent's and of
    every sibling's, and — crucially — independent of {e how much} of any
    other stream has been consumed.  Generator, mutator, and every generated
    system get their own stream keyed by purpose and index.

    (Audit note: the rest of the repo already routes randomness through
    seeded [Random.State] values — chaos, noise, the user-study bench —
    and nothing calls [Random.self_init] or touches the
    global [Random] state; vfuzz adds no exception.) *)

type t

val make : int -> t
(** A root stream from an integer seed. *)

val split : t -> t
(** A child stream: independent of the parent's subsequent output.  Drawing
    from the child does not advance the parent beyond the split itself. *)

val split_at : t -> int -> t
(** [split_at t k] is the [k]-th of a family of independent child streams,
    the same for a given [(t, k)] no matter how many other children were
    taken or how far they were consumed.  Does not advance [t]. *)

val bits64 : t -> int64
(** Next 64 raw bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]; [bound] must be positive. *)

val range : t -> lo:int -> hi:int -> int
(** Uniform in [\[lo, hi\]] inclusive; requires [lo <= hi]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val choose_weighted : t -> ('a * int) list -> 'a
(** Element with probability proportional to its positive weight; the list
    must contain at least one positive weight. *)

val shuffle : t -> 'a list -> 'a list
val lowercase_ident : t -> len:int -> string
(** A random [a-z] identifier fragment of the given length. *)
