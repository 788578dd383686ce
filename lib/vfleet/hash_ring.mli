(** Consistent-hash ring over shard ids.

    Each shard contributes 64 points on the ring (md5 of
    ["shard-<i>#<v>"]); a model key routes to the owner of the first point
    clockwise of the key's own hash.  Virtual nodes smooth the key
    distribution; consistent hashing keeps most keys on the same shard when
    the fleet is resized, and — because the fleet replicates every model on
    every worker — the ring is an {e affinity} choice, not a placement
    constraint: any shard can answer any key, and each key's preferred
    owner keeps that worker's compiled-model memos warm.

    Deterministic: the ring is a pure function of [shards], so the
    router, tests, and an operator reading logs all agree on ownership. *)

type t

val make : shards:int -> unit -> t
(** [shards] must be >= 1. *)

val shards : t -> int

val owner : t -> string -> int
(** The shard a key routes to first. *)

val preference : t -> string -> int list
(** All shards in ring order starting at the owner, each exactly once —
    the failover candidate order for the key.  Length = [shards t]. *)
