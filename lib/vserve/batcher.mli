(** Request batching with coalescing.

    A drained admission queue is executed as one {e batch}: requests are
    grouped by a caller-supplied batching key (the server uses "model key +
    registry generation", so every request in a group runs against the very
    same model value and shares whatever the checker's solver layer memoizes
    for it), identical requests within a group are {e coalesced} — computed
    once, fanned out to every duplicate — and the distinct representatives
    run one after another, in input order, on the server's one domain.

    Order contract: the result array lines up index-for-index with the
    input, whatever the grouping did. *)

type stats = {
  groups : int;  (** distinct batching keys in this batch *)
  batched_requests : int;  (** requests that shared a group with >= 1 other *)
  coalesced : int;  (** requests served from a duplicate's computation *)
}

val run :
  group_of:('a -> string) ->
  dedup_of:('a -> string) ->
  exec:('a -> 'b) ->
  'a array ->
  ('b * bool * bool) array * stats
(** [run ~group_of ~dedup_of ~exec reqs] executes every distinct
    [(group_of r, dedup_of r)] pair once via [exec], in order of first
    appearance, and returns, per input index, [(result, batched,
    coalesced)]: [batched] when the request's group held more than one
    request, [coalesced] when its result was computed for another index.
    [exec] must not raise. *)
