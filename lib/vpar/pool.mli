(** Domain-based worker pool: the one place in [lib/] that could run code
    on a second domain.

    A pool is a fixed team of [jobs] workers: worker 0 is the calling domain,
    workers 1..jobs-1 are spawned domains.  Work is handed out through
    {!map_array} (self-dispatching data parallelism), which no code in
    [lib/] calls any more: the trace analyzer's per-state walk runs on the
    calling domain.  Everything that needs concurrency — serving, the
    fleet, the fuzz oracle's daemon legs — forks processes instead, and
    checks {!spawned_domains} first.

    Determinism contract: the pool never reorders results.  [map_array] writes
    each result at its input's index, so any run-order nondeterminism is
    confined to what [f] does with shared state. *)

val clamp_jobs : int -> int
(** Clamp a requested job count to [1 .. 64].  Oversubscription past the
    machine's core count is deliberately allowed: results are
    job-count-independent, so [--jobs 4] on a single-core machine still
    exercises real worker interleavings (how the determinism tests run in
    constrained CI), it just cannot be faster. *)

val spawned_domains : unit -> bool
(** True once any pool has spawned a domain in this process.  OCaml 5
    forbids [Unix.fork] after the first [Domain.spawn] (the runtime goes
    multicore and stays there), so fork-based code checks this first. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f xs] is [Array.map f xs] computed by [jobs] workers
    pulling indices from a shared counter.  Output order matches input
    order regardless of which worker computed which element.

    [f] must read no process-global mutable state: the hash-cons table,
    the simplifier and footprint memos, the checker's memos and every other
    table in [lib/] are plain, unsynchronised structures, because nothing
    but [f] ever runs on a spawned domain.  Precompute what [f] needs into
    arrays first.

    With [jobs = 1] (or on arrays of fewer than 2 elements) no domain is
    spawned.  If [f] raises, the first exception (by worker) is re-raised
    after every domain has been joined — no domain is leaked. *)
