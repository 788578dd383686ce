(** Request-latency histogram for the serving layers: the daemon's
    enqueue-to-response time and the fleet router's dispatch-to-answer
    time.

    Power-of-two buckets in microseconds: bucket [i] counts latencies
    [<= 2^i] us, 28 buckets up to ~67 s, the last one the overflow.
    Mutable and not domain-safe: observe from the serving loop only. *)

type t

val create : unit -> t
val observe : t -> us:float -> unit

val merge : into:t -> t -> unit
(** Bucket-wise sum; the maximum is the larger of the two. *)

val to_wire : t -> Wire.t
(** [{observations, mean_us, max_us, p50_us, p90_us, p99_us,
    bucket_counts}].  A percentile is the upper bound of the bucket
    holding that quantile's observation, the recorded maximum for the
    overflow bucket, and [0.] with no observations. *)

val of_wire : Wire.t -> t option
(** The histogram {!to_wire} printed, as the fleet router reads it from a
    worker's stats: counts and maximum exact, the sum rebuilt from the
    mean.  [None] unless every bucket count is present. *)
