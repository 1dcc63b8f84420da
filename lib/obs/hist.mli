(** Log-bucketed (HDR-style) histograms over non-negative integers.

    Values below 16 land in exact buckets; above that each power-of-two
    octave splits into 16 sub-buckets, bounding relative error by ~6% at
    any magnitude. Recording is allocation-free and deterministic;
    percentiles report the lower bound of the covering bucket. Negative
    values clamp to 0. *)

type t

val create : unit -> t
val clear : t -> unit
val record : t -> int -> unit

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Smallest recorded value (0 when empty). *)

val max_value : t -> int
(** Largest recorded value, exact (0 when empty). *)

val percentile : t -> float -> int
(** [percentile t q] for 0 < q <= 1: the lower bound of the bucket
    holding the ceil(q*count)-th smallest sample. 0 when empty. *)

val bucket_index : int -> int
(** Bucket covering a value — exposed for the unit tests. *)

val bucket_lo : int -> int
(** Smallest value a bucket index covers; [bucket_lo (bucket_index v)]
    is <= [v] with relative error bounded by 1/16. *)

val to_json : t -> Metrics.json
(** [Obj] with count/sum/min/max/p50/p90/p99 plus a sparse ["buckets"]
    list of [lo, count] pairs, ascending. *)

(** {2 The engine's histogram set}

    The six latency/size distributions the metrics schema carries
    (section ["hist"] of ia32el-metrics/2). All are recording-only:
    attaching the set never charges cycles or perturbs observables.
    [syscall_latency], [futex_wait], [trace_length], [translate_block]
    and [tcache_probe_depth] are measured in deterministic virtual units;
    [snapshot_cost] is host microseconds (informational, like the phase
    wall-timers). *)

type set = {
  syscall_latency : t;
  futex_wait : t;
  trace_length : t;
  tcache_probe_depth : t;
  translate_block : t;
  snapshot_cost : t;
}

val create_set : unit -> set

val set_to_json : set -> (string * Metrics.json) list
