(** Pre-decoded, direct-threaded execution core.

    A drop-in replacement for {!Machine.run} that lowers each tcache
    bundle once into flat micro-op arrays — semantic closures with
    operand indices resolved, precomputed read/write resource sets,
    weights, latencies and stop bits — and validates the lowered image
    with one {!Tcache.stamp} compare per slot, so chain patching and SMC
    invalidation recompile exactly the bundles they rewrite.

    Execution is bit-identical to the interpretive loop: simulated
    cycles, bucket attribution, all stats counters, fault records and
    exit reasons match {!Machine.run} exactly. The engine's
    [enable_predecode] config flag (and the runner's [--no-predecode])
    selects between the two. *)

type t

val create : Machine.t -> t
(** Attach a pre-decode cache to a machine. The machine (and its tcache)
    stay the single source of truth; [t] only holds derived state. *)

val run : ?fuel:int -> t -> Machine.stop
(** Execute from the machine's current [ip] until an exit branch leaves
    the translation cache, a fault is raised, or [fuel] slots are spent.
    Observable behaviour is identical to {!Machine.run}. *)

val cached_bundles : t -> int
(** Number of bundles currently holding a valid lowered image
    (diagnostics/tests). *)
