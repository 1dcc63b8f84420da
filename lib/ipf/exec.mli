(** The IPF execution core: the instruction semantics, run as block
    programs.

    Each instruction compiles to a closure over its resolved operands;
    these closures are the only IPF instruction semantics. {!run} strings
    them into programs, compiled lazily per entry (bundle, slot). A
    program covers the fall-through chain of issue groups from its entry:
    it ends with the first group holding an unconditional branch (which
    ends every translated block), with a group that runs off the end of
    the tcache, or where the next group would start past it. Its uops sit
    in one flat array. Each group's timing is resolved at compile time —
    where it ends (stop bit or RAW split), its issue span, retired-slot
    and speculation-check counts, its deduplicated register sources, its
    ordered write list and the bundle it is charged to — both for the
    whole group, which is all a group that runs to its end needs, and as
    prefix aggregates per slot, which only side exits read. Cycles go to
    the bucket that the machine's [bucket_of] holds for that bundle.

    A program is validated once per entry by the {!Tcache.stamp}s of
    every bundle it spans, so chain patching and SMC invalidation
    recompile exactly the programs they rewrite; a store inside a program
    re-checks them. A program whose stamps fail is reused, its stamps
    updated in place, when the bundles it spans hold the same content
    again: the same slot instructions and stop bits up to where its last
    group ended and, where a RAW split ended that group, a next slot that
    reads the same resources. A program that ran off the end of the
    tcache, or that finishes a group after a store rewrote its first
    slots (a carry), depends on more than that content and is never
    reused. Each entry position keeps its current program and the one it
    held before, and takes either back by content. So a block revived in
    place ({!Tcache.restore_range}) runs the programs compiled from its
    content before the kill, and a run replayed after a flush — which
    re-installs its blocks at the same indices with the same content —
    compiles nothing once each position has met both its unpatched and
    its chain-patched content. Where neither comes back whole, the new
    program is derived from the one of the two whose leading groups the
    tcache still holds: it takes those groups over, closures and
    compile-time fields, and compiles from the first changed group on.
    A chain patch rewrites a block's exit, in its last groups, so the
    patched block compiles only those.

    {!reference_run} runs the same closures one fetched slot at a time
    and derives the timing per slot. It exists as the test oracle for the
    program accounting: simulated cycles, bucket attribution, all stats
    counters, fault records and exit reasons from {!run} must match it
    exactly, including side exits in the middle of a group. *)

type t

val create : Machine.t -> t
(** Attach a program cache to a machine. The machine (and its tcache)
    stay the single source of truth; [t] only holds derived state. *)

val run : ?fuel:int -> t -> Machine.stop
(** Execute from the machine's current [ip] until an exit branch leaves
    the translation cache, a fault is raised, or [fuel] slots are spent. *)

val running_bundle : t -> int
(** The bundle the issue group {!run} is running starts in; once [run]
    has returned, that of the last group it ran. Chained execution moves
    from block to block without leaving [run], so this is where a write
    watch firing inside a store learns which translation is executing. *)

val reference_run : ?fuel:int -> t -> Machine.stop
(** {!run}'s observable behaviour, one slot at a time: fetch each slot
    from the tcache, run its closure, and keep the group accounting with
    {!Machine.slot_weight}, {!Machine.latency_of}, the intra-group RAW
    split and {!Machine.close_group}. A test oracle for {!run}'s group
    accounting only; nothing in the library or the executables calls
    it. *)

val compiled : t -> int
(** Programs compiled so far, over the cache's lifetime
    (diagnostics/tests). *)

val compiled_slots : t -> int
(** Slots those programs compiled, over the cache's lifetime: with
    {!compiled}, the compile work a run did (diagnostics/benchmarks). A
    derived program counts only the slots after the groups it took over. *)

val cached_programs : t -> int
(** Number of entry positions whose current program {!run} would use
    without recompiling, by stamps or by content: at most one per tcache
    slot (diagnostics/tests). *)

val retained_programs : t -> int
(** Number of distinct programs the cache keeps alive, valid or stale:
    the current and previous program of every entry position and those
    reached only through their links. A program leaving its position's
    current slot drops its own links (diagnostics/tests). *)

(** {2 Single programs, for tests} *)

type program

val compile_at : ?carry:Insn.t array -> t -> int -> program
(** Compile the program entered at position [3 * bundle + slot] without
    caching it. With [carry], as the mid-group restart {!run} compiles
    when a store rewrote bundles of a running program after [carry]'s
    slots of its group ran. *)

val reusable : t -> program -> bool
(** Whether {!run} would take [program] without recompiling, against the
    tcache as it is now: its stamps hold, or its content is back. *)
