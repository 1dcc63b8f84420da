(** The IPF execution core: the instruction semantics, run as block
    programs.

    Each instruction compiles to a closure over its resolved operands;
    these closures are the only IPF instruction semantics. A load or
    store of 1, 2 or 4 bytes passes ints straight to {!Ia32.Memory}, so
    no value is boxed on the way; an 8-byte one goes through
    {!Machine.load64} or {!Machine.store64}. Either checks alignment
    before the page, and a store kills overlapping ALAT entries after
    its write. {!run} strings
    them into programs, compiled lazily per entry (bundle, slot). A
    program covers the fall-through chain of issue groups from its entry:
    it ends with the first group holding an unconditional branch (which
    ends every translated block), with a group that runs off the end of
    the tcache, or where the next group would start past it. Its uops sit
    in one flat array. Each group's timing is resolved at compile time —
    where it ends (stop bit or RAW split), its issue span, retired-slot
    and speculation-check counts, its deduplicated register sources, its
    ordered write list and the bundle it is charged to — both for the
    whole group and as prefix aggregates per slot, which only side exits
    read. Cycles go to the bucket that the machine's [bucket_of] holds
    for that bundle, as it is when they are charged.

    Between two groups a program charges nothing. Its whole groups are
    charged when it leaves, one by one, as each would have closed when
    it ended. Where it leaves by a taken branch, a cache exit or off its
    end, that replay is memoized per exit point. The replay of whole
    groups with no dcache stall depends only on the cycle count at the
    entry, on [bucket_of] and on the ready cycles of the registers the
    groups read before writing them (their live-ins); shifting the cycle
    count and those ready cycles together shifts every result alike, and
    a live-in ready by the cycle after the entry holds up no group. So
    the key of a memo is {!Machine.bucket_gen} and each live-in's ready
    cycle less the entry cycle, clipped at 1, read before the replay;
    an exit that finds the key of the last replay at that point adds
    the cycles, bucket split, counters and ready cycles that replay
    left, and any other exit replays and records anew. With a charge
    probe attached, each group is charged as it ends, so the probe sees
    every group as it closes. Where a dcache stall fell in the whole
    groups, and at every other exit (fault, fuel, a rewritten program),
    they replay without a memo. A callback that fires inside a program
    and reads the cycle count calls {!sync} first.

    A program is valid while the tcache holds its content: the same slot
    instructions and stop bits up to where its last group ended and,
    where a RAW split ended that group, a next slot that reads the same
    resources. It is checked against the tcache at most once per
    {!Tcache.generation}, so chain patching and SMC invalidation
    recompile exactly the programs they rewrite; a store that changed
    the tcache inside a program checks the running program the same way.
    A program that ran off the end of the tcache, or that finishes a
    group after a store rewrote its first slots (a carry), depends on
    more than that content and is never reused. Programs are found only
    through a table of entry positions: a taken branch or a fall-through
    looks its target up there. Each entry position keeps its current
    program and the one it held before, and takes either back by
    content. So a block revived in place ({!Tcache.restore_range}) runs
    the programs compiled from its content before the kill, and a run
    replayed after a flush — which re-installs its blocks at the same
    indices with the same content — compiles nothing once each position
    has met both its unpatched and its chain-patched content. Where
    neither comes back whole, the new program is derived from the one of
    the two whose leading groups the tcache still holds: it shares those
    groups' uops and takes over their compile-time fields, compiles
    from the first changed group on and starts with no memos. A chain
    patch rewrites a block's exit, in its last groups, so the patched
    block compiles only those.

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

val sync : t -> unit
(** Charge the whole issue groups the running program has finished so
    far, as closing each when it ended would have. {!run} charges a
    program's groups when the program leaves, so a callback that fires
    inside a program (the engine's write watch) calls this before it
    reads the cycle count. Outside {!run}, and once the groups are
    charged, it does nothing. *)

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

val memo_hits : t -> int
(** Program exits whose whole groups {!run} charged from the memo of an
    earlier exit at the same point rather than group by group, over the
    cache's lifetime (diagnostics/tests). *)

val cached_programs : t -> int
(** Number of entry positions whose current program is {!reusable}: at
    most one per tcache slot (diagnostics/tests). *)

val retained_programs : t -> int
(** Number of programs the cache keeps alive, valid or stale: the
    current and the previous program of every entry position. Nothing
    else refers to a program (diagnostics/tests). *)

(** {2 Single programs, for tests} *)

type program

val compile_at : ?carry:Insn.t array -> t -> int -> program
(** Compile the program entered at position [3 * bundle + slot] without
    caching it. With [carry], as the mid-group restart {!run} compiles
    when a store rewrote bundles of a running program after [carry]'s
    slots of its group ran. *)

val reusable : t -> program -> bool
(** Whether the tcache as it is now holds [program]'s content, so that
    {!run} would take it back at its entry however the tcache changed in
    between. A program that ran off the end of the tcache or has a carry
    never is, even unchanged. *)
