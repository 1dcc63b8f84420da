(** The IPF execution core: the instruction semantics, run as
    issue-group programs.

    Each instruction compiles to a closure over its resolved operands;
    these closures are the only IPF instruction semantics. {!run} strings
    them into issue-group programs, compiled lazily per entry (bundle,
    slot): the closures of the group's slots plus the group's timing
    resolved at compile time — where it ends (stop bit or RAW split), its
    issue span, retired-slot and speculation-check counts, its
    deduplicated register sources and its ordered write list, as prefix
    aggregates per slot. A program is validated by the {!Tcache.stamp}s
    of every bundle it spans, so chain patching and SMC invalidation
    recompile exactly the groups they rewrite. A program whose stamps
    fail is reused, its stamps updated in place, when the bundles it
    spans hold the same content again: the same slot instructions and
    stop bits up to where the group ended and, where a RAW split ended
    it, a next slot that reads the same resources. A program that ran
    off the end of the tcache, or that finishes a group after a store
    rewrote its first slots (a carry), depends on more than that content
    and is never reused. So a block revived in place
    ({!Tcache.restore_range}) runs the programs compiled from its
    content before the kill, and a run replayed after a flush — which
    re-installs its blocks at the same indices with the same content —
    compiles only the groups whose content differs from the last ones
    compiled at their entries (chain patches).

    {!reference_run} runs the same closures one fetched slot at a time
    and derives the timing per slot. It exists as the test oracle for the
    group accounting: simulated cycles, bucket attribution, all stats
    counters, fault records and exit reasons from {!run} must match it
    exactly, including side exits in the middle of a group. *)

type t

val create : Machine.t -> t
(** Attach a group-program cache to a machine. The machine (and its
    tcache) stay the single source of truth; [t] only holds derived
    state. *)

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
(** Group programs compiled so far, over the cache's lifetime
    (diagnostics/tests). *)

val cached_programs : t -> int
(** Number of group programs cached by entry position that {!run} would
    use without recompiling, by stamps or by content: at most one per
    tcache slot (diagnostics/tests). *)

val retained_programs : t -> int
(** Number of distinct group programs the cache keeps alive, valid or
    stale, counting those reached only through chain links. A program
    replaced at its entry position drops its links, so this stays within
    three per cached entry position (diagnostics/tests). *)

(** {2 Single programs, for tests} *)

type program

val compile_at : ?carry:Insn.t array -> t -> int -> program
(** Compile the group entered at position [3 * bundle + slot] without
    caching it. With [carry], as the mid-group restart {!run} compiles
    when a store rewrote the rest of a group whose [carry] slots already
    ran. *)

val reusable : t -> program -> bool
(** Whether {!run} would take [program] without recompiling, against the
    tcache as it is now: its stamps hold, or its content is back. *)
