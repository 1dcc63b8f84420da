(** Pre-decoded execution core: issue-group programs.

    A drop-in replacement for {!Machine.run} that compiles each issue
    group, lazily per entry (bundle, slot), into a group program: the
    semantic closures of its slots with operand indices resolved, plus
    the group's timing resolved at compile time — where it ends (stop
    bit or RAW split), its issue span, retired-slot and speculation-check
    counts, its deduplicated register sources and its ordered write list,
    as prefix aggregates per slot. A program is validated by the
    {!Tcache.stamp}s of every bundle it spans, so chain patching and SMC
    invalidation recompile exactly the groups they rewrite.

    Execution is bit-identical to the interpretive loop: simulated
    cycles, bucket attribution, all stats counters, fault records and
    exit reasons match {!Machine.run} exactly, including side exits in
    the middle of a group. The engine's [enable_predecode] config flag
    (and the runner's [--no-predecode]) selects between the two. *)

type t

val create : Machine.t -> t
(** Attach a group-program cache to a machine. The machine (and its
    tcache) stay the single source of truth; [t] only holds derived
    state. *)

val run : ?fuel:int -> t -> Machine.stop
(** Execute from the machine's current [ip] until an exit branch leaves
    the translation cache, a fault is raised, or [fuel] slots are spent.
    Observable behaviour is identical to {!Machine.run}. *)

val cached_programs : t -> int
(** Number of currently valid group programs cached by entry position:
    at most one per tcache slot (diagnostics/tests). *)

val retained_programs : t -> int
(** Number of distinct group programs the cache keeps alive, valid or
    stale, counting those reached only through chain links. A program
    replaced at its entry position drops its links, so this stays within
    three per cached entry position (diagnostics/tests). *)
