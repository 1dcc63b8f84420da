(** Multithreaded guest workloads (DESIGN.md §11).

    Both exercise the Vos thread model end to end: spawn/join, the
    deterministic quantum scheduler, futex wait/wake and yield — and
    both self-check, exiting nonzero if the shared-memory protocol or
    the join results are wrong. *)

val default_workers : int
(** Worker-thread count used by the stock workload lists (3). *)

val producer_consumer : workers:int -> Common.t
(** "threads-pc": the main thread produces LCG items into an 8-slot
    shared ring; [workers] consumer threads (clamped to 1–8) drain it
    under futex wait/wake, each mixing items through a compute burst.
    Verifies produced sum = consumed sum and per-worker join codes. *)

val all : workers:int -> Common.t list
