(** The translation cache: a growable array of bundles that the machine
    executes from. Block chaining patches branch targets in place,
    exactly like the real translator patches its branch-to-translator
    stubs into direct block-to-block branches. *)

type t

val create : unit -> t

val set_trace : t -> Obs.Trace.t option -> unit
(** Attach (or detach) a trace; the cache then emits [Chain_patch],
    [Tcache_invalidate] and [Tcache_evict] events. Recording only —
    cache behavior and cost accounting are unaffected. *)

val length : t -> int
(** Number of bundles; also the index the next {!append} returns. *)

val generation : t -> int
(** Mutation counter, bumped by {!append}, {!patch_slot},
    {!patch_dispatch}, {!invalidate_range}, {!restore_range} and
    {!clear}. It says only that something changed, not what: {!Exec}
    checks a block program against the bundles it was compiled from once
    per generation, and not again while the generation holds. *)

val set_capacity : t -> int option -> unit
(** Clamp the cache to a hard bundle capacity (or lift the clamp with
    [None]). The engine flushes wholesale once {!over_capacity} holds —
    the knob the chaos harness uses to force eviction storms. *)

val over_capacity : t -> bool
(** [true] when a capacity is set and the cache has reached it. *)

val clear : t -> unit
(** Drop every bundle (translation-cache flush, paper §2: the cache is a
    fixed-size resource flushed wholesale when exhausted). Callers must
    also discard every structure holding bundle indices. *)

val get : t -> int -> Bundle.t
(** @raise Invalid_argument on an out-of-range index. *)

val append : t -> Bundle.t -> int
(** Append one bundle and return its index. *)

val append_list : t -> Bundle.t list -> int
(** Append bundles in order and return the index of the first. *)

val patch_slot : t -> idx:int -> slot:int -> Insn.t -> unit
(** Overwrite one slot, used to chain a freshly translated block into its
    predecessor's exit branch. *)

val patch_dispatch : t -> idx:int -> target:int -> dest:int -> int
(** Rewrite every [Out (Dispatch target)] branch in bundle [idx] into a
    direct branch to bundle [dest]. Returns how many slots changed. *)

val invalidate_range : t -> start:int -> stop:int -> target:int -> unit
(** Overwrite bundles [start, stop) with dispatch-out exits to [target],
    so stale chained predecessors of an invalidated block (SMC,
    misalignment regeneration) fall back to the runtime. *)

val restore_range : t -> start:int -> Bundle.t array -> unit
(** [restore_range t ~start code] puts copies of [code] back at bundles
    [start, start + length code), a mutation like any other write.
    [code] stays the caller's: it can be restored again after a later
    overwrite. Used to revive a translation that {!invalidate_range}
    overwrote; {!Exec} reuses the block programs compiled from that
    content before the overwrite, judging them by content.
    @raise Invalid_argument on a range past the end. *)
