(** Two-level set-associative LRU data-cache timing model.

    Only timing is modeled (contents live in guest memory); each access
    returns the extra stall cycles beyond the pipeline's L1 load latency.
    The second level is what makes the paper's mcf observation
    reproducible: the 32-bit-data IA-32 version of a pointer-chasing
    workload fits in cache where the LP64 native version does not.

    Each level remembers where the line of its last access sits, so a
    run of accesses to one line (a loop's stack slot, a struct's
    fields) hits after one compare, with no search of the set; the LRU
    ranks and counters move exactly as a search would move them. *)

type t

val create :
  ?l1_size:int ->
  ?l1_assoc:int ->
  ?l1_line:int ->
  ?l2_size:int ->
  ?l2_assoc:int ->
  ?l2_line:int ->
  unit ->
  t
(** Defaults: 16 KiB 4-way 64-byte L1; 256 KiB 8-way 128-byte L2;
    7-cycle L2 penalty; 80-cycle memory penalty. Each level's set count
    ([size / (assoc * line)]) must be a power of two.
    @raise Invalid_argument otherwise. *)

val access : t -> int -> int
(** [access t addr] simulates one access and returns the extra stall
    cycles: 0 on an L1 hit, 7 on an L2 hit, and 7 + 80 on a full miss.
    Fills lines on misses. *)

type stats = {
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
}

val stats : t -> stats

type checkpoint

val checkpoint : t -> checkpoint
(** Deep copy of the full timing state (tags, LRU ranks, counters). *)

val checkpoint_into : t -> checkpoint -> unit
(** Overwrite a checkpoint of a cache with the same geometry (taken from
    this cache, typically) with the current state, allocating nothing —
    snapshot epochs recycle their checkpoints this way.
    @raise Invalid_argument on a geometry mismatch. *)

val restore : t -> checkpoint -> unit
(** Copy a checkpoint back in place — snapshot revert uses this so a
    rerun sees bit-identical stall timing.
    @raise Invalid_argument on a geometry mismatch. *)

val levels : checkpoint -> (int array * int array * int) list
(** Copies of a checkpoint's tags, LRU ranks and access tick, L1 then L2
    (tests). *)
