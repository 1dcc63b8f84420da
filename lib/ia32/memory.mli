(** Sparse paged 32-bit guest address space (4 KiB pages, little endian).

    Unmapped or permission-violating accesses raise
    [Fault.Fault (Page_fault _)]. A write-watch callback fires on writes to
    watched pages — the hook the translator uses to detect self-modifying
    code on pages it has translated from.

    Fresh pages are demand-zero: every page [map] creates reads one
    shared, never-written zero buffer until its first store (byte store
    or {!load_bytes}) gives it a private one. Mapping a large region
    therefore costs a page record per page, not a zeroed 4 KiB buffer;
    taking that private buffer does not bump the page's write
    generation (the store itself does, once).

    Pages are found through a small direct-mapped page TLB in front of
    the page table, so an access to a recently used page costs one
    compare and allocates nothing; it is invisible to every operation
    below, the table's iteration order ({!first_diff}) included. *)

val page_bits : int
val page_size : int

type prot = { read : bool; write : bool; exec : bool }

val prot_rw : prot
val prot_rx : prot
val prot_rwx : prot

type t

val create : unit -> t

val map : t -> addr:int -> len:int -> prot:prot -> unit
(** Map the pages covering [addr, addr + len) with [prot]. New pages are
    demand-zero (they read zero and share one buffer until written);
    already-mapped pages keep their bytes and only change protection. *)

val unmap : t -> addr:int -> len:int -> unit
val is_mapped : t -> int -> bool
val protect : t -> addr:int -> len:int -> prot:prot -> unit
val prot_of : t -> int -> prot option

val mapped_pages : t -> int list
(** Sorted page numbers of every mapped page (crash-capsule dumps). *)

(** [set_write_watch t (Some f)] makes every store that writes a byte of
    a watched page call [f addr width] once, after the bytes are stored,
    with the whole store's address and width: a store that straddles
    from an unwatched page into a watched one notifies too. *)
val set_write_watch : t -> (int -> int -> unit) option -> unit

val watch_page : t -> int -> unit
val unwatch_page : t -> int -> unit
val page_watched : t -> int -> bool

val watched_pages : t -> int list
(** Page numbers currently carrying the write watch (unordered). *)

val set_watched_pages : t -> int list -> unit
(** Replace the watched-page set wholesale — snapshot restore uses this
    to return the SMC watch set to its captured state. *)

val page_gen : t -> int -> int
(** Write generation of the page holding the given address: bumped from a
    per-memory monotonic counter on every mutation (byte store, remap,
    protection change, loader write); [-1] when unmapped. Within one
    memory, generations are never reused, so caches of decoded
    instructions keyed on them cannot false-hit across an unmap/remap
    cycle (ABA-freedom). The counter is owned by the {!t} instance —
    never shared module-level state — so any number of live memories in
    one process (a serving worker pool, lockstep pairs) evolve their
    generation streams independently and deterministically; generation
    values are only meaningful against the memory that issued them.
    [copy] carries the counter over, preserving the contract in the
    clone. Valid generations are >= 1. *)

val read8 : t -> int -> int

(** Like {!read8} but checks execute permission. *)
val fetch8 : t -> int -> int

val write8 : t -> int -> int -> unit
val read16 : t -> int -> int
val read32 : t -> int -> int
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit

(** [read size t addr] / [write size t addr v] with [size] in bytes (1-4).
    An access inside one page is one word-wide access and faults at
    [addr]. One that straddles two pages goes byte by byte from its
    first byte up, so it faults at its lowest inaccessible byte, as
    IA-32 reports it; a write stores the bytes before that one. *)
val read : int -> t -> int -> int
val write : int -> t -> int -> int -> unit

val read64 : t -> int -> int64
(** Two 4-byte reads, the low word first: a fault names the lowest
    inaccessible byte. *)

val write64 : t -> int -> int64 -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit

(** Bulk initialisation that bypasses the write watch and ignores page
    protections. Page-granular: one lookup, journal touch, blit and
    generation bump per page. Raises [Page_fault (a, Write)] at the first
    unmapped byte [a], after writing every byte before it. *)
val load_bytes : t -> int -> string -> unit

(** [dump_bytes t addr len] reads [len] bytes, one page at a time. Raises
    [Page_fault (a, Read)] where {!read8} would: at the first byte [a] of
    the first unmapped or unreadable page. *)
val dump_bytes : t -> int -> int -> string

(** Deep copy. Pages never written share the zero buffer with the
    original instead of being copied. *)
val copy : t -> t

val first_diff : ?skip:(int -> bool) -> t -> t -> int option
(** [first_diff a b] is the address of the first differing byte, or
    [None] when both memories map the same pages with the same bytes
    (protections are not compared). Pages are visited in [a]'s table
    order, then [b]'s pages missing from [a]; a page mapped on one side
    only reports its first byte. [skip] excludes page numbers
    (runtime-private regions such as the translator's profile arena).
    The lockstep vehicle calls this at every commit point: pages sharing
    one buffer or holding equal bytes are settled without a byte scan. *)

val equal : ?skip:(int -> bool) -> t -> t -> bool
(** [equal ?skip a b] is [first_diff ?skip a b = None]. *)

(** Dirty-page compares: {!first_diff} at the cost of the pages written
    since the last equal compare, for a pair of memories compared again
    and again (the lockstep vehicle's engine and reference memories).

    A tracked memory lists every page that a mutating operation touched
    since its last equal compare: stores, {!load_bytes}, [map], [unmap],
    [protect], and each page {!Journal.revert} restores. An equal compare
    empties both lists and makes the two memories each other's peer.
    The invariant, for two peers always compared with the same [skip]:
    a page on neither list holds the same bytes on both sides. A compare
    of two memories that are not each other's peers (the first one after
    {!track}, or one against a different memory) is a full one. Start
    tracking after any bulk set-up (a mapped arena that [skip] excludes,
    say), or those pages are listed for nothing.

    The cost when off is one load and compare per mutating call. *)
module Dirty : sig
  val track : t -> unit
  (** Start listing mutated pages (idempotent). [copy] never carries
      tracking over. *)

  val tracked : t -> bool

  val pages : t -> int list
  (** Sorted page numbers on the dirty list. *)

  val first_diff : ?skip:(int -> bool) -> t -> t -> int option
  (** The same result as {!first_diff}[ ?skip a b]. When the two are
      tracked peers it checks only the pages on either list; if one of
      them differs it falls back to the full {!first_diff}, so the
      address reported is the one the full scan visits first. When both
      are tracked, both lists are emptied (and the two become peers)
      when the result is [None], and kept otherwise. With either side
      untracked it is the full scan and touches no list. *)
end

(** Nested copy-on-write journal over page mutations.

    While an epoch is open, every mutating operation ([map]/[unmap]/
    [protect], stores, loader writes) records a full pre-image of each
    page at its first touch within the innermost open epoch, so an epoch's overhead
    and its [revert] both cost O(pages touched), independent of the size
    of the address space. The pre-image of a never-written page is the
    shared zero buffer itself, recorded for free; [revert] restores such a
    page by pointing it back at that buffer, never by writing into it.

    [revert] restores each touched page's bytes, protection {e and
    original write generation}. Generations are drawn from the memory's
    own never-reused counter (see {!page_gen}), so a given generation
    value only ever denotes the exact content it stamped — consumers
    validating cached decodes against {!page_gen} stay warm across a
    revert with no flush.

    The first-touch test is one compare: each epoch has an id that its
    memory never hands out again, and each page carries the id of the
    epoch holding its pre-image. Pre-image buffers that a [revert] blits
    back are kept on the memory and reused by the next first touch,
    so a steady push/revert cycle stops allocating them.

    The journal is intentionally ignorant of the write watch: snapshot
    layers above capture and restore the watched-page set themselves
    (see {!watched_pages}). [copy] never carries a journal over. *)
module Journal : sig
  val depth : t -> int
  (** Number of open epochs. *)

  val push : t -> unit
  (** Open a nested epoch. *)

  val touched : t -> int
  (** Pages first-touched in the innermost open epoch so far. *)

  val pages_restored : t -> int
  (** Cumulative count of page restorations performed by [revert] over
      the memory's lifetime — the counter the O(pages touched) test
      asserts on. *)

  val revert : t -> int list
  (** Pop the innermost epoch and restore every page it touched.
      Returns the touched page numbers (unordered) so callers can
      invalidate derived state (translated blocks) per page. Each page
      restored goes on the {!Dirty} list of a tracked memory.
      @raise Invalid_argument when no epoch is open. *)
end
