(** Translated blocks and the block cache.

    A block records everything the engine needs at runtime: where its
    bundles live in the translation cache, its profile-arena slots (use
    counter, taken-edge counter, per-access misalignment slots), and the
    precise-exception metadata — per-faulty-IP FP snapshots for cold
    blocks, commit maps for hot blocks (paper §4.2). *)

type fp_snapshot = {
  s_vtos : int;  (** static TOS at this point *)
  s_map : int array;  (** FXCHG permutation at this point *)
  s_set_valid : int;  (** TAG bits known valid *)
  s_set_empty : int;
  s_written : int;  (** x87 slots written so far by the block *)
  s_mmx : bool;  (** the block runs in MMX mode (TAG from exit mask) *)
  s_xmm_fmt : int array;
      (** static XMM representation format at this point, per register;
          [-1] means unchanged since block entry (read the runtime format
          word instead) *)
}
(** Enough x87/MMX static state to reconstruct the FPU at one point. *)

val identity_snapshot : entry_tos:int -> fp_snapshot
val snapshot_of_fpmap : Fpmap.t -> fp_snapshot

(** Where an IA-32 register's pre-commit value lives at a hot commit
    point: each case pairs the canonic entity with the backup GR/FR
    holding its region-start value. *)
type saved_loc =
  | Sgr of Ia32.Insn.reg * int
  | Sflag of Ia32.Insn.flag * int
  | Sfr of int * int  (** x87 IPF slot backed up in an FR *)
  | Sxlo of int * int  (** XMM int-layout low half *)
  | Sxhi of int * int
  | Smm of int * int
  | Sstatus of int * int  (** runtime status GR (r_tos etc.) *)

type commit_map = {
  cm_ip : int;  (** IA-32 address the commit point corresponds to *)
  cm_saved : saved_loc list;
  cm_fp : fp_snapshot;
}

type kind = Cold | Hot

(** {1 Source spans} *)

type span
(** What a translation was made from: the mapped bytes of
    [\[entry, code_end)] and the protection of every page they lie on
    and of the page right after. *)

val capture_span : Ia32.Memory.t -> lo:int -> hi:int -> span
(** The span of [\[lo, hi)] as memory holds it now. Never faults: a
    mapped page that cannot be read is recorded so that it never
    matches. *)

val span_matches : Ia32.Memory.t -> span -> bool
(** Whether memory still holds exactly the bytes and page protections a
    span recorded — the one validity check for a translation against
    its source, shared by persistent-cache install and warm revert. *)

(** {1 Blocks} *)

type t = {
  id : int;
  entry : int;  (** IA-32 entry address *)
  kind : kind;
  mutable tstart : int;  (** first bundle in the translation cache *)
  mutable tlen : int;
  insns : (int * Ia32.Insn.insn) array;  (** source instructions *)
  code_end : int;  (** address after the last source instruction *)
  span : span;  (** [\[entry, code_end)] as it was translated *)
  ma_base : int;
      (** profile arena: first per-access misalignment slot (cold blocks;
          hot blocks own no arena slots) *)
  n_accesses : int;
  entry_tos : int;  (** speculated x87 TOS at entry *)
  sse_entry : int array;  (** required XMM entry formats (-1 = none) *)
  fp_recovery : (int, fp_snapshot) Hashtbl.t;
      (** per-faulty-IP snapshots (cold precise exceptions) *)
  commit_maps : commit_map array;  (** by commit index (hot) *)
  bundle_commit : int array;  (** bundle offset -> commit index (hot) *)
  mutable misalign_stage : int;  (** 1 = detect, 2 = avoid+record *)
  mutable live : bool;
  mutable registered : int;  (** optimization-candidate registrations *)
}

(** {1 Block cache} *)

type killed = {
  k_block : t;
  k_code : Ipf.Bundle.t array;  (** the block's bundles just before the kill *)
}
(** A killed block with a copy of its code, kept so it can be revived
    once its source is valid again. *)

type cache = {
  by_entry : (int, t) Hashtbl.t;  (** live block per entry address *)
  by_id : (int, t) Hashtbl.t;
  bundle_owner : (int, t) Hashtbl.t;
  by_page : (int, t list ref) Hashtbl.t;  (** source page -> blocks *)
  mutable next_id : int;
  mutable arena_next : int;
  mutable pins : (int * int) list;
      (** (start, byte length) arena ranges claimed at recorded addresses
          by blocks installed from a persistent cache *)
  dormant : (int, killed list) Hashtbl.t;
      (** cold translations killed inside a warm epoch or dropped by a
          warm revert, newest first per entry ({!retire}, {!wake});
          emptied by a flush *)
}

val arena_base : int
(** The profile arena lives in a reserved guest region, invisible to the
    application's own data but addressable by translated code. *)

val arena_size : int

val create_cache : unit -> cache
val fresh_id : cache -> int

val alloc_arena : cache -> int -> int
(** Allocate [n] 4-byte profile slots; returns the base address. Live
    allocation bump-skips any range pinned by {!pin_arena}. *)

val pin_arena : cache -> start:int -> len:int -> bool
(** Claim the byte range [\[start, start+len)] at its recorded address for
    a block installed from a persistent cache. Returns [false] — and
    claims nothing — if the range escapes the arena or collides with the
    bump region or another pin; the caller then falls back to live
    translation. *)

val arena_high : cache -> int
(** Highest arena address handed out so far (bump pointer or pin end) —
    the bound a cache flush must zero through. *)

val register : cache -> t -> unit
val find_entry : cache -> int -> t option
(** Live block translated at an entry address. *)

val find_by_bundle : cache -> int -> t option
val find_by_id : cache -> int -> t option

val keep : Ipf.Tcache.t -> t -> killed
(** The block's bundles as they stand, copied aside. *)

val invalidate : ?keep:(killed -> unit) -> cache -> Ipf.Tcache.t -> t -> unit
(** Mark dead, detach from the entry index, and turn the block's bundles
    into dispatch exits so stale chained predecessors fall back to the
    runtime. With [keep], a copy of the bundles ({!val-keep}) is handed
    to it first. A dead block is left alone. *)

val overwrite : Ipf.Tcache.t -> t -> unit
(** Turn the block's bundles into dispatch exits to its entry — the
    tcache half of {!invalidate}, for a block already marked dead while
    it was running. *)

val revive : cache -> Ipf.Tcache.t -> killed -> unit
(** Undo an {!invalidate}: restore the bundles at the same [tstart]
    ({!Ipf.Tcache.restore_range}) and make the block live at its
    entry again. The caller must have checked that no flush recycled the
    indices since the kill, that no live block holds the entry and that
    the source span matches memory. *)

val watch : Ia32.Memory.t -> t -> unit
(** Put the SMC write watch on every page of the block's source. *)

val blocks_touching : cache -> int -> int -> t list
(** [blocks_touching cache addr width]: live blocks whose source bytes
    overlap the store [addr, addr + width) (SMC). *)

val live_blocks_on_page : cache -> int -> t list

val retire : cache -> killed -> unit
(** Keep a killed cold translation as dormant, for {!wake}: the few most
    recent per entry are kept. *)

val wake :
  cache ->
  Ipf.Tcache.t ->
  Ia32.Memory.t ->
  entry:int ->
  entry_tos:int ->
  stage2:bool ->
  t option
(** At a dispatch miss, revive ({!revive}, {!watch}) a dormant
    translation of [entry] that the cold translator would reproduce:
    its source span matches memory and it was made with the same entry
    TOS and stage-2 flag. *)
