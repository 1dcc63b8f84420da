(* Translated-block records and the block cache (BTGeneric's bookkeeping):
   per-block profile slots in the guest-invisible profile arena, recovery
   metadata for precise exceptions, and the indexes the engine needs
   (entry address -> block, bundle -> block, code page -> blocks). *)

(* Static x87 state snapshot used to reconstruct TOS/TAG/permutation at a
   faulting instruction (cold blocks record one per faulty IP; hot blocks
   one per commit point). *)
type fp_snapshot = {
  s_vtos : int;
  s_map : int array; (* logical slot -> physical slot *)
  s_set_valid : int; (* tag bits turned valid since block entry *)
  s_set_empty : int;
  s_written : int; (* slots written since block entry (x87 or MMX) *)
  s_mmx : bool; (* MMX block: TOS = 0, tags = s_set_valid *)
  s_xmm_fmt : int array;
      (* static XMM format at this point (-1: unchanged since entry, use the
         runtime format word). A block converts representations mid-flight
         but only writes [Regs.r_ssefmt] at exits, so reconstruction inside
         the block must read the static view. *)
}

let no_xmm_fmt = Array.make 8 (-1)

let identity_snapshot ~entry_tos =
  {
    s_vtos = entry_tos;
    s_map = Array.init 8 (fun i -> i);
    s_set_valid = 0;
    s_set_empty = 0;
    s_written = 0;
    s_mmx = false;
    s_xmm_fmt = no_xmm_fmt;
  }

let snapshot_of_fpmap (fp : Fpmap.t) =
  {
    s_vtos = fp.Fpmap.vtos;
    s_map = Array.copy fp.Fpmap.map;
    s_set_valid = fp.Fpmap.known_valid;
    s_set_empty = fp.Fpmap.known_empty;
    s_written = fp.Fpmap.written;
    s_mmx = false;
    s_xmm_fmt = no_xmm_fmt;
  }

(* Where an IA-32 register's pre-commit value lives at a hot commit point. *)
type saved_loc =
  | Sgr of Ia32.Insn.reg * int (* canonical reg backed up in GR *)
  | Sflag of Ia32.Insn.flag * int
  | Sfr of int * int (* x87 physical slot backed up in FR *)
  | Sxlo of int * int (* xmm int-layout lo half *)
  | Sxhi of int * int
  | Smm of int * int (* mmx register *)
  | Sstatus of int * int (* runtime status GR (r_tos etc.) backed up *)

type commit_map = {
  cm_ip : int; (* IA-32 address the commit point corresponds to *)
  cm_saved : saved_loc list;
  cm_fp : fp_snapshot;
}

type kind = Cold | Hot

type t = {
  id : int;
  entry : int; (* IA-32 address *)
  kind : kind;
  mutable tstart : int; (* first bundle in the translation cache *)
  mutable tlen : int;
  insns : (int * Ia32.Insn.insn) array;
  code_end : int; (* address after the last source instruction *)
  (* profile arena slots *)
  ma_base : int; (* first per-access misalignment slot *)
  n_accesses : int;
  (* precise-exception metadata *)
  entry_tos : int;
  sse_entry : int array; (* required XMM entry formats (-1 = none) *)
  fp_recovery : (int, fp_snapshot) Hashtbl.t; (* by IA-32 ip (cold) *)
  commit_maps : commit_map array; (* by commit index (hot) *)
  bundle_commit : int array; (* bundle offset -> commit index (hot) *)
  (* misalignment machinery *)
  mutable misalign_stage : int; (* 1 = detect, 2 = avoid+record (cold) *)
  mutable live : bool;
  mutable registered : int; (* optimization-candidate registrations *)
}

(* ------------------------------------------------------------------ *)
(* Block cache                                                         *)
(* ------------------------------------------------------------------ *)

type cache = {
  by_entry : (int, t) Hashtbl.t; (* live block per entry address *)
  by_id : (int, t) Hashtbl.t;
  bundle_owner : (int, t) Hashtbl.t; (* bundle index -> block *)
  by_page : (int, t list ref) Hashtbl.t; (* source code page -> blocks *)
  mutable next_id : int;
  mutable arena_next : int; (* profile arena bump pointer *)
  (* Arena byte ranges claimed at their recorded addresses by blocks
     installed from a persistent cache. Live allocation weaves around
     them, so install order never changes which addresses a block's
     profile slots occupy. *)
  mutable pins : (int * int) list; (* (start, byte length) *)
  (* Bumped whenever [bundle_owner] gains or loses entries, so callers
     caching bundle->block attributions (the engine's cycle-bucket memo)
     can detect staleness with one integer compare. *)
  mutable owner_gen : int;
}

(* The profile arena lives in a reserved guest region (invisible to the
   application's own data but addressable by translated code). *)
let arena_base = 0xE0000000
let arena_size = 0x01000000

let create_cache () =
  {
    by_entry = Hashtbl.create 512;
    by_id = Hashtbl.create 512;
    bundle_owner = Hashtbl.create 2048;
    by_page = Hashtbl.create 64;
    next_id = 0;
    arena_next = arena_base;
    pins = [];
    owner_gen = 0;
  }

let fresh_id cache =
  let id = cache.next_id in
  cache.next_id <- id + 1;
  id

let ranges_overlap s1 l1 s2 l2 = s1 < s2 + l2 && s2 < s1 + l1

(* Claim the byte range [start, start+len) at its recorded address for a
   block being installed from a persistent cache. Fails (returns false,
   caller falls back to live translation) if the range escapes the arena
   or collides with anything already handed out — the bump region or
   another pin. Does not advance [arena_next]: live allocation weaves
   around pins instead. *)
let pin_arena cache ~start ~len =
  len > 0 && start >= arena_base
  && start + len <= arena_base + arena_size
  && not (ranges_overlap start len arena_base (cache.arena_next - arena_base))
  && List.for_all (fun (s, l) -> not (ranges_overlap start len s l)) cache.pins
  &&
  (cache.pins <- (start, len) :: cache.pins;
   true)

(* Highest arena address handed out so far (bump pointer or pin end):
   the flush zeroing bound. *)
let arena_high cache =
  List.fold_left (fun hi (s, l) -> max hi (s + l)) cache.arena_next cache.pins

(* Allocate [n] 4-byte profile slots; returns the base address. Live
   allocation bump-skips any pinned range it would collide with. *)
let alloc_arena cache n =
  let len = 4 * n in
  let rec place base =
    match
      List.find_opt (fun (s, l) -> ranges_overlap base len s l) cache.pins
    with
    | Some (s, l) -> place (s + l)
    | None -> base
  in
  let base = place cache.arena_next in
  cache.arena_next <- base + len;
  if cache.arena_next > arena_base + arena_size then
    Bt_error.fail ~component:"block"
      ~detail:(Printf.sprintf "next %#x" cache.arena_next)
      "profile arena exhausted";
  base

let register cache block =
  Hashtbl.replace cache.by_entry block.entry block;
  Hashtbl.replace cache.by_id block.id block;
  for b = block.tstart to block.tstart + block.tlen - 1 do
    Hashtbl.replace cache.bundle_owner b block
  done;
  cache.owner_gen <- cache.owner_gen + 1;
  let first_page = block.entry lsr Ia32.Memory.page_bits in
  let last_page = (block.code_end - 1) lsr Ia32.Memory.page_bits in
  for p = first_page to last_page do
    let l =
      match Hashtbl.find_opt cache.by_page p with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace cache.by_page p l;
        l
    in
    l := block :: !l
  done

let find_entry cache addr =
  match Hashtbl.find_opt cache.by_entry addr with
  | Some b when b.live -> Some b
  | _ -> None

let find_by_bundle cache idx = Hashtbl.find_opt cache.bundle_owner idx

let find_by_id cache id = Hashtbl.find_opt cache.by_id id

(* Invalidate a block: mark dead, detach from the entry index, and turn its
   bundles into dispatch exits so chained predecessors fall back to the
   runtime. *)
let invalidate cache tcache block =
  if block.live then begin
    block.live <- false;
    (match Hashtbl.find_opt cache.by_entry block.entry with
    | Some b when b.id = block.id -> Hashtbl.remove cache.by_entry block.entry
    | _ -> ());
    Ipf.Tcache.invalidate_range tcache ~start:block.tstart
      ~stop:(block.tstart + block.tlen) ~target:block.entry
  end

(* Blocks whose source bytes include [addr] (for SMC invalidation). *)
let blocks_touching cache addr =
  match Hashtbl.find_opt cache.by_page (addr lsr Ia32.Memory.page_bits) with
  | Some l -> List.filter (fun b -> b.live && addr >= b.entry && addr < b.code_end) !l
  | None -> []

let live_blocks_on_page cache page =
  match Hashtbl.find_opt cache.by_page page with
  | Some l -> List.filter (fun b -> b.live) !l
  | None -> []
