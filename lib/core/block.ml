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

(* ------------------------------------------------------------------ *)
(* Source spans                                                        *)
(* ------------------------------------------------------------------ *)

(* What a translation was made from: the mapped bytes of [entry,
   code_end) plus the protection of every page they lie on and of the
   page right after — a page mapped (or protected differently) since
   could change what the translator would decode. A span that no longer
   matches memory means the translation is stale. *)
type span = {
  sp_chunks : (int * string) list; (* (address, bytes) per mapped page *)
  sp_prots : (int * int) list; (* page -> encoded protection *)
}

let page_bits = Ia32.Memory.page_bits
let page_size = 1 lsl page_bits

(* -1 unmapped, 0-7 the r/w/x bits; -2 (mapped but unreadable, so the
   bytes could not be captured) never matches a live page *)
let prot_code = function
  | None -> -1
  | Some p ->
    (if p.Ia32.Memory.read then 4 else 0)
    + (if p.Ia32.Memory.write then 2 else 0)
    + if p.Ia32.Memory.exec then 1 else 0

let capture_span mem ~lo ~hi =
  let hi = max hi (lo + 1) in
  let first = lo lsr page_bits and last = (hi - 1) lsr page_bits in
  let chunks = ref [] and prots = ref [] in
  for p = first to last do
    let base = p lsl page_bits in
    let prot = Ia32.Memory.prot_of mem base in
    match prot with
    | Some _ -> (
      let clo = max lo base and chi = min hi (base + page_size) in
      match Ia32.Memory.dump_bytes mem clo (chi - clo) with
      | bytes ->
        prots := (p, prot_code prot) :: !prots;
        chunks := (clo, bytes) :: !chunks
      | exception Ia32.Fault.Fault _ -> prots := (p, -2) :: !prots)
    | None -> prots := (p, -1) :: !prots
  done;
  let next = (last + 1) lsl page_bits in
  prots := (last + 1, prot_code (Ia32.Memory.prot_of mem next)) :: !prots;
  { sp_chunks = List.rev !chunks; sp_prots = List.rev !prots }

let span_matches mem sp =
  List.for_all
    (fun (p, code) ->
      prot_code (Ia32.Memory.prot_of mem (p lsl page_bits)) = code)
    sp.sp_prots
  && List.for_all
       (fun (addr, bytes) ->
         match Ia32.Memory.dump_bytes mem addr (String.length bytes) with
         | cur -> String.equal cur bytes
         | exception Ia32.Fault.Fault _ -> false)
       sp.sp_chunks

type t = {
  id : int;
  entry : int; (* IA-32 address *)
  kind : kind;
  mutable tstart : int; (* first bundle in the translation cache *)
  mutable tlen : int;
  insns : (int * Ia32.Insn.insn) array;
  code_end : int; (* address after the last source instruction *)
  span : span; (* [entry, code_end) as translated *)
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

(* A killed block with its bundles as they stood just before the kill:
   enough to put the translation back in place once its source is valid
   again. *)
type killed = {
  k_block : t;
  k_code : Ipf.Bundle.t array;
}

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
  (* Cold translations killed inside a warm epoch or dropped by a warm
     revert, newest first per entry: a later dispatch miss at the entry
     wakes one whose source matches memory again instead of
     retranslating. *)
  dormant : (int, killed list) Hashtbl.t;
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
    dormant = Hashtbl.create 16;
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
  let first_page = block.entry lsr page_bits in
  let last_page = (block.code_end - 1) lsr page_bits in
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

let keep tcache block =
  let at i = block.tstart + i in
  {
    k_block = block;
    k_code =
      Array.init block.tlen (fun i ->
          Ipf.Bundle.copy (Ipf.Tcache.get tcache (at i)));
  }

(* Turn the block's bundles into dispatch exits to its entry. *)
let overwrite tcache block =
  Ipf.Tcache.invalidate_range tcache ~start:block.tstart
    ~stop:(block.tstart + block.tlen) ~target:block.entry

(* Invalidate a block: mark dead, detach from the entry index, and turn its
   bundles into dispatch exits so chained predecessors fall back to the
   runtime. With [keep], the bundles are copied and handed to it first. *)
let invalidate ?keep:k cache tcache block =
  if block.live then begin
    block.live <- false;
    (match Hashtbl.find_opt cache.by_entry block.entry with
    | Some b when b.id = block.id -> Hashtbl.remove cache.by_entry block.entry
    | _ -> ());
    (match k with Some f -> f (keep tcache block) | None -> ());
    overwrite tcache block
  end

(* Put a killed block back: its bundles at the same [tstart], live
   again at its entry. The caller has checked that no
   flush recycled the indices, that no live block holds the entry and
   that the source span matches memory. *)
let revive cache tcache k =
  let b = k.k_block in
  Ipf.Tcache.restore_range tcache ~start:b.tstart k.k_code;
  b.live <- true;
  Hashtbl.replace cache.by_entry b.entry b

(* Dormant translations kept per entry, the newest record of each
   block. *)
let dormant_keep = 4

let retire cache k =
  let b = k.k_block in
  if b.kind = Cold then begin
    let l = Option.value ~default:[] (Hashtbl.find_opt cache.dormant b.entry) in
    Hashtbl.replace cache.dormant b.entry
      (List.filteri (fun i _ -> i < dormant_keep)
         (k :: List.filter (fun k' -> k'.k_block != b) l))
  end

(* Put the write watch on the block's source pages, so a store into them
   is caught as self-modifying code. *)
let watch mem b =
  let last = max b.entry (b.code_end - 1) lsr page_bits in
  for p = b.entry lsr page_bits to last do
    Ia32.Memory.watch_page mem (p lsl page_bits)
  done

(* Blocks whose source bytes include [addr] (for SMC invalidation). *)
let blocks_touching cache addr =
  match Hashtbl.find_opt cache.by_page (addr lsr page_bits) with
  | Some l -> List.filter (fun b -> b.live && addr >= b.entry && addr < b.code_end) !l
  | None -> []

let live_blocks_on_page cache page =
  match Hashtbl.find_opt cache.by_page page with
  | Some l -> List.filter (fun b -> b.live) !l
  | None -> []

(* Wake a dormant translation of [entry] that the cold translator would
   reproduce here: same source span, entry TOS and stage-2 flag — what a
   persistent-cache install checks too. *)
let wake cache tcache mem ~entry ~entry_tos ~stage2 =
  match Hashtbl.find_opt cache.dormant entry with
  | None -> None
  | Some ks -> (
    let fits k =
      let b = k.k_block in
      (not b.live) && b.entry_tos = entry_tos
      && (b.misalign_stage = 2) = stage2
      && span_matches mem b.span
    in
    match List.find_opt fits ks with
    | None -> None
    | Some k ->
      Hashtbl.replace cache.dormant entry (List.filter (fun k' -> k' != k) ks);
      revive cache tcache k;
      watch mem k.k_block;
      Some k.k_block)
