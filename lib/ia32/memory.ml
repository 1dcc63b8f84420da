(* Sparse paged 32-bit address space shared by the guest application, the
   reference interpreter and the translated code running on the IPF machine.
   Pages are 4 KiB. A write-watch callback lets the translator detect
   self-modifying code on pages it translated from. *)

let page_bits = 12
let page_size = 1 lsl page_bits

type prot = { read : bool; write : bool; exec : bool }

let prot_rw = { read = true; write = true; exec = false }
let prot_rx = { read = true; write = false; exec = true }
let prot_rwx = { read = true; write = true; exec = true }

(* [gen] is the page's write generation: drawn from the memory's global
   monotonic counter on every mutation (byte store, remap, protection
   change, loader write). Consumers that cache per-address derived data
   (the interpreter's decode cache) validate entries with one compare;
   because the counter is global and never reused, an unmap/remap cycle
   can never resurrect a stale generation (no ABA).
   [data] is [zero_page] until the page's first store (demand-zero).
   [seen] is the memory's dirty epoch in which the page was last put on
   the dirty list (see [dirty_epoch] below).
   [stamp] is the id of the journal epoch that holds the page's
   pre-image: while it equals the innermost open epoch's id, a mutation
   records nothing (see [Journal]). *)
type page = {
  mutable data : Bytes.t;
  mutable prot : prot;
  mutable gen : int;
  mutable seen : int;
  mutable stamp : int;
}

(* The one shared, never-written buffer every fresh page reads from, as
   the host OS backs fresh mappings with a demand-zero page. Mapping,
   copying and journalling a never-written page therefore cost no page
   allocation. Only [own_data] replaces it, and nothing ever stores into
   it, so memories in different domains may share it. *)
let zero_page = Bytes.make page_size '\000'

(* Give [pg] its own buffer before its first store. The generation is
   not bumped here: the store that follows does that. *)
let own_data pg =
  if pg.data == zero_page then pg.data <- Bytes.make page_size '\000'

(* Snapshot of a page's bytes that may outlive later stores to it. *)
let copy_data d = if d == zero_page then d else Bytes.copy d

(* First-touch pre-image of a page within one journal epoch: either the
   page did not exist when the epoch opened, or a full copy of its bytes
   plus protection, write generation and journal stamp at that moment. *)
type pre =
  | Pre_absent
  | Pre_page of { data : Bytes.t; prot : prot; gen : int; stamp : int }

type epoch = {
  id : int; (* drawn from the memory's [epoch_ids]; never reused *)
  pre_images : (int, pre) Hashtbl.t; (* page number -> pre-image *)
}

(* The page TLB: a direct-mapped cache of page records in front of the
   table, indexed by a fold of the page number ([tlb_index]). Both simulator
   inner loops touch a handful of pages (code, stack, data), so the hit
   path is one array load and compare instead of a hash probe. An entry
   shares its record with the table, so in-place changes (protection,
   bytes, a revert's restore) stay visible; it is dropped wherever a
   record is removed ([remove_page]: [unmap], a revert) and wherever the
   page's watch bit, which the entry caches, changes. Only mapped pages
   are entered. *)
let tlb_size = 64
let tlb_mask = tlb_size - 1

(* A guest's regions start at aligned bases (code 0x400000, data
   0x8000000, heap 0x10000000, the stack below 0x1FFFF000, the profile
   arena 0xE0000000), so the low bits of their page numbers alone would
   put each region's first page on entry 0. Folding in bits 8-13 and
   12-17 spreads them: the first code, data and heap pages land on
   entries 4, 8 and 16, the stack's top pages on 30 and 31, the arena's
   first page on 32. *)
let[@inline] tlb_index no = (no lxor (no lsr 8) lxor (no lsr 12)) land tlb_mask

type t = {
  pages : (int, page) Hashtbl.t; (* the table of record *)
  mutable write_watch : (int -> int -> unit) option; (* addr, width *)
  mutable watched : (int, unit) Hashtbl.t; (* page numbers with watch *)
  mutable gen_counter : int;
  tlb_no : int array; (* page number per entry, -1 when empty *)
  tlb_pg : page array;
  tlb_watch : bool array; (* the page is in [watched] *)
  mutable epochs : epoch list; (* open journal epochs, innermost first *)
  mutable restored : int; (* cumulative pages restored by [Journal.revert] *)
  (* Journal epoch ids: [epoch_ids] is the last id handed out, [epoch]
     the innermost open epoch's id, 0 when none is open. *)
  mutable epoch_ids : int;
  mutable epoch : int;
  (* Pre-image buffers a revert freed, for the next first touch to
     reuse: referenced by nothing else. *)
  mutable spares : Bytes.t list;
  (* Dirty-page tracking for pairwise compares ([Dirty]). 0 = off, and
     every page's [seen] is then 0 too, so a store's check never fires.
     Once on, [dirty] lists (possibly twice) every page number mutated
     since the last equal compare: a page whose [seen] differs from
     [dirty_epoch] is not on it yet. Bumping the epoch empties the list
     without visiting the pages. [dirty_peer] is the memory that last
     compare was against; the list says nothing about any other. *)
  mutable dirty_epoch : int;
  mutable dirty : int list;
  mutable dirty_peer : t option;
}

let dummy_page =
  {
    data = Bytes.create 0;
    prot = { read = false; write = false; exec = false };
    gen = 0;
    seen = 0;
    stamp = 0;
  }

let create () =
  {
    pages = Hashtbl.create 256;
    write_watch = None;
    watched = Hashtbl.create 16;
    gen_counter = 1;
    tlb_no = Array.make tlb_size (-1);
    tlb_pg = Array.make tlb_size dummy_page;
    tlb_watch = Array.make tlb_size false;
    epochs = [];
    restored = 0;
    epoch_ids = 0;
    epoch = 0;
    spares = [];
    dirty_epoch = 0;
    dirty = [];
    dirty_peer = None;
  }

let bump_gen t pg =
  t.gen_counter <- t.gen_counter + 1;
  pg.gen <- t.gen_counter

let page_of addr = Word.mask32 addr lsr page_bits
let offset_of addr = Word.mask32 addr land (page_size - 1)

(* ---- page TLB ---------------------------------------------------------- *)

(* Fill entry [i] with page [no] from the table; false when unmapped. *)
let tlb_load t no i =
  match Hashtbl.find t.pages no with
  | pg ->
    t.tlb_no.(i) <- no;
    t.tlb_pg.(i) <- pg;
    t.tlb_watch.(i) <- Hashtbl.mem t.watched no;
    true
  | exception Not_found -> false

(* Entry of page [no], filled on a miss; -1 when unmapped. The hit path
   is one load and compare and allocates nothing. *)
let[@inline] tlb_slot t no =
  let i = tlb_index no in
  if Array.unsafe_get t.tlb_no i = no || tlb_load t no i then i else -1

let tlb_drop t no =
  let i = tlb_index no in
  if t.tlb_no.(i) = no then begin
    t.tlb_no.(i) <- -1;
    t.tlb_pg.(i) <- dummy_page
  end

let tlb_flush t =
  Array.fill t.tlb_no 0 tlb_size (-1);
  Array.fill t.tlb_pg 0 tlb_size dummy_page

(* ---- journal recording ------------------------------------------------- *)

(* A pre-image copy of [d], in a spare buffer when the memory has one. *)
let pre_copy t d =
  if d == zero_page then d
  else
    match t.spares with
    | b :: rest ->
      t.spares <- rest;
      Bytes.blit d 0 b 0 page_size;
      b
    | [] -> Bytes.copy d

let spare t d = if d != zero_page then t.spares <- d :: t.spares

(* Record the pre-image of page [no], held by [pg], in the innermost
   epoch before its first mutation there. The test is one compare of the
   page's stamp against the open epoch's id ([journal_touch_pg]); a
   stamp left by an epoch that is no longer open is reset here when no
   epoch is. *)
let record_pre t no pg =
  match t.epochs with
  | e :: _ ->
    Hashtbl.replace e.pre_images no
      (Pre_page
         { data = pre_copy t pg.data; prot = pg.prot; gen = pg.gen; stamp = pg.stamp });
    pg.stamp <- e.id
  | [] -> pg.stamp <- 0

let[@inline] journal_touch_pg t no pg =
  if pg.stamp <> t.epoch then record_pre t no pg

(* The same for a page known only by number: one that is not mapped has
   no stamp, so its absence is recorded through the epoch's table. *)
let journal_touch t no =
  if t.epoch <> 0 then
    match Hashtbl.find t.pages no with
    | pg -> journal_touch_pg t no pg
    | exception Not_found -> (
      match t.epochs with
      | e :: _ ->
        if not (Hashtbl.mem e.pre_images no) then
          Hashtbl.replace e.pre_images no Pre_absent
      | [] -> ())

(* Put page [no], held by record [pg], on the dirty list: one load and
   compare per mutating call, whether or not tracking is on. A page
   keeps its number on the list after its record leaves the table. *)
let mark_dirty_pg t no pg =
  if pg.seen <> t.dirty_epoch then begin
    pg.seen <- t.dirty_epoch;
    t.dirty <- no :: t.dirty
  end

(* A fresh page record, already on the dirty list when tracking is on.
   It is made only for a page number the table lacks, which the TLB
   lacks too: [remove_page] dropped its entry. *)
let new_page t no ~data ~prot ~gen ~stamp =
  if t.dirty_epoch > 0 then t.dirty <- no :: t.dirty;
  { data; prot; gen; seen = t.dirty_epoch; stamp }

let remove_page t no =
  (match Hashtbl.find t.pages no with
  | pg -> mark_dirty_pg t no pg
  | exception Not_found -> ());
  tlb_drop t no;
  Hashtbl.remove t.pages no

let map t ~addr ~len ~prot =
  let first = page_of addr and last = page_of (addr + len - 1) in
  for p = first to last do
    journal_touch t p;
    match Hashtbl.find_opt t.pages p with
    | None ->
      t.gen_counter <- t.gen_counter + 1;
      Hashtbl.replace t.pages p
        (new_page t p ~data:zero_page ~prot ~gen:t.gen_counter ~stamp:t.epoch)
    | Some pg ->
      mark_dirty_pg t p pg;
      pg.prot <- prot;
      bump_gen t pg
  done

let unmap t ~addr ~len =
  let first = page_of addr and last = page_of (addr + len - 1) in
  for p = first to last do
    journal_touch t p;
    remove_page t p;
    Hashtbl.remove t.watched p
  done

let is_mapped t addr = Hashtbl.mem t.pages (page_of addr)

let protect t ~addr ~len ~prot =
  let first = page_of addr and last = page_of (addr + len - 1) in
  for p = first to last do
    match Hashtbl.find_opt t.pages p with
    | Some pg ->
      journal_touch_pg t p pg;
      mark_dirty_pg t p pg;
      pg.prot <- prot;
      bump_gen t pg
    | None -> ()
  done

(* Write generation of the page holding [addr]; -1 when unmapped. Valid
   generations are >= 1, so a consumer initialising cached generations to
   0 (or keeping a -1 from an unmapped probe) never false-hits. This is
   the interpreter decode cache's probe, on every step: a TLB hit. *)
let page_gen t addr =
  let i = tlb_slot t (page_of addr) in
  if i >= 0 then (Array.unsafe_get t.tlb_pg i).gen else -1

let prot_of t addr =
  match Hashtbl.find_opt t.pages (page_of addr) with
  | Some pg -> Some pg.prot
  | None -> None

let set_write_watch t f = t.write_watch <- f

let watch_page t addr =
  Hashtbl.replace t.watched (page_of addr) ();
  tlb_drop t (page_of addr)

let unwatch_page t addr =
  Hashtbl.remove t.watched (page_of addr);
  tlb_drop t (page_of addr)

let page_watched t addr = Hashtbl.mem t.watched (page_of addr)

let page_fault addr acc = raise (Fault.Fault (Fault.Page_fault (Word.mask32 addr, acc)))

let find_page t addr (acc : Fault.access) =
  let i = tlb_slot t (page_of addr) in
  if i < 0 then page_fault addr acc;
  let pg = Array.unsafe_get t.tlb_pg i in
  let ok =
    match acc with
    | Fault.Read -> pg.prot.read
    | Fault.Write -> pg.prot.write
    | Fault.Fetch -> pg.prot.exec
  in
  if ok then pg else page_fault addr acc

(* Journal, dirty list and private buffer, before a store into [pg]. *)
let[@inline] prepare_store t no pg =
  journal_touch_pg t no pg;
  mark_dirty_pg t no pg;
  own_data pg

(* Byte-granular access; multi-byte accesses may straddle pages. *)

let read8 t addr =
  let pg = find_page t addr Fault.Read in
  Char.code (Bytes.get pg.data (offset_of addr))

let fetch8 t addr =
  let pg = find_page t addr Fault.Fetch in
  Char.code (Bytes.get pg.data (offset_of addr))

let write8_nowatch t addr v =
  let pg = find_page t addr Fault.Write in
  prepare_store t (page_of addr) pg;
  Bytes.set pg.data (offset_of addr) (Char.chr (Word.mask8 v));
  bump_gen t pg

let notify t addr width =
  match t.write_watch with
  | Some f -> f (Word.mask32 addr) width
  | None -> ()

(* A store that straddles two pages notifies if either is watched. *)
let notify_range t addr width =
  if
    Hashtbl.mem t.watched (page_of addr)
    || Hashtbl.mem t.watched (page_of (addr + width - 1))
  then notify t addr width

(* Top-level little-endian byte loops for the straddling path and odd
   widths: no closure per access. *)
let rec rd_le d base acc i =
  if i < 0 then acc
  else
    rd_le d base
      ((acc lsl 8) lor Char.code (Bytes.unsafe_get d (base + i)))
      (i - 1)

let rec rd_slow t addr acc i n =
  if i >= n then acc
  else rd_slow t addr (acc lor (read8 t (addr + i) lsl (8 * i))) (i + 1) n

(* An access contained in one page is one word-wide [Bytes] access on
   the page found through the TLB. One that straddles goes byte by byte
   from its first byte up, so it faults at its lowest inaccessible
   byte, as IA-32 reports it. *)
let read_n t addr n =
  let off = offset_of addr in
  if off + n <= page_size then
    let d = (find_page t addr Fault.Read).data in
    match n with
    | 1 -> Bytes.get_uint8 d off
    | 2 -> Bytes.get_uint16_le d off
    | 4 -> Int32.to_int (Bytes.get_int32_le d off) land 0xFFFF_FFFF
    | _ -> rd_le d off 0 (n - 1)
  else rd_slow t addr 0 0 n

let rec wr_le d base v i n =
  if i < n then begin
    Bytes.unsafe_set d (base + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF));
    wr_le d base v (i + 1) n
  end

(* The write watch fires after the bytes are stored, once per store,
   with the store's address and width, when any page the store touches
   is watched. *)
let write_n t addr n v =
  let off = offset_of addr in
  if off + n <= page_size then begin
    let no = page_of addr in
    let i = tlb_slot t no in
    if i < 0 || not (Array.unsafe_get t.tlb_pg i).prot.write then
      page_fault addr Fault.Write;
    let pg = Array.unsafe_get t.tlb_pg i in
    prepare_store t no pg;
    let d = pg.data in
    (match n with
    | 1 -> Bytes.set_uint8 d off (v land 0xFF)
    | 2 -> Bytes.set_uint16_le d off (v land 0xFFFF)
    | 4 -> Bytes.set_int32_le d off (Int32.of_int v)
    | _ -> wr_le d off v 0 n);
    bump_gen t pg;
    if Array.unsafe_get t.tlb_watch i then notify t addr n
  end
  else begin
    for i = 0 to n - 1 do
      write8_nowatch t (addr + i) ((v lsr (8 * i)) land 0xFF)
    done;
    notify_range t addr n
  end

let write8 t addr v = write_n t addr 1 v
let read16 t addr = read_n t addr 2
let read32 t addr = read_n t addr 4
let write16 t addr v = write_n t addr 2 v
let write32 t addr v = write_n t addr 4 v

let read size t addr = read_n t addr size
let write size t addr v = write_n t addr size v

(* The low word first, so the lower half's fault is the one reported. *)
let read64 t addr =
  let lo = read32 t addr in
  Word.to_i64 ~lo ~hi:(read32 t (addr + 4))

let write64 t addr v =
  write_n t addr 4 (Word.lo32 v);
  write_n t (addr + 4) 4 (Word.hi32 v)

let read_f32 t addr = Int32.float_of_bits (Int32.of_int (read32 t addr))
let write_f32 t addr f = write32 t addr (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)
let read_f64 t addr = Int64.float_of_bits (read64 t addr)
let write_f64 t addr f = write64 t addr (Int64.bits_of_float f)

(* Bytes of [addr, addr + len) that lie in the page holding [addr]. *)
let chunk_len addr len = min len (page_size - offset_of addr)

(* Loader path: ignores page protections (the "OS" writing the image).
   Page-granular: one lookup, journal touch, blit and generation bump per
   page. Pages before an unmapped one are written in full, so the fault
   names the first unmapped byte, as a byte-wise store loop would. *)
let load_bytes t addr s =
  let len = String.length s in
  let rec go i =
    if i < len then begin
      let a = addr + i in
      let n = chunk_len a (len - i) in
      match Hashtbl.find t.pages (page_of a) with
      | pg ->
        journal_touch_pg t (page_of a) pg;
        mark_dirty_pg t (page_of a) pg;
        own_data pg;
        Bytes.blit_string s i pg.data (offset_of a) n;
        bump_gen t pg;
        go (i + n)
      | exception Not_found ->
        raise (Fault.Fault (Fault.Page_fault (Word.mask32 a, Fault.Write)))
    end
  in
  go 0

(* Page-granular read with [read8]'s faults: the first byte of an
   unmapped or unreadable page is the address reported. *)
let dump_bytes t addr len =
  let out = Bytes.create len in
  let rec go i =
    if i < len then begin
      let a = addr + i in
      let n = chunk_len a (len - i) in
      Bytes.blit (find_page t a Fault.Read).data (offset_of a) out i n;
      go (i + n)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

(* Deep copy, for differential testing (golden model vs translator).
   Never-written pages keep sharing [zero_page]. The copy starts with an
   empty TLB, no journal epochs and no spares. *)
let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter
    (fun k pg ->
      Hashtbl.replace pages k
        { data = copy_data pg.data; prot = pg.prot; gen = pg.gen; seen = 0; stamp = 0 })
    t.pages;
  {
    (create ()) with
    pages;
    watched = Hashtbl.copy t.watched;
    gen_counter = t.gen_counter;
  }

let watched_pages t = Hashtbl.fold (fun k () acc -> k :: acc) t.watched []

let set_watched_pages t nos =
  Hashtbl.reset t.watched;
  List.iter (fun no -> Hashtbl.replace t.watched no ()) nos;
  tlb_flush t

(* Nested copy-on-write journal: each epoch records, per page, a full
   pre-image at first touch, so both [revert] and the epoch's own write
   traffic cost O(pages touched). [revert] restores a page's bytes,
   protection and ORIGINAL write generation: a generation value only ever
   recurs together with the exact content it stamped (the global counter
   is never reused), so decode caches validated against [page_gen] stay
   warm across a revert instead of being flushed. A never-written page's
   pre-image is [zero_page] itself, so recording it copies nothing.

   First touch is one compare: a page's [stamp] names the epoch holding
   its pre-image, and epoch ids come from the memory's own counter and
   are never reused, so no stamp can name a later epoch. The invariant,
   for the innermost open epoch [e]: a mapped page's stamp is [e.id]
   exactly when [e] holds its pre-image. A pre-image keeps the stamp the
   page had, which [revert] puts back, so the parent's invariant holds
   again. The buffers a reverted epoch no longer needs become the
   memory's spares. *)
module Journal = struct
  let depth t = List.length t.epochs

  let push t =
    t.epoch_ids <- t.epoch_ids + 1;
    t.epoch <- t.epoch_ids;
    t.epochs <- { id = t.epoch; pre_images = Hashtbl.create 32 } :: t.epochs

  let touched t =
    match t.epochs with e :: _ -> Hashtbl.length e.pre_images | [] -> 0

  let pages_restored t = t.restored

  let revert t =
    match t.epochs with
    | [] -> invalid_arg "Memory.Journal.revert: no open epoch"
    | e :: rest ->
      t.epochs <- rest;
      t.epoch <- (match rest with p :: _ -> p.id | [] -> 0);
      let touched = ref [] in
      Hashtbl.iter
        (fun no pre ->
          touched := no :: !touched;
          t.restored <- t.restored + 1;
          match pre with
          | Pre_absent -> remove_page t no
          | Pre_page { data; prot; gen; stamp } -> (
            (* The popped epoch's pre-images are referenced nowhere
               else, so they may be adopted instead of copied; a blit
               never targets [zero_page]. A buffer blitted from, or one
               a page stops using, is spare. *)
            match Hashtbl.find_opt t.pages no with
            | Some pg ->
              mark_dirty_pg t no pg;
              if pg.data == zero_page then pg.data <- data
              else if data == zero_page then begin
                spare t pg.data;
                pg.data <- data
              end
              else begin
                Bytes.blit data 0 pg.data 0 page_size;
                spare t data
              end;
              pg.prot <- prot;
              pg.gen <- gen;
              pg.stamp <- stamp
            | None ->
              Hashtbl.replace t.pages no (new_page t no ~data ~prot ~gen ~stamp)))
        e.pre_images;
      !touched
end

let mapped_pages t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.pages [])

exception Found of int

(* Address of the first differing byte between two memories, or [None]
   when they hold the same pages with the same bytes. The lockstep vehicle
   calls this at every commit point, so a page is settled cheaply first:
   a shared buffer (both pages still demand-zero) or [Bytes.equal]
   content skips it, and only a page that differs is scanned byte by
   byte. Pages are visited in [a]'s table order, then [b]'s pages missing
   from [a]. [skip] excludes page numbers (runtime-private regions such
   as the translator's profile arena) from the comparison. *)
let first_diff ?(skip = fun _ -> false) a b =
  let check k pg =
    if not (skip k) then
      match Hashtbl.find b.pages k with
      | exception Not_found -> raise (Found (k * page_size))
      | pg' ->
        let d = pg.data and d' = pg'.data in
        if d != d' && not (Bytes.equal d d') then begin
          let i = ref 0 in
          while Bytes.get d !i = Bytes.get d' !i do
            incr i
          done;
          raise (Found ((k * page_size) + !i))
        end
  in
  match
    Hashtbl.iter check a.pages;
    Hashtbl.iter
      (fun k _ ->
        if (not (skip k)) && not (Hashtbl.mem a.pages k) then
          raise (Found (k * page_size)))
      b.pages
  with
  | () -> None
  | exception Found addr -> Some addr

let equal ?skip a b = first_diff ?skip a b = None

(* Dirty-page compare. Invariant, for two memories that are each other's
   peers: every page outside both dirty lists (and outside [skip]) holds
   the same bytes on both sides, because the two were equal at their
   last compare and neither has touched the page since. So equality
   needs only the listed pages, and a difference falls back to the full
   scan, which reports the first address in its own visit order. *)
module Dirty = struct
  let track t =
    if t.dirty_epoch = 0 then begin
      t.dirty_epoch <- 1;
      t.dirty <- [];
      t.dirty_peer <- None
    end

  let tracked t = t.dirty_epoch > 0

  let pages t = List.sort_uniq compare t.dirty

  let clear t ~peer =
    t.dirty_epoch <- t.dirty_epoch + 1;
    t.dirty <- [];
    t.dirty_peer <- Some peer

  let peer_of t m = match t.dirty_peer with Some p -> p == m | None -> false

  let page_differs a b no =
    match (Hashtbl.find_opt a.pages no, Hashtbl.find_opt b.pages no) with
    | None, None -> false
    | Some p, Some q -> p.data != q.data && not (Bytes.equal p.data q.data)
    | Some _, None | None, Some _ -> true

  let first_diff ?(skip = fun _ -> false) a b =
    let listed_equal l =
      List.for_all (fun no -> skip no || not (page_differs a b no)) l
    in
    if tracked a && tracked b then begin
      let r =
        if
          peer_of a b && peer_of b a
          && listed_equal a.dirty && listed_equal b.dirty
        then None
        else first_diff ~skip a b
      in
      if r = None then begin
        clear a ~peer:b;
        clear b ~peer:a
      end;
      r
    end
    else first_diff ~skip a b
end
