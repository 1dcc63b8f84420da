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
   [data] is [zero_page] until the page's first store (demand-zero). *)
type page = { mutable data : Bytes.t; mutable prot : prot; mutable gen : int }

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
   plus protection and write generation at that moment. *)
type pre = Pre_absent | Pre_page of { data : Bytes.t; prot : prot; gen : int }

type epoch = {
  pre_images : (int, pre) Hashtbl.t; (* page number -> pre-image *)
  (* last page recorded in this epoch: inner loops hammer one page, so
     this memo turns the per-write probe into a single compare. *)
  mutable last_no : int;
}

type journal = {
  mutable epochs : epoch list; (* innermost first *)
  mutable restored : int; (* cumulative pages restored by [revert] *)
}

type t = {
  pages : (int, page) Hashtbl.t;
  mutable write_watch : (int -> int -> unit) option; (* addr, width *)
  mutable watched : (int, unit) Hashtbl.t; (* page numbers with watch *)
  mutable gen_counter : int;
  (* one-entry lookup memo: both simulator inner loops hit the same page
     repeatedly, and a Hashtbl probe per byte dominates the access cost.
     [memo_no] is -1 when empty; the memoized record is shared with the
     table, so in-place protection changes stay visible. *)
  mutable memo_no : int;
  mutable memo_pg : page;
  mutable journal : journal option;
}

let dummy_page =
  {
    data = Bytes.create 0;
    prot = { read = false; write = false; exec = false };
    gen = 0;
  }

let create () =
  {
    pages = Hashtbl.create 256;
    write_watch = None;
    watched = Hashtbl.create 16;
    gen_counter = 1;
    memo_no = -1;
    memo_pg = dummy_page;
    journal = None;
  }

let bump_gen t pg =
  t.gen_counter <- t.gen_counter + 1;
  pg.gen <- t.gen_counter

let page_of addr = Word.mask32 addr lsr page_bits
let offset_of addr = Word.mask32 addr land (page_size - 1)

(* Record the pre-image of page [no] in the innermost epoch before its
   first mutation there. Cost when no journal is attached: one load and
   branch per mutating call. [journal_touch_pg] is the variant for call
   sites that already hold the page record. *)
let record_pre e t no =
  if not (Hashtbl.mem e.pre_images no) then
    Hashtbl.replace e.pre_images no
      (match Hashtbl.find_opt t.pages no with
      | None -> Pre_absent
      | Some pg ->
        Pre_page { data = copy_data pg.data; prot = pg.prot; gen = pg.gen });
  e.last_no <- no

let journal_touch t no =
  match t.journal with
  | None -> ()
  | Some { epochs = e :: _; _ } -> if no <> e.last_no then record_pre e t no
  | Some { epochs = []; _ } -> ()

let record_pre_pg e no (pg : page) =
  if not (Hashtbl.mem e.pre_images no) then
    Hashtbl.replace e.pre_images no
      (Pre_page { data = copy_data pg.data; prot = pg.prot; gen = pg.gen });
  e.last_no <- no

let journal_touch_pg t no pg =
  match t.journal with
  | None -> ()
  | Some { epochs = e :: _; _ } -> if no <> e.last_no then record_pre_pg e no pg
  | Some { epochs = []; _ } -> ()

let map t ~addr ~len ~prot =
  let first = page_of addr and last = page_of (addr + len - 1) in
  for p = first to last do
    journal_touch t p;
    match Hashtbl.find_opt t.pages p with
    | None ->
      t.gen_counter <- t.gen_counter + 1;
      Hashtbl.replace t.pages p
        { data = zero_page; prot; gen = t.gen_counter }
    | Some pg ->
      pg.prot <- prot;
      bump_gen t pg
  done

let unmap t ~addr ~len =
  let first = page_of addr and last = page_of (addr + len - 1) in
  for p = first to last do
    journal_touch t p;
    Hashtbl.remove t.pages p;
    Hashtbl.remove t.watched p
  done;
  t.memo_no <- -1

let is_mapped t addr = Hashtbl.mem t.pages (page_of addr)

let protect t ~addr ~len ~prot =
  let first = page_of addr and last = page_of (addr + len - 1) in
  for p = first to last do
    match Hashtbl.find_opt t.pages p with
    | Some pg ->
      journal_touch_pg t p pg;
      pg.prot <- prot;
      bump_gen t pg
    | None -> ()
  done

(* Write generation of the page holding [addr]; -1 when unmapped. Valid
   generations are >= 1, so a consumer initialising cached generations to
   0 (or keeping a -1 from an unmapped probe) never false-hits. *)
(* [Hashtbl.find] rather than [find_opt]: this runs on every cached-decode
   probe and must not allocate an option in the hit path. *)
let page_gen t addr =
  match Hashtbl.find t.pages (page_of addr) with
  | pg -> pg.gen
  | exception Not_found -> -1

let prot_of t addr =
  match Hashtbl.find_opt t.pages (page_of addr) with
  | Some pg -> Some pg.prot
  | None -> None

let set_write_watch t f = t.write_watch <- f

let watch_page t addr = Hashtbl.replace t.watched (page_of addr) ()
let unwatch_page t addr = Hashtbl.remove t.watched (page_of addr)
let page_watched t addr = Hashtbl.mem t.watched (page_of addr)

(* Exception-based lookup plus the memo: the hot path (same page as the
   previous access) is two compares and allocates nothing. *)
let find_page t addr (acc : Fault.access) =
  let no = page_of addr in
  let pg =
    if no = t.memo_no then t.memo_pg
    else
      match Hashtbl.find t.pages no with
      | pg ->
        t.memo_no <- no;
        t.memo_pg <- pg;
        pg
      | exception Not_found ->
        raise (Fault.Fault (Fault.Page_fault (Word.mask32 addr, acc)))
  in
  let ok =
    match acc with
    | Fault.Read -> pg.prot.read
    | Fault.Write -> pg.prot.write
    | Fault.Fetch -> pg.prot.exec
  in
  if ok then pg else raise (Fault.Fault (Fault.Page_fault (Word.mask32 addr, acc)))

(* Byte-granular access; multi-byte accesses may straddle pages. *)

let read8 t addr =
  let pg = find_page t addr Fault.Read in
  Char.code (Bytes.get pg.data (offset_of addr))

let fetch8 t addr =
  let pg = find_page t addr Fault.Fetch in
  Char.code (Bytes.get pg.data (offset_of addr))

let write8_nowatch t addr v =
  let pg = find_page t addr Fault.Write in
  journal_touch_pg t (page_of addr) pg;
  own_data pg;
  Bytes.set pg.data (offset_of addr) (Char.chr (Word.mask8 v));
  bump_gen t pg

let notify_write t addr width =
  match t.write_watch with
  | Some f when Hashtbl.mem t.watched (page_of addr) -> f (Word.mask32 addr) width
  | Some _ | None -> ()

let write8 t addr v =
  write8_nowatch t addr v;
  notify_write t addr 1

(* Top-level little-endian byte loops: no closure per access. The fast
   path handles an access contained in one page with direct Bytes reads;
   offsets come from [find_page], so unsafe_get stays in bounds. *)
let rec rd_le d base acc i =
  if i < 0 then acc
  else
    rd_le d base
      ((acc lsl 8) lor Char.code (Bytes.unsafe_get d (base + i)))
      (i - 1)

let rec rd_slow t addr acc i =
  if i < 0 then acc else rd_slow t addr ((acc lsl 8) lor read8 t (addr + i)) (i - 1)

let read_n t addr n =
  if offset_of addr + n <= page_size then
    let pg = find_page t addr Fault.Read in
    rd_le pg.data (offset_of addr) 0 (n - 1)
  else rd_slow t addr 0 (n - 1)

let rec wr_le d base v i n =
  if i < n then begin
    Bytes.unsafe_set d (base + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF));
    wr_le d base v (i + 1) n
  end

let write_n t addr n v =
  (if offset_of addr + n <= page_size then begin
     let pg = find_page t addr Fault.Write in
     journal_touch_pg t (page_of addr) pg;
     own_data pg;
     wr_le pg.data (offset_of addr) v 0 n;
     bump_gen t pg
   end
   else
     for i = 0 to n - 1 do
       write8_nowatch t (addr + i) ((v lsr (8 * i)) land 0xFF)
     done);
  notify_write t addr n

let read16 t addr = read_n t addr 2
let read32 t addr = read_n t addr 4
let write16 t addr v = write_n t addr 2 v
let write32 t addr v = write_n t addr 4 v

let read size t addr = read_n t addr size
let write size t addr v = write_n t addr size v

let read64 t addr =
  Word.to_i64 ~lo:(read32 t addr) ~hi:(read32 t (addr + 4))

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
   Never-written pages keep sharing [zero_page]. *)
let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter
    (fun k pg ->
      Hashtbl.replace pages k
        { data = copy_data pg.data; prot = pg.prot; gen = pg.gen })
    t.pages;
  {
    pages;
    write_watch = None;
    watched = Hashtbl.copy t.watched;
    gen_counter = t.gen_counter;
    memo_no = -1;
    memo_pg = dummy_page;
    journal = None;
  }

let watched_pages t = Hashtbl.fold (fun k () acc -> k :: acc) t.watched []

let set_watched_pages t nos =
  Hashtbl.reset t.watched;
  List.iter (fun no -> Hashtbl.replace t.watched no ()) nos

(* Nested copy-on-write journal: each epoch records, per page, a full
   pre-image at first touch, so both [revert] and the epoch's own write
   traffic cost O(pages touched). [revert] restores a page's bytes,
   protection and ORIGINAL write generation: a generation value only ever
   recurs together with the exact content it stamped (the global counter
   is never reused), so decode caches validated against [page_gen] stay
   warm across a revert instead of being flushed. A never-written page's
   pre-image is [zero_page] itself, so recording it copies nothing. *)
module Journal = struct
  let fresh_epoch () = { pre_images = Hashtbl.create 32; last_no = -1 }

  let active t = t.journal <> None

  let depth t =
    match t.journal with None -> 0 | Some j -> List.length j.epochs

  let attach t =
    if t.journal = None then t.journal <- Some { epochs = []; restored = 0 }

  let detach t = t.journal <- None

  let push t =
    attach t;
    match t.journal with
    | None -> assert false
    | Some j -> j.epochs <- fresh_epoch () :: j.epochs

  let touched t =
    match t.journal with
    | Some { epochs = e :: _; _ } -> Hashtbl.length e.pre_images
    | _ -> 0

  let pages_restored t =
    match t.journal with None -> 0 | Some j -> j.restored

  let revert t =
    match t.journal with
    | None -> invalid_arg "Memory.Journal.revert: no journal attached"
    | Some j -> (
      match j.epochs with
      | [] -> invalid_arg "Memory.Journal.revert: no open epoch"
      | e :: rest ->
        j.epochs <- rest;
        let touched = ref [] in
        Hashtbl.iter
          (fun no pre ->
            touched := no :: !touched;
            j.restored <- j.restored + 1;
            match pre with
            | Pre_absent -> Hashtbl.remove t.pages no
            | Pre_page { data; prot; gen } -> (
              (* The popped epoch's pre-images are referenced nowhere
                 else, so they may be adopted instead of copied; a blit
                 never targets [zero_page]. *)
              match Hashtbl.find_opt t.pages no with
              | Some pg ->
                if data == zero_page || pg.data == zero_page then
                  pg.data <- data
                else Bytes.blit data 0 pg.data 0 page_size;
                pg.prot <- prot;
                pg.gen <- gen
              | None -> Hashtbl.replace t.pages no { data; prot; gen }))
          e.pre_images;
        t.memo_no <- -1;
        t.memo_pg <- dummy_page;
        !touched)

  let commit t =
    match t.journal with
    | None -> invalid_arg "Memory.Journal.commit: no journal attached"
    | Some j -> (
      match j.epochs with
      | [] -> invalid_arg "Memory.Journal.commit: no open epoch"
      | e :: rest ->
        (match rest with
        | parent :: _ ->
          (* The parent's own (older) pre-images win: they describe the
             page as it stood when the OUTER epoch opened. *)
          Hashtbl.iter
            (fun no pre ->
              if not (Hashtbl.mem parent.pre_images no) then
                Hashtbl.replace parent.pre_images no pre)
            e.pre_images
        | [] -> ());
        j.epochs <- rest)
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
