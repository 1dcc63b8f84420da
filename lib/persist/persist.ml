(* Crash-safe persistent translation cache (DESIGN.md S13).

   The invariant everything here serves: a cache can only ever save host
   work. Installing a recorded translation must be indistinguishable —
   observables, cycle counts, Account totals — from running the live
   translator at the same request, so a warm run is bit-identical to a
   cold one and a damaged cache degrades to retranslation, never to
   wrong code or a crash. *)

module M = Ipf.Machine
module I = Ipf.Insn
module E = Ia32el.Engine
module B = Ia32el.Block
module A = Ia32el.Account
module Err = Ia32el.Bt_error

let format_version = 4

(* ---- checksums and fingerprints ---------------------------------------- *)

(* CRC-32 (IEEE, reflected), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(init = 0) s =
  let tbl = Lazy.force crc_table in
  let c = ref (init lxor 0xFFFFFFFF) in
  String.iter
    (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h prime)
    s;
  !h

let config_fingerprint (config : Ia32el.Config.t) =
  (* Config.t is pure data; Marshal gives a stable byte image of every
     switch. The format version is folded in so a format bump alone
     retires old caches. *)
  fnv1a64
    (Marshal.to_string config [] ^ Printf.sprintf "|tcache-format-%d" format_version)

let image_hash (img : Ia32.Asm.image) =
  let b = Buffer.create (String.length img.Ia32.Asm.code + 64) in
  Buffer.add_string b (Printf.sprintf "e%x|c%x|d%x|s%x|" img.Ia32.Asm.entry
       img.Ia32.Asm.code_base img.Ia32.Asm.data_base img.Ia32.Asm.stack_top);
  Buffer.add_string b img.Ia32.Asm.code;
  Buffer.add_char b '|';
  Buffer.add_string b img.Ia32.Asm.data;
  fnv1a64 (Buffer.contents b)

(* ---- store -------------------------------------------------------------- *)

(* One recorded translation. Everything Marshal-ed here is pure data
   (ints, strings, arrays, hashtables of the above) — no closures. *)
type rentry = {
  r_phase : int; (* 0 = cold, 1 = hot *)
  r_entry : int;
  r_occ : int; (* k-th successful translation of (phase, entry) this run *)
  r_tos : int; (* x87 TOS the translation assumed at entry *)
  r_flag : bool; (* stage-2 marker (cold) / avoidance marker (hot) *)
  r_use : int; (* hot-profile seeds consulted by trace selection *)
  r_taken : int;
  r_block : B.t; (* deep copy taken at translation time, pre-chaining;
                    its [span] is the source the translation assumed *)
  r_bundles : Ipf.Bundle.t array; (* ditto; length r_block.tlen *)
  r_acct : A.t; (* Account delta the live translation charged *)
}

type key = int * int * int (* phase, entry, occurrence *)

type store = {
  st_image : int64;
  st_config : int64;
  st_tbl : (key, rentry) Hashtbl.t;
}

let create_store ~image_hash ~config_fp =
  { st_image = image_hash; st_config = config_fp; st_tbl = Hashtbl.create 64 }

let entry_count st = Hashtbl.length st.st_tbl

(* ---- deep copies --------------------------------------------------------- *)

(* Commit maps and fp snapshots are written once at translation and only
   read afterwards, so the element copies can stay shared; the arrays and
   the recovery table get fresh spines because the mutable block fields
   (tstart, live, misalign_stage) travel with the record. *)
let copy_block (b : B.t) =
  {
    b with
    B.insns = Array.copy b.B.insns;
    sse_entry = Array.copy b.B.sse_entry;
    fp_recovery = Hashtbl.copy b.B.fp_recovery;
    commit_maps = Array.copy b.B.commit_maps;
    bundle_commit = Array.copy b.B.bundle_commit;
  }

(* ---- file format ---------------------------------------------------------

   offset 0  : 16-byte magic "IA32EL-TCACHE/1\000"
   offset 16 : format version   (BE32)
   offset 20 : image hash       (BE64)
   offset 28 : config fingerprint (BE64)
   offset 36 : CRC-32 of bytes 16..35 (BE32)
   then entry frames:  'E' | payload length (BE32) | payload | CRC-32 (BE32)
   then one trailer:   'T' | payload length (BE32) | payload | CRC-32 (BE32)
   where the trailer payload marshals (entry count, running CRC of all
   entry-frame CRC words) — so truncation after any whole frame is still
   detected. Fixed header offsets let fault injection build precise
   stale-fingerprint (valid CRC, wrong key) test files. *)

let magic = "IA32EL-TCACHE/1\000"

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.to_string b

let be64 (n : int64) =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set_uint8 b i
      (Int64.to_int (Int64.shift_right_logical n ((7 - i) * 8)) land 0xFF)
  done;
  Bytes.to_string b

let rd32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let rd64 s off =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let diag ?detail what = Err.make ~component:"persist" ?detail what

let header_bytes st =
  be32 format_version ^ be64 st.st_image ^ be64 st.st_config

let frame tag payload =
  String.make 1 tag ^ be32 (String.length payload) ^ payload
  ^ be32 (crc32 payload)

(* Bound on a single entry frame: anything bigger is treated as
   corruption rather than honored (a flipped length byte must not make
   the loader allocate gigabytes). *)
let max_frame = 1 lsl 26

let save st ~path =
  let lock = path ^ ".lock" in
  match open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 lock with
  | exception Sys_error msg ->
    [ diag ~detail:msg "cache lockfile held: concurrent writer, not saving" ]
  | lock_oc ->
    close_out_noerr lock_oc;
    let release () = (try Sys.remove lock with Sys_error _ -> ()) in
    let tmp = path ^ ".tmp" in
    let result =
      match open_out_bin tmp with
      | exception Sys_error msg -> [ diag ~detail:msg "cache io error: open" ]
      | oc -> (
        match
          output_string oc magic;
          let hdr = header_bytes st in
          output_string oc hdr;
          output_string oc (be32 (crc32 hdr));
          let crc_acc = ref 0 in
          let entries =
            Hashtbl.fold (fun _ r acc -> r :: acc) st.st_tbl []
            |> List.sort (fun a b ->
                   compare (a.r_phase, a.r_entry, a.r_occ)
                     (b.r_phase, b.r_entry, b.r_occ))
          in
          List.iter
            (fun r ->
              let payload = Marshal.to_string r [] in
              crc_acc := crc32 ~init:!crc_acc (be32 (crc32 payload));
              output_string oc (frame 'E' payload))
            entries;
          output_string oc
            (frame 'T' (Marshal.to_string (List.length entries, !crc_acc) []));
          close_out oc;
          Sys.rename tmp path
        with
        | () -> []
        | exception Sys_error msg ->
          close_out_noerr oc;
          (try Sys.remove tmp with Sys_error _ -> ());
          [ diag ~detail:msg "cache io error: write" ])
    in
    release ();
    result

(* Read exactly [n] bytes, or None at a short read. *)
let really_read ic n =
  match really_input_string ic n with
  | s -> Some s
  | exception End_of_file -> None

let load ~path ~image_hash ~config_fp =
  let fresh () = create_store ~image_hash ~config_fp in
  if not (Sys.file_exists path) then (fresh (), [])
  else
    match open_in_bin path with
    | exception Sys_error msg ->
      (fresh (), [ diag ~detail:msg "cache io error: open" ])
    | ic ->
      let st = fresh () in
      let diags = ref [] in
      let push d = diags := d :: !diags in
      let crc_acc = ref 0 in
      let n_entries = ref 0 in
      (* header: all four failure modes before any Marshal runs *)
      let header_ok =
        match really_read ic (String.length magic + 24) with
        | None ->
          push (diag "cache truncated: incomplete header");
          false
        | Some h ->
          let m = String.sub h 0 (String.length magic) in
          let body = String.sub h (String.length magic) 20 in
          let stored_crc = rd32 h (String.length magic + 20) in
          if not (String.equal m magic) then begin
            push (diag ~detail:(String.escaped m) "cache magic mismatch");
            false
          end
          else if crc32 body <> stored_crc then begin
            push (diag "cache header checksum mismatch");
            false
          end
          else begin
            let ver = rd32 body 0 in
            let img = rd64 body 4 in
            let cfg = rd64 body 12 in
            if ver <> format_version then begin
              push
                (diag
                   ~detail:(Printf.sprintf "file %d, build %d" ver format_version)
                   "cache format version mismatch");
              false
            end
            else if img <> image_hash then begin
              push (diag "stale cache: guest image hash mismatch");
              false
            end
            else if cfg <> config_fp then begin
              push (diag "stale cache: config fingerprint mismatch");
              false
            end
            else true
          end
      in
      if header_ok then begin
        (* entry frames until the trailer; CRC verified before Marshal *)
        let rec frames () =
          match really_read ic 5 with
          | None -> push (diag "cache truncated: missing trailer")
          | Some fh -> (
            let tag = fh.[0] in
            let len = rd32 fh 1 in
            if len < 0 || len > max_frame then
              push
                (diag
                   ~detail:(Printf.sprintf "tag %C length %d" tag len)
                   "cache truncated: implausible frame length")
            else
              match really_read ic (len + 4) with
              | None -> push (diag "cache truncated: incomplete frame")
              | Some body -> (
                let payload = String.sub body 0 len in
                let stored = rd32 body len in
                let computed = crc32 payload in
                match tag with
                | 'E' ->
                  if computed <> stored then begin
                    push
                      (diag
                         ~detail:(Printf.sprintf "entry index %d" !n_entries)
                         "cache entry checksum mismatch: entry dropped");
                    (* the frame boundary itself was consistent, so keep
                       scanning subsequent entries *)
                    incr n_entries;
                    frames ()
                  end
                  else begin
                    crc_acc := crc32 ~init:!crc_acc (be32 stored);
                    (match (Marshal.from_string payload 0 : rentry) with
                    | r ->
                      Hashtbl.replace st.st_tbl (r.r_phase, r.r_entry, r.r_occ) r
                    | exception _ ->
                      push
                        (diag
                           ~detail:(Printf.sprintf "entry index %d" !n_entries)
                           "cache entry unreadable: entry dropped"));
                    incr n_entries;
                    frames ()
                  end
                | 'T' ->
                  if computed <> stored then
                    push (diag "cache trailer checksum mismatch")
                  else (
                    match (Marshal.from_string payload 0 : int * int) with
                    | count, acc ->
                      if count <> !n_entries || acc <> !crc_acc then
                        push
                          (diag
                             ~detail:
                               (Printf.sprintf "trailer %d/%#x, file %d/%#x"
                                  count acc !n_entries !crc_acc)
                             "cache trailer mismatch: entries missing or damaged")
                    | exception _ -> push (diag "cache trailer unreadable"))
                | t ->
                  push
                    (diag ~detail:(Printf.sprintf "%C" t)
                       "cache truncated: unknown frame tag")))
        in
        frames ()
      end;
      close_in_noerr ic;
      (* a stale or unreadable header invalidates everything: entries were
         never read, the store stays empty and keyed to the current run *)
      (st, List.rev !diags)

(* ---- session ------------------------------------------------------------- *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable rejects : int;
  mutable recorded : int;
  mutable eliminated_cold_cycles : int;
  mutable eliminated_hot_cycles : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "tcache: %d hits, %d misses, %d rejects, %d recorded, %d cold + %d hot translation cycles eliminated"
    s.hits s.misses s.rejects s.recorded s.eliminated_cold_cycles
    s.eliminated_hot_cycles

type session = {
  se_store : store;
  se_eng : E.t;
  se_verify : bool;
  se_readonly : bool;
  se_occ : (int * int, int) Hashtbl.t; (* (phase, entry) -> next occurrence *)
  se_stats : stats;
}

let stats se = se.se_stats
let store_of se = se.se_store

let phase_code = function Obs.Trace.Cold -> 0 | Obs.Trace.Hot -> 1

(* The hot-profile seeds trace selection starts from, recomputed exactly
   as the engine's profile closures would (Engine.t is an open record).
   Interior profile reads follow deterministically from these seeds plus
   the source span in a matched run; a mismatched run virtually always
   diverges here first. *)
let profile_seeds (eng : E.t) entry =
  let m = eng.E.machine in
  let use =
    match B.find_entry eng.E.cache entry with
    | Some _ -> m.Ipf.Machine.hotc.(Ipf.Machine.counter_slot entry)
    | None -> (
      match Hashtbl.find_opt eng.E.if_counts entry with
      | Some r -> !r
      | None -> 0)
  in
  let taken =
    match B.find_entry eng.E.cache entry with
    | Some _ -> m.Ipf.Machine.edgec.(Ipf.Machine.counter_slot entry)
    | None -> (
      match Hashtbl.find_opt eng.E.if_taken entry with
      | Some r -> !r
      | None -> 0)
  in
  (use, taken)

(* Profile-arena byte ranges a block's instrumentation occupies, from the
   translators' allocation discipline: cold allocates its per-access
   misalignment slots; hot allocates nothing. *)
let arena_ranges (b : B.t) =
  if b.B.kind = B.Cold then [ (b.B.ma_base, 4 * max 1 b.B.n_accesses) ]
  else []

(* Semantic validation: would the live translator reproduce this entry
   here? Any mismatch is a reject — the caller falls back to live
   translation, which is always safe. *)
let validate se (r : rentry) ~entry_tos ~flag =
  let eng = se.se_eng in
  r.r_tos = entry_tos && r.r_flag = flag
  && B.span_matches eng.E.mem r.r_block.B.span
  && (r.r_phase = 0
     ||
     let use, taken = profile_seeds eng r.r_entry in
     use = r.r_use && taken = r.r_taken)

let remap_reason ~old_id ~new_id = function
  | I.Heat id when id = old_id -> Some (I.Heat new_id)
  | I.Misalign_regen id when id = old_id -> Some (I.Misalign_regen new_id)
  | I.Smc id when id = old_id -> Some (I.Smc new_id)
  | I.Spec_fail (id, c) when id = old_id -> Some (I.Spec_fail (new_id, c))
  | I.Nat_recover id when id = old_id -> Some (I.Nat_recover new_id)
  | (I.Heat _ | I.Misalign_regen _ | I.Smc _ | I.Spec_fail _ | I.Nat_recover _)
    ->
    None (* embeds a foreign block id: not a self-contained recording *)
  | r -> Some r

(* Structural install: rebase intra-block branch targets by the new
   tcache position and remap the block's own id in exit reasons — by
   constructor, so a coincidental integer equal to the id elsewhere is
   never touched. Returns None (install refused) if any target escapes
   the recorded span or any embedded id is foreign. *)
let rewrite_bundles (r : rentry) ~new_id ~new_tstart =
  let old_id = r.r_block.B.id in
  let old_t = r.r_block.B.tstart in
  let delta = new_tstart - old_t in
  let ok = ref true in
  let target = function
    | I.To idx ->
      if idx < old_t || idx >= old_t + r.r_block.B.tlen then ok := false;
      I.To (idx + delta)
    | I.Out reason -> (
      match remap_reason ~old_id ~new_id reason with
      | Some reason -> I.Out reason
      | None ->
        ok := false;
        I.Out reason)
  in
  let sem = function
    | I.Br t -> I.Br (target t)
    | I.Chk_s (g, t) -> I.Chk_s (g, target t)
    | I.Chk_a (g, t) -> I.Chk_a (g, target t)
    | I.Hotc (s, thr, id) when id = old_id -> I.Hotc (s, thr, new_id)
    | I.Hotc _ as s ->
      ok := false;
      s (* embeds a foreign block id: not a self-contained recording *)
    | s -> s
  in
  (* a slot the rewrite leaves as it is stays the recorded instruction
     itself: installed again, it is physically the one the execution core
     compiled, and taking its program back by content is a pointer
     compare *)
  let slot (i : I.t) =
    let s = sem i.I.sem in
    if s == i.I.sem || s = i.I.sem then i else { i with I.sem = s }
  in
  let out =
    Array.map
      (fun b ->
        {
          b with
          Ipf.Bundle.slots = Array.map slot b.Ipf.Bundle.slots;
          stops = Array.copy b.Ipf.Bundle.stops;
        })
      r.r_bundles
  in
  if !ok then Some out else None

let unpin cache ranges =
  cache.B.pins <-
    List.filter (fun p -> not (List.exists (fun q -> p = q) ranges)) cache.B.pins

(* Install a recorded translation, reproducing exactly the live
   translator's side effects: fresh id, pinned arena slots, bundles
   appended at the current tcache tail, source pages watched, the
   recorded Account delta replayed — and for cold blocks, registration
   (hot registration is the engine's job, mirroring Hot.translate). *)
let install se (r : rentry) =
  let eng = se.se_eng in
  let cache = eng.E.cache in
  let ranges = arena_ranges r.r_block in
  let pinned =
    List.for_all (fun (start, len) -> B.pin_arena cache ~start ~len) ranges
  in
  if not pinned then begin
    (* roll back the pins that did land *)
    unpin cache ranges;
    None
  end
  else begin
    let new_id = B.fresh_id cache in
    let new_tstart = Ipf.Tcache.length eng.E.tcache in
    match rewrite_bundles r ~new_id ~new_tstart with
    | None ->
      unpin cache ranges;
      None
    | Some bundles ->
      let first = Ipf.Tcache.append_list eng.E.tcache (Array.to_list bundles) in
      assert (first = new_tstart);
      let b =
        {
          (copy_block r.r_block) with
          B.id = new_id;
          tstart = new_tstart;
          live = true;
          registered = 0;
        }
      in
      if b.B.kind = B.Cold then B.register cache b;
      B.watch eng.E.mem b;
      A.add_into ~dst:eng.E.acct r.r_acct;
      Some b
  end

let eliminate_cycles se (b : B.t) =
  let cost = se.se_eng.E.machine.M.cost in
  let n = Array.length b.B.insns in
  if b.B.kind = B.Cold then
    se.se_stats.eliminated_cold_cycles <-
      se.se_stats.eliminated_cold_cycles + (n * cost.Ipf.Cost.cold_translate_per_insn)
  else
    se.se_stats.eliminated_hot_cycles <-
      se.se_stats.eliminated_hot_cycles + (n * cost.Ipf.Cost.hot_translate_per_insn)

(* Record a just-translated block. Taken immediately, before the engine
   can chain or patch anything: the copies capture the translation
   exactly as the translator produced it. *)
let record se ~pc ~entry ~occ ~entry_tos ~flag (b : B.t) delta =
  let eng = se.se_eng in
  let bundles =
    Array.init b.B.tlen (fun i ->
        Ipf.Bundle.copy (Ipf.Tcache.get eng.E.tcache (b.B.tstart + i)))
  in
  let use, taken = if pc = 1 then profile_seeds eng entry else (0, 0) in
  let r =
    {
      r_phase = pc;
      r_entry = entry;
      r_occ = occ;
      r_tos = entry_tos;
      r_flag = flag;
      r_use = use;
      r_taken = taken;
      r_block = copy_block b;
      r_bundles = bundles;
      r_acct = delta;
    }
  in
  Hashtbl.replace se.se_store.st_tbl (pc, entry, occ) r;
  se.se_stats.recorded <- se.se_stats.recorded + 1

(* The engine's translate filter. Total: every path either installs an
   equivalent block or runs [live] exactly once. *)
let filter se ~phase ~entry ~entry_tos ~flag ~live =
  let pc = phase_code phase in
  let occ =
    match Hashtbl.find_opt se.se_occ (pc, entry) with Some n -> n | None -> 0
  in
  let bump () = Hashtbl.replace se.se_occ (pc, entry) (occ + 1) in
  let installed =
    match Hashtbl.find_opt se.se_store.st_tbl (pc, entry, occ) with
    | None -> None
    | Some r ->
      if se.se_verify && not (validate se r ~entry_tos ~flag) then begin
        se.se_stats.rejects <- se.se_stats.rejects + 1;
        None
      end
      else (
        match install se r with
        | Some b -> Some b
        | None ->
          se.se_stats.rejects <- se.se_stats.rejects + 1;
          None)
  in
  match installed with
  | Some b ->
    se.se_stats.hits <- se.se_stats.hits + 1;
    eliminate_cycles se b;
    bump ();
    Some b
  | None -> (
    se.se_stats.misses <- se.se_stats.misses + 1;
    let before = A.copy se.se_eng.E.acct in
    match live () with
    | Some b ->
      let delta = A.sub se.se_eng.E.acct before in
      if not se.se_readonly then record se ~pc ~entry ~occ ~entry_tos ~flag b delta;
      bump ();
      Some b
    | None ->
      (* hot translation declined: deterministic, so the warm run declines
         here too — nothing recorded, occurrence not consumed *)
      None)

let attach ?(verify = true) ?(readonly = false) store eng =
  let se =
    {
      se_store = store;
      se_eng = eng;
      se_verify = verify;
      se_readonly = readonly;
      se_occ = Hashtbl.create 64;
      se_stats =
        {
          hits = 0;
          misses = 0;
          rejects = 0;
          recorded = 0;
          eliminated_cold_cycles = 0;
          eliminated_hot_cycles = 0;
        };
    }
  in
  eng.E.translate_filter <- Some (filter se);
  se

(* A rewound engine replays its translation requests from the first:
   occurrences count from zero again, and so do the stats. *)
let restart se =
  Hashtbl.reset se.se_occ;
  let s = se.se_stats in
  s.hits <- 0;
  s.misses <- 0;
  s.rejects <- 0;
  s.recorded <- 0;
  s.eliminated_cold_cycles <- 0;
  s.eliminated_hot_cycles <- 0

(* ---- AOT sweep ------------------------------------------------------------ *)

(* Statically known successors of a translated block: its fall-through
   plus every direct branch/call target the terminator names. *)
let successors mem (b : B.t) =
  match Ia32el.Discover.decode_bb mem b.B.entry with
  | exception _ -> []
  | bb -> (
    let base = Ia32el.Discover.succs bb in
    match bb.Ia32el.Discover.term with
    | Ia32el.Discover.T_call (target, ret) -> target :: ret :: base
    | Ia32el.Discover.T_syscall (_, next) -> next :: base
    | _ -> base)

let sweep se ~roots ~lo ~hi =
  let eng = se.se_eng in
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  List.iter (fun r -> Queue.add r q) roots;
  let translated = ref 0 in
  while not (Queue.is_empty q) do
    let entry = Queue.pop q in
    if entry >= lo && entry < hi && not (Hashtbl.mem seen entry) then begin
      Hashtbl.replace seen entry ();
      let live () =
        match Ia32el.Cold.translate eng.E.cold_env ~entry ~entry_tos:0 ~stage2:false with
        | b -> Some b
        | exception Ia32el.Cold.Cannot_translate _ -> None
      in
      match
        filter se ~phase:Obs.Trace.Cold ~entry ~entry_tos:0 ~flag:false ~live
      with
      | Some b ->
        incr translated;
        List.iter (fun s -> Queue.add s q) (successors eng.E.mem b)
      | None -> ()
    end
  done;
  !translated
