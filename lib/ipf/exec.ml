(* The IPF execution core: instruction semantics and block programs
   (DESIGN.md §10.1).

   [compile_insn] turns one instruction into a closure over its resolved
   operands; it is the only definition of what an IPF instruction does.
   Everything else here is timing, and almost all of it is a static
   function of the tcache contents, so it is resolved once per issue
   group rather than per executed slot.

   A program is compiled lazily for an entry position (bundle, slot) and
   covers the fall-through chain of issue groups from there: it ends with
   the first group holding an unconditional branch (a translated block
   ends in one), with a group that runs off the end of the tcache, or
   where the next group would start past it. Where each group ends (stop
   bit, intra-group RAW split — both static, since predicated-off slots
   still commit timing), its issue span, retired-slot and
   speculation-check counts, its deduplicated GR/FR sources, its ordered
   write list and the bundle a finished group is charged to are fixed at
   compile time; so are the same aggregates for every prefix of a group.
   At run time the groups run their semantic closures back to back — the
   qualifying-predicate test, the call and a check of the result — and
   between two groups the program only records the dcache-stall counter.
   The whole groups are charged when the program leaves, one by one, each
   as it would have closed ([replay]); [close] is the only definition of
   their timing. Where the program leaves by a taken branch, a cache exit
   or the fall-through off its end, with no charge probe and no dcache
   stall in those groups, the replay is memoized per exit point
   ([charge]): its result depends only on [bucket_of] and on the live-in
   ready cycles relative to the entry cycle, so an exit that finds the
   same [Machine.bucket_gen] and the same relative ready cycles as the
   last replay there adds what that replay did. Then the open group
   settles from the prefix up to the exiting slot, so cycles, buckets,
   counters, [ip]/[slot] and [last_exit] are what a slot-by-slot
   accumulation gives.

   A program is valid while the tcache holds what it was compiled from
   ([held]): the same slots and stop bits, each group ending the same
   way. Every tcache mutation ([append], [patch_slot], [patch_dispatch],
   [invalidate_range], [restore_range], [clear]) bumps the generation; a
   program is checked against the tcache at most once per generation, so
   chain patching or SMC invalidation recompile exactly the programs
   they rewrite, and after a flush a replayed run, which re-installs its
   blocks at the same indices, takes its programs back, as a revived
   block's bundles take back theirs. Inside a program only a store can
   change the tcache (through the engine's write watch); a store that
   did checks the running program the same way. Programs are found only
   through the table of entry positions. Each position keeps its current
   program and the one before it, so a position that alternates between
   two contents (a chain patch that a replayed run meets unpatched first)
   takes both back. Where neither comes back whole, a compile at that
   position is derived from the one of which the tcache still holds
   more leading groups: a chain patch rewrites only a block's last
   groups.

   [reference_run] runs the same closures one fetched slot at a time and
   derives the timing per slot, with [Machine]'s cost primitives. It is
   the oracle test_exec.ml compares the program accounting against:
   simulated cycles, bucket attribution, every stats counter and the
   observable fault/exit behaviour must be bit-identical. *)

module M = Machine

(* Resource ids, flattened: GR 0-127, FR 128-255, PR 256-319, BR 320-327,
   memory 328. Only GR/FR ids (< 256) carry ready cycles. *)
let nres = 329

let enc = function
  | Insn.Rgr r -> r
  | Insn.Rfr f -> 128 + f
  | Insn.Rpr p -> 256 + p
  | Insn.Rbr b -> 320 + b
  | Insn.Rmem -> 328

(* One executed slot of a program. [run] is the slot's [compile_insn]
   closure, which encodes control flow as an int (no variant to
   allocate). Unpredicated nops get no uop at all. *)
type uop = {
  run : unit -> int;
  qp : int; (* -1 = always enabled *)
  at : int; (* slot offset within the program *)
}

(* One issue group of a program: slots [off, off + n) of the program, uops
   [ulo, uhi). A finished group is charged from [span]/[ret]/[spec], the
   sources [slo, shi) and the writes [elo, ehi) of the program's lists, to
   bundle [bundle]. [agg] indexes its prefix aggregates in the program's
   [pre]: for every slot offset o in [0, n], five aggregates of the slots
   before o — issue span (their weight over the issue width, rounded up),
   retired slots, speculation checks, and where their sources and writes
   end in the program's lists. A side exit settles from those. *)
type group = {
  off : int;
  n : int;
  ulo : int;
  uhi : int;
  span : int;
  ret : int;
  spec : int;
  slo : int;
  shi : int;
  elo : int;
  ehi : int;
  bundle : int;
  agg : int;
  stop : bool; (* a stop bit ended the group (not a RAW split, not the end) *)
  nlive : int; (* the program's live-ins the groups before this one read *)
}

(* What [replay] did at an exit after a program's first k whole groups,
   none with a dcache stall, entered at cycle count c0. [key] is what it
   depended on: [Machine.bucket_gen], then, for each live-in the k groups
   read, its ready cycle less c0, clipped at 1. *)
type memo = {
  key : int array;
  cycles : int;
  ngroups : int; (* groups closed *)
  ret : int; (* retired slots *)
  spec : int; (* speculation checks *)
  bks : int array; (* per bucket charged: cycles lsl 3 lor bucket *)
  outs : int array; (* per register written: (ready - c0) lsl 8 lor id *)
}

(* The fall-through chain of groups entered at [lin] = 3 * bundle + slot. *)
type prog = {
  lin : int;
  uops : uop array;
  groups : group array;
  pre : int array;
  srcs : int array; (* distinct GR/FR sources per group, first-read order *)
  evs : int array; (* GR/FR writes per group in slot order: latency lsl 8 lor id *)
  live : int array; (* GR/FR ids read before any group writes them, first-read order *)
  closed : bool; (* false: the last group runs off the end of the tcache *)
  insns : Insn.t array; (* the program's slots: carry, reuse, exit reasons *)
  split : Insn.t option; (* the slot a RAW split ended the last group before *)
  carry : Insn.t array; (* slots of the first group already run *)
  mutable vgen : int; (* tcache generation at the last validation *)
  mutable memos : memo array; (* by whole-group count; [||] until the first *)
}

(* Compile-time scratch: a growable buffer, copied out once per program. *)
type 'a vec = { mutable a : 'a array; mutable len : int }

let vec x = { a = Array.make 256 x; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (2 * v.len) x in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  Array.unsafe_set v.a v.len x;
  v.len <- v.len + 1

let contents v = Array.sub v.a 0 v.len

type t = {
  m : M.t;
  tc : Tcache.t;
  mutable progs : prog array; (* by entry position [lin] *)
  mutable prev : prog array; (* the program [progs] held before *)
  mutable gen : int; (* tcache generation, refreshed after every store *)
  mutable fuel : int;
  mutable cur : prog; (* the program running ... *)
  mutable gi : int; (* ... the index of its group running ... *)
  mutable base : int; (* ... its first whole group not charged yet ... *)
  mutable stalls : int array; (* ... and the dcache-stall counter at the
                                 start of each of its groups so far *)
  mutable k : int; (* index of the uop running, for exception exits *)
  mutable res : int; (* result of the uop that left the group *)
  mutable compiles : int; (* programs compiled *)
  mutable compiled_slots : int; (* slots they cover *)
  mutable memo_hits : int; (* program exits charged from a memo *)
  (* compile-time scratch: epoch-marked write and source sets, one epoch
     per group (the write set also serves a memo's [fill]), and the
     buffers a program is built in *)
  wmark : int array;
  smark : int array;
  mutable epoch : int;
  s_insns : Insn.t vec;
  s_pre : int vec;
  s_srcs : int vec;
  s_evs : int vec;
  (* the live-ins' scratch, one epoch per program: the GR/FR ids its
     groups so far wrote and the live-ins they read *)
  lwmark : int array;
  lrmark : int array;
  mutable pepoch : int;
  s_live : int vec;
}

exception Stale_group

let dummy =
  {
    lin = -1;
    uops = [||];
    groups = [||];
    pre = [||];
    srcs = [||];
    evs = [||];
    closed = true;
    insns = [||];
    split = None;
    carry = [||];
    vgen = -1 (* generations are >= 0: never current *);
    live = [||];
    memos = [||];
  }

let nil_uop = { run = (fun () -> -1); qp = -1; at = 0 }

let create m =
  {
    m;
    tc = m.M.tcache;
    progs = Array.make 3072 dummy;
    prev = Array.make 3072 dummy;
    gen = 0;
    fuel = 0;
    cur = dummy;
    gi = 0;
    base = 0;
    stalls = Array.make 64 0;
    k = 0;
    res = 0;
    compiles = 0;
    compiled_slots = 0;
    memo_hits = 0;
    wmark = Array.make nres 0;
    smark = Array.make nres 0;
    epoch = 0;
    s_insns = vec (Insn.mk (Insn.Nop Insn.I));
    s_pre = vec 0;
    s_srcs = vec 0;
    s_evs = vec 0;
    lwmark = Array.make 256 0;
    lrmark = Array.make 256 0;
    pepoch = 0;
    s_live = vec 0;
  }

(* ---- semantic closures -------------------------------------------------- *)

(* Popcount on the two 32-bit halves as native ints: the Int64 never
   crosses a function boundary, so nothing is boxed per bit. *)
let[@inline] popcnt32 x0 =
  let x = x0 - ((x0 lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24

let[@inline] popcnt64 v =
  popcnt32 (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  + popcnt32 (Int64.to_int (Int64.shift_right_logical v 32))

(* signed / unsigned high 64 bits of a 64x64 product *)
let hi_mul x y =
  let open Int64 in
  let xl = logand x 0xFFFFFFFFL and xh = shift_right x 32 in
  let yl = logand y 0xFFFFFFFFL and yh = shift_right y 32 in
  let ll = mul xl yl in
  let lh = mul xl yh and hl = mul xh yl in
  let hh = mul xh yh in
  let mid = add (add lh hl) (shift_right_logical ll 32) in
  add hh (shift_right mid 32)

let hi_mul_u x y =
  let open Int64 in
  let xl = logand x 0xFFFFFFFFL and xh = shift_right_logical x 32 in
  let yl = logand y 0xFFFFFFFFL and yh = shift_right_logical y 32 in
  let ll = mul xl yl in
  let lh = mul xl yh and hl = mul xh yl in
  let carry =
    shift_right_logical
      (add
         (add (logand lh 0xFFFFFFFFL) (logand hl 0xFFFFFFFFL))
         (shift_right_logical ll 32))
      32
  in
  add
    (add (mul xh yh)
       (add (shift_right_logical lh 32) (shift_right_logical hl 32)))
    carry

(* Module-local register accessors. The build uses -opaque in the dev
   profile, so cross-module calls into [Machine] are never inlined and
   every int64 crossing them is boxed. These copies live in the same
   module as the closures below; Closure inlines them, [gr] is a
   Bigarray, and a computed value goes register-file to register-file
   without touching the minor heap. *)
let[@inline] rget (m : M.t) r =
  if r = 0 then 0L else Bigarray.Array1.unsafe_get m.M.gr r

let[@inline] rget_nat (m : M.t) r =
  r <> 0 && Array.unsafe_get m.M.nat r

let[@inline] rset (m : M.t) r v =
  if r <> 0 then begin
    Bigarray.Array1.unsafe_set m.M.gr r v;
    Array.unsafe_set m.M.nat r false
  end

let[@inline] pset (m : M.t) p v = if p <> 0 then Array.unsafe_set m.M.pr p v

let[@inline] iaddr v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

let[@inline] isx bytes v =
  let sh = 64 - (8 * bytes) in
  Int64.shift_right (Int64.shift_left v sh) sh

let[@inline] izx bytes v =
  if bytes >= 8 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * bytes)) 1L)

let mask_of_len len =
  if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L

(* Inlined into the compiled Cmp/Cmpi closures, so comparison operands
   stay unboxed. *)
let[@inline] eval_cmp rel a b =
  match (rel : Insn.cmp_rel) with
  | Insn.Ceq -> Int64.equal a b
  | Insn.Cne -> not (Int64.equal a b)
  | Insn.Clt -> Int64.compare a b < 0
  | Insn.Cle -> Int64.compare a b <= 0
  | Insn.Cgt -> Int64.compare a b > 0
  | Insn.Cge -> Int64.compare a b >= 0
  | Insn.Cltu -> Int64.unsigned_compare a b < 0
  | Insn.Cleu -> Int64.unsigned_compare a b <= 0
  | Insn.Cgtu -> Int64.unsigned_compare a b > 0
  | Insn.Cgeu -> Int64.unsigned_compare a b >= 0

(* Whether the tcache holds group [g] of [c] from slot offset [o] on: the
   same slots, a stop bit after the last one exactly when a stop bit
   ended the group, and none before. Allocation-free where the slots are
   the very ones compiled from: a warm revert revives a block many
   times. *)
let rec same_slots tc c (g : group) o =
  o >= g.n
  ||
  let lin = c.lin + g.off + o in
  let b = lin / 3 in
  b < Tcache.length tc
  &&
  let bundle = Tcache.get tc b and s = lin - (3 * b) in
  let insn = Array.unsafe_get bundle.Bundle.slots s
  and want = Array.unsafe_get c.insns (g.off + o) in
  (insn == want || insn = want)
  && Array.unsafe_get bundle.Bundle.stops s = (o = g.n - 1 && g.stop)
  && same_slots tc c g (o + 1)

(* Whether the slot at position [lin] lies inside the tcache and reads
   what [want] reads. *)
let reads_same tc lin (want : Insn.t) =
  lin / 3 < Tcache.length tc
  &&
  let insn = (Tcache.get tc (lin / 3)).Bundle.slots.(lin mod 3) in
  insn == want || Insn.reads insn = Insn.reads want

(* How many leading groups of [c], counting from the [i]th, the tcache
   still holds, such that a compile at [c]'s entry would scan them as
   [c]'s were scanned: a group's slots are the same ([same_slots]) and it
   ends the same way. After a stop bit that did not end the program, the
   next slot lies inside the tcache, so the compile went on. Where a RAW
   split ended the group, the slot it split before reads the same
   resources ([reads_same]): the group's writes, its slots' and its
   carry's, are the same. Where the group ran off the end of the tcache,
   the tcache still ends there. [held] is the one answer for taking a
   program back, for deriving one from it and for a store inside it. *)
let rec held_from tc c i =
  let n = Array.length c.groups in
  if i >= n then i
  else
    let g = Array.unsafe_get c.groups i in
    let lin = c.lin + g.off + g.n in
    if
      same_slots tc c g 0
      &&
      if g.stop then i = n - 1 || lin / 3 < Tcache.length tc
      else if i < n - 1 then reads_same tc lin c.insns.(g.off + g.n)
      else
        match c.split with
        | Some want -> reads_same tc lin want
        | None -> lin / 3 >= Tcache.length tc
    then held_from tc c (i + 1)
    else i

let held tc c = held_from tc c 0

(* A store can reach the engine's SMC write watch, which may rewrite
   tcache bundles while the program runs. If the tcache no longer holds
   the running program's groups, the rest of the program must come from
   the new bundles, as a per-slot fetch would see them. With no program
   running ([reference_run]: [dummy], no groups) this never raises. The
   closure reads the running program rather than capturing its own, so a
   derived program ([compile]) shares its closures with the one it was
   derived from. *)
let after_store t =
  let gen = Tcache.generation t.tc in
  if gen <> t.gen then begin
    t.gen <- gen;
    let c = t.cur in
    if held t.tc c < Array.length c.groups then raise Stale_group
  end

(* Guest loads and stores of 1, 2 and 4 bytes go straight to
   [Ia32.Memory] with ints, so no value is boxed on the way; 8-byte ones
   go through [Machine.load64]/[store64]. Misalignment is checked first,
   then the page; a store kills overlapping ALAT entries after its write
   (and after the write watch it may fire). *)
let load_int (m : M.t) ~addr ~size =
  if addr land (size - 1) <> 0 then
    raise (M.Machine_fault (M.F_misalign, addr, size, false));
  match Ia32.Memory.read size m.M.mem addr with
  | v -> v
  | exception Ia32.Fault.Fault _ ->
    raise (M.Machine_fault (M.F_page, addr, size, false))

let store_int (m : M.t) ~addr ~size v =
  if addr land (size - 1) <> 0 then
    raise (M.Machine_fault (M.F_misalign, addr, size, true));
  (match Ia32.Memory.write size m.M.mem addr v with
  | () -> ()
  | exception Ia32.Fault.Fault _ ->
    raise (M.Machine_fault (M.F_page, addr, size, true)));
  M.kill_alat m ~addr ~size

(* Compile one instruction's semantic action into a closure over resolved
   operands. The closure returns its control flow as an int: -1 = fall
   through, -2 = leave the cache (the reason is [exit_of] the
   instruction), n >= 0 = jump to bundle n. *)
let compile_insn t (insn : Insn.t) =
  let m = t.m in
  let open Insn in
  let gf f = M.getf m f in
  let sf d v = M.setf m d v in
  let stats = m.M.stats in
  let cmp_commit ct p1 p2 r =
    match ct with
    | Cnorm | Cunc ->
      pset m p1 r;
      pset m p2 (not r)
    | Cand_ ->
      if not r then begin
        pset m p1 false;
        pset m p2 false
      end
    | Cor_ ->
      if r then begin
        pset m p1 true;
        pset m p2 true
      end
  in
  let taken t =
    stats.M.taken_branches <- stats.M.taken_branches + 1;
    match t with To n -> n | Out _ -> -2
  in
  (* The dcache model's stall, outside the [dc_skip] range: the single
     charge point for all load/store cost. *)
  let dstall addr =
    if addr < m.M.dc_skip_lo || addr >= m.M.dc_skip_hi then
      stats.M.dcache_stall <-
        stats.M.dcache_stall + Dcache.access m.M.dcache addr
  in
  match insn.sem with
  | Add (d, a, b) -> fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d else rset m d (Int64.add (rget m a) (rget m b)));
      -1
  | Sub (d, a, b) -> fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Int64.sub (rget m a) (rget m b)));
      -1
  | Addi (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then M.set_nat m d else rset m d (Int64.add i (rget m a)));
      -1
  | Subi (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Int64.sub i (rget m a)));
      -1
  | And (d, a, b) -> fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Int64.logand (rget m a) (rget m b)));
      -1
  | Or (d, a, b) -> fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Int64.logor (rget m a) (rget m b)));
      -1
  | Xor (d, a, b) -> fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Int64.logxor (rget m a) (rget m b)));
      -1
  | Andcm (d, a, b) -> fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Int64.logand (rget m a) (Int64.lognot (rget m b))));
      -1
  | Andi (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Int64.logand i (rget m a)));
      -1
  | Ori (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Int64.logor i (rget m a)));
      -1
  | Xori (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Int64.logxor i (rget m a)));
      -1
  | Shl (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (let c = Int64.to_int (Int64.logand (rget m b) 127L) in
        if c >= 64 then 0L else Int64.shift_left (rget m a) c));
      -1
  | Shli (d, a, n) ->
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (if n >= 64 then 0L else Int64.shift_left (rget m a) n));
      -1
  | Shru (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (let c = Int64.to_int (Int64.logand (rget m b) 127L) in
        if c >= 64 then 0L else Int64.shift_right_logical (rget m a) c));
      -1
  | Shrui (d, a, n) ->
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (if n >= 64 then 0L else Int64.shift_right_logical (rget m a) n));
      -1
  | Shrs (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (let c = Int64.to_int (Int64.logand (rget m b) 127L) in
        let c = if c > 63 then 63 else c in
        Int64.shift_right (rget m a) c));
      -1
  | Shrsi (d, a, n) ->
    let n = min 63 n in
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Int64.shift_right (rget m a) n));
      -1
  | Dep (d, s, base, pos, len) ->
    (* pos/len are immediates: box the masks once, at compile time *)
    let fmask = mask_of_len len in
    let cmask = Int64.lognot (Int64.shift_left fmask pos) in
    fun () ->
      (if rget_nat m s || rget_nat m base then M.set_nat m d
       else rset m d (let field = Int64.logand (rget m s) fmask in
        let cleared = Int64.logand (rget m base) cmask in
        Int64.logor cleared (Int64.shift_left field pos)));
      -1
  | Depz (d, s, pos, len) ->
    let fmask = mask_of_len len in
    fun () ->
      (if rget_nat m s then M.set_nat m d
       else rset m d (Int64.shift_left (Int64.logand (rget m s) fmask) pos));
      -1
  | Extr (d, s, pos, len) ->
    fun () ->
      (if rget_nat m s then M.set_nat m d
       else rset m d (Int64.shift_right (Int64.shift_left (rget m s) (64 - pos - len)) (64 - len)));
      -1
  | Extru (d, s, pos, len) ->
    let fmask = mask_of_len len in
    fun () ->
      (if rget_nat m s then M.set_nat m d
       else rset m d (Int64.logand (Int64.shift_right_logical (rget m s) pos) fmask));
      -1
  | Sxt (d, s, n) -> fun () ->
      (if rget_nat m s then M.set_nat m d
       else rset m d (isx n (rget m s)));
      -1
  | Zxt (d, s, n) -> fun () ->
      (if rget_nat m s then M.set_nat m d
       else rset m d (izx n (rget m s)));
      -1
  | Mov (d, s) ->
    (* moves propagate NaT as a value move (like mov through add r0) *)
    fun () ->
      (if rget_nat m s then M.set_nat m d else rset m d (rget m s));
      -1
  | Movi (d, v) ->
    fun () ->
      rset m d v;
      -1
  | Mix (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Int64.logor
          (Int64.shift_left (Int64.logand (rget m a) 0xFFFFFFFFL) 32)
          (Int64.logand (rget m b) 0xFFFFFFFFL)));
      -1
  | Popcnt (d, s) -> fun () ->
      (if rget_nat m s then M.set_nat m d
       else rset m d (Int64.of_int (popcnt64 (rget m s))));
      -1
  | Xma (d, a, b, c) | Xmau (d, a, b, c) ->
    fun () ->
      (if rget_nat m a || rget_nat m b || rget_nat m c then M.set_nat m d
       else rset m d (Int64.add (Int64.mul (rget m a) (rget m b)) (rget m c)));
      -1
  | Xmah (d, a, b, c) -> fun () ->
      (if rget_nat m a || rget_nat m b || rget_nat m c then M.set_nat m d
       else rset m d (Int64.add (hi_mul (rget m a) (rget m b)) (rget m c)));
      -1
  | Xmahu (d, a, b, c) ->
    fun () ->
      (if rget_nat m a || rget_nat m b || rget_nat m c then M.set_nat m d
       else rset m d (Int64.add (hi_mul_u (rget m a) (rget m b)) (rget m c)));
      -1
  | Divs (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.div (rget m a) (rget m b)));
      -1
  | Divu (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.unsigned_div (rget m a) (rget m b)));
      -1
  | Rems (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.rem (rget m a) (rget m b)));
      -1
  | Remu (d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.unsigned_rem (rget m a) (rget m b)));
      -1
  | Padd (w, d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w Int64.add (rget m a) (rget m b)));
      -1
  | Psub (w, d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w Int64.sub (rget m a) (rget m b)));
      -1
  | Pmull (w, d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w Int64.mul (rget m a) (rget m b)));
      -1
  | Pcmpeq (w, d, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w
          (fun x y -> if Int64.equal x y then -1L else 0L)
          (rget m a) (rget m b)));
      -1
  | Pshli (w, d, a, n) ->
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w
          (fun x _ -> if n >= w * 8 then 0L else Int64.shift_left x n)
          (rget m a) 0L));
      -1
  | Pshri (w, d, a, n) ->
    fun () ->
      (if rget_nat m a then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w
          (fun x _ -> if n >= w * 8 then 0L else Int64.shift_right_logical x n)
          (rget m a) 0L));
      -1
  | Cmp (rel, ct, p1, p2, a, b) ->
    fun () ->
      (if rget_nat m a || rget_nat m b then begin
         (* NaT source: both targets cleared (IPF behaviour) *)
         pset m p1 false;
         pset m p2 false
       end
       else cmp_commit ct p1 p2 (eval_cmp rel (rget m a) (rget m b)));
      -1
  | Cmpi (rel, ct, p1, p2, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then begin
         pset m p1 false;
         pset m p2 false
       end
       else cmp_commit ct p1 p2 (eval_cmp rel i (rget m a)));
      -1
  | Tbit (p1, p2, a, pos) ->
    fun () ->
      (if rget_nat m a then begin
         pset m p1 false;
         pset m p2 false
       end
       else begin
         let bit =
           Int64.logand (Int64.shift_right_logical (rget m a) pos) 1L
           |> Int64.equal 1L
         in
         pset m p1 bit;
         pset m p2 (not bit)
       end);
      -1
  | Setp (p, v) ->
    fun () ->
      pset m p v;
      -1
  | Movpr (d, mask) ->
    fun () ->
      let v = ref 0L in
      for p = 63 downto 0 do
        v := Int64.shift_left !v 1;
        if M.getp m p then v := Int64.logor !v 1L
      done;
      rset m d (Int64.logand !v mask);
      -1
  | Prmov src ->
    fun () ->
      let v = rget m src in
      for p = 1 to 63 do
        pset m p
          (Int64.logand (Int64.shift_right_logical v p) 1L |> Int64.equal 1L)
      done;
      -1
  | Ld (size, spec, d, a) ->
    let is_spec = spec = Ld_s || spec = Ld_sa in
    let is_adv = spec = Ld_a || spec = Ld_sa in
    fun () ->
      if rget_nat m a then
        if is_spec then begin
          M.set_nat m d;
          (* a stale ALAT entry for d must not let a later chk.a pass *)
          Hashtbl.remove m.M.alat d;
          -1
        end
        else raise (M.Machine_fault (M.F_nat, 0, size, false))
      else begin
        let addr = iaddr (rget m a) in
        stats.M.loads <- stats.M.loads + 1;
        match
          if size = 8 then rset m d (M.load64 m ~addr)
          else rset m d (Int64.of_int (load_int m ~addr ~size))
        with
        | () ->
          dstall addr;
          if is_adv then Hashtbl.replace m.M.alat d (addr, size);
          -1
        | exception M.Machine_fault (k, fa, fs, st) ->
          if is_spec then begin
            M.set_nat m d;
            Hashtbl.remove m.M.alat d;
            -1
          end
          else raise (M.Machine_fault (k, fa, fs, st))
      end
  | St (size, a, v) ->
    fun () ->
      if rget_nat m a || rget_nat m v then
        raise (M.Machine_fault (M.F_nat, 0, size, true));
      let addr = iaddr (rget m a) in
      stats.M.stores <- stats.M.stores + 1;
      if size = 8 then M.store64 m ~addr (rget m v)
      else store_int m ~addr ~size (Int64.to_int (rget m v));
      dstall addr;
      after_store t;
      -1
  | Chk_s (r, t) -> fun () -> if rget_nat m r then taken t else -1
  | Chk_a (r, t) -> fun () -> if Hashtbl.mem m.M.alat r then -1 else taken t
  | Invala ->
    fun () ->
      Hashtbl.reset m.M.alat;
      -1
  | Ldf (size, d, a) ->
    fun () ->
      if rget_nat m a then raise (M.Machine_fault (M.F_nat, 0, size, false))
      else begin
        let addr = iaddr (rget m a) in
        stats.M.loads <- stats.M.loads + 1;
        (if size = 4 then
           sf d (Ia32.Fpconv.f32_of_bits (load_int m ~addr ~size))
         else sf d (Ia32.Fpconv.f64_of_bits (M.load64 m ~addr)));
        dstall addr;
        -1
      end
  | Stf (size, a, v) ->
    fun () ->
      if rget_nat m a then raise (M.Machine_fault (M.F_nat, 0, size, true));
      let addr = iaddr (rget m a) in
      stats.M.stores <- stats.M.stores + 1;
      (if size = 4 then
         store_int m ~addr ~size (Ia32.Fpconv.bits_of_f32 (gf v))
       else M.store64 m ~addr (Ia32.Fpconv.bits_of_f64 (gf v)));
      dstall addr;
      after_store t;
      -1
  | Fadd (d, a, b) ->
    fun () ->
      sf d (gf a +. gf b);
      -1
  | Fsub (d, a, b) ->
    fun () ->
      sf d (gf a -. gf b);
      -1
  | Fmul (d, a, b) ->
    fun () ->
      sf d (gf a *. gf b);
      -1
  | Fma (d, a, b, c) ->
    fun () ->
      sf d ((gf a *. gf b) +. gf c);
      -1
  | Fdiv (d, a, b) ->
    fun () ->
      sf d (gf a /. gf b);
      -1
  | Fsqrt (d, a) ->
    fun () ->
      sf d (Float.sqrt (gf a));
      -1
  | Fneg (d, a) ->
    fun () ->
      sf d (-.gf a);
      -1
  | Fabs_ (d, a) ->
    fun () ->
      sf d (Float.abs (gf a));
      -1
  | Fmov (d, a) ->
    fun () ->
      sf d (gf a);
      -1
  | Frint (d, a) ->
    fun () ->
      sf d (Ia32.Fpconv.rint (gf a));
      -1
  | Fmin (d, a, b) ->
    fun () ->
      let x = gf a and y = gf b in
      sf d
        (if Float.is_nan x || Float.is_nan y then y
         else if x < y then x
         else y);
      -1
  | Fmax (d, a, b) ->
    fun () ->
      let x = gf a and y = gf b in
      sf d
        (if Float.is_nan x || Float.is_nan y then y
         else if x > y then x
         else y);
      -1
  | Fcmp (rel, p1, p2, a, b) ->
    fun () ->
      let x = gf a and y = gf b in
      let r =
        match rel with
        | Feq -> x = y
        | Flt -> x < y
        | Fle -> x <= y
        | Funord -> Float.is_nan x || Float.is_nan y
      in
      pset m p1 r;
      pset m p2 (not r);
      -1
  | Fcvt_xf (d, a) ->
    fun () ->
      sf d (Int64.to_float (rget m a));
      -1
  | Fcvt_fx (d, a) ->
    fun () ->
      rset m d (Int64.of_float (Ia32.Fpconv.rint (gf a)));
      -1
  | Fcvt_fxt (d, a) ->
    fun () ->
      rset m d (Int64.of_float (Float.trunc (gf a)));
      -1
  | Fcvt_32 (d, a) ->
    fun () ->
      sf d (Ia32.Fpconv.f32_of_bits (Ia32.Fpconv.bits_of_f32 (gf a)));
      -1
  | Getf_s (d, a) ->
    fun () ->
      rset m d (Int64.of_int (Ia32.Fpconv.bits_of_f32 (gf a)));
      -1
  | Getf_d (d, a) ->
    fun () ->
      rset m d (Ia32.Fpconv.bits_of_f64 (gf a));
      -1
  | Setf_s (d, a) ->
    fun () ->
      if rget_nat m a then raise (M.Machine_fault (M.F_nat, 0, 4, false));
      sf d
        (Ia32.Fpconv.f32_of_bits
           (Int64.to_int (Int64.logand (rget m a) 0xFFFFFFFFL)));
      -1
  | Setf_d (d, a) ->
    fun () ->
      if rget_nat m a then raise (M.Machine_fault (M.F_nat, 0, 8, false));
      sf d (Ia32.Fpconv.f64_of_bits (rget m a));
      -1
  | Br t -> fun () -> taken t
  | Br_ind b ->
    fun () ->
      stats.M.taken_branches <- stats.M.taken_branches + 1;
      m.M.br.(b)
  | Mov_to_br (b, a) ->
    fun () ->
      m.M.br.(b) <- Int64.to_int (rget m a);
      -1
  | Mov_from_br (d, b) ->
    fun () ->
      rset m d (Int64.of_int m.M.br.(b));
      -1
  | Hotc (s, threshold, _) ->
    let hotc = m.M.hotc in
    fun () ->
      let c = hotc.(s) + 1 in
      if c >= threshold then begin
        hotc.(s) <- 0;
        stats.M.taken_branches <- stats.M.taken_branches + 1;
        -2
      end
      else begin
        hotc.(s) <- c;
        -1
      end
  | Edgec s ->
    let edgec = m.M.edgec in
    fun () ->
      let c = edgec.(s) in
      if c < M.edgec_saturate then edgec.(s) <- c + 1;
      -1
  | Nop _ -> fun () -> -1
(* ---- program compilation ----------------------------------------------- *)

let is_nop (insn : Insn.t) =
  match insn.Insn.sem with Insn.Nop _ -> true | _ -> false

(* Why a slot whose closure returned -2 left the cache. *)
let exit_of (insn : Insn.t) =
  match insn.Insn.sem with
  | Insn.Br (Insn.Out r) | Insn.Chk_s (_, Insn.Out r) | Insn.Chk_a (_, Insn.Out r)
    ->
    Some r
  | Insn.Hotc (_, _, id) -> Some (Insn.Heat id)
  | _ -> None

(* A slot that always leaves: no later slot of its program can run. *)
let unconditional (insn : Insn.t) =
  (match insn.Insn.qp with None | Some 0 -> true | Some _ -> false)
  && match insn.Insn.sem with Insn.Br _ | Insn.Br_ind _ -> true | _ -> false

(* How a group scan ended. *)
type ending = Stop | Split of Insn.t | Open

(* Compile the program entered at [lin0]. Each group ends at a stop bit,
   before a slot that reads something the group already wrote (a RAW
   split; predicate and memory resources count), or where the tcache
   ends. [carry] are slots of the first group that already ran — a
   mid-group restart after a store rewrote bundles of the program: they
   count in the aggregates but run no uops. The scratch buffers in [t]
   collect everything and are copied out once, so a compiled slot costs
   its closure, its uop and its share of the arrays. With [from] =
   ([d], n), the program is derived from [d], a program entered at
   [lin0] whose first n groups the tcache still holds ([held]): those
   groups' records, aggregates and uops are taken over, and the scan
   starts at the group after them. Alongside the groups the compile
   collects the program's live-ins, the GR/FR ids a group reads before
   any earlier group of the program writes them, for the exit memos
   ([charge]). *)
let compile t ?(from = (dummy, 0)) ~carry lin0 =
  let m = t.m and tc = t.tc in
  let slots = m.M.cost.Cost.issue_slots in
  let ins = t.s_insns and pre = t.s_pre and srcs = t.s_srcs in
  let evs = t.s_evs and live = t.s_live in
  List.iter (fun v -> v.len <- 0) [ pre; srcs; evs; live ];
  ins.len <- 0;
  t.pepoch <- t.pepoch + 1;
  let pe = t.pepoch in
  let groups = ref [] in
  let nu = ref 0 and closed = ref true and split = ref None in
  (* group [g] is done: its sources not written before are live-ins, and
     its writes are written from now on *)
  let track (g : group) =
    for i = g.slo to g.shi - 1 do
      let r = srcs.a.(i) in
      if t.lwmark.(r) <> pe && t.lrmark.(r) <> pe then begin
        t.lrmark.(r) <- pe;
        push live r
      end
    done;
    for e = g.elo to g.ehi - 1 do
      t.lwmark.(evs.a.(e) land 255) <- pe
    done
  in
  (* scan the group at program offset [off]; returns the offset of the
     next group, or -1 where the program ends *)
  let group off ~first =
    t.epoch <- t.epoch + 1;
    let ep = t.epoch in
    let w = ref 0 and ret = ref 0 and spec = ref 0 and leaves = ref false in
    let slo = srcs.len and elo = evs.len and p0 = pre.len and ulo = !nu in
    let account insn reads =
      w := !w + M.slot_weight insn;
      List.iter
        (fun r ->
          let e = enc r in
          if e < 256 && t.smark.(e) <> ep then begin
            t.smark.(e) <- ep;
            push srcs e
          end)
        reads;
      let lat = M.latency_of m insn in
      List.iter
        (fun r ->
          let e = enc r in
          t.wmark.(e) <- ep;
          if e < 256 then push evs ((lat lsl 8) lor e))
        (Insn.writes insn)
    in
    if first then Array.iter (fun insn -> account insn (Insn.reads insn)) carry;
    let record () =
      push pre ((!w + slots - 1) / slots);
      push pre !ret;
      push pre !spec;
      push pre srcs.len;
      push pre evs.len
    in
    let rec scan o =
      record ();
      let lin = lin0 + off + o in
      let b = lin / 3 and s = lin mod 3 in
      if (o > 0 || Array.length carry > 0) && b >= Tcache.length tc then
        (o, Open)
      else begin
        (* at the entry an out-of-range index raises, like a fetch *)
        let bundle = Tcache.get tc b in
        let insn = bundle.Bundle.slots.(s) in
        let reads = Insn.reads insn in
        if List.exists (fun r -> t.wmark.(enc r) = ep) reads then (o, Split insn)
        else begin
          account insn reads;
          if not (is_nop insn) then begin
            incr ret;
            incr nu
          end;
          (match insn.Insn.sem with
          | Insn.Br (Insn.Out (Insn.Spec_fail _)) -> incr spec
          | _ -> ());
          if unconditional insn then leaves := true;
          push ins insn;
          if bundle.Bundle.stops.(s) then begin
            record ();
            (o + 1, Stop)
          end
          else scan (o + 1)
        end
      end
    in
    let n, ending = scan 0 in
    let q = p0 + (5 * n) in
    let shi = pre.a.(q + 3) in
    let g =
      {
        off;
        n;
        ulo;
        uhi = !nu;
        span = pre.a.(q);
        ret = pre.a.(q + 1);
        spec = pre.a.(q + 2);
        slo;
        shi;
        elo;
        ehi = pre.a.(q + 4);
        bundle = (lin0 + off + n) / 3;
        agg = p0;
        stop = (match ending with Stop -> true | Split _ | Open -> false);
        nlive = live.len;
      }
    in
    groups := g :: !groups;
    track g;
    match ending with
    | Open ->
      closed := false;
      -1
    | Split x when !leaves ->
      split := Some x;
      -1
    | Split _ -> off + n
    | Stop ->
      if (not !leaves) && (lin0 + off + n) / 3 < Tcache.length tc then off + n
      else -1
  in
  let rec chain off ~first =
    let next = group off ~first in
    if next >= 0 then chain next ~first:false
  in
  let d, shared = from in
  let off0 =
    if shared = 0 then 0
    else begin
      let g = d.groups.(shared - 1) in
      let off = g.off + g.n in
      let take v a n =
        for i = 0 to n - 1 do
          push v (Array.unsafe_get a i)
        done
      in
      take ins d.insns off;
      take pre d.pre (g.agg + (5 * (g.n + 1)));
      take srcs d.srcs g.shi;
      take evs d.evs g.ehi;
      for i = 0 to shared - 1 do
        let g = d.groups.(i) in
        groups := g :: !groups;
        track g
      done;
      nu := g.uhi;
      off
    end
  in
  chain off0 ~first:(shared = 0);
  let groups = Array.of_list (List.rev !groups) in
  let insns = contents ins in
  let uops = Array.make !nu nil_uop in
  let shared_uops = if shared = 0 then 0 else d.groups.(shared - 1).uhi in
  Array.blit d.uops 0 uops 0 shared_uops;
  let k = ref shared_uops in
  Array.iteri
    (fun o insn ->
      if o >= off0 && not (is_nop insn) then begin
        uops.(!k) <-
          {
            run = compile_insn t insn;
            qp = (match insn.Insn.qp with Some p when p <> 0 -> p | _ -> -1);
            at = o;
          };
        incr k
      end)
    insns;
  t.compiles <- t.compiles + 1;
  t.compiled_slots <- t.compiled_slots + Array.length insns - off0;
  let grow a n =
    if Array.length a >= n then a
    else begin
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  t.stalls <- grow t.stalls (Array.length groups + 1);
  {
    lin = lin0;
    uops;
    groups;
    pre = contents pre;
    srcs = contents srcs;
    evs = contents evs;
    live = contents live;
    closed = !closed;
    insns;
    split = !split;
    carry;
    vgen = t.gen;
    memos = [||];
  }

(* ---- running ----------------------------------------------------------- *)

let[@inline] set_pos (m : M.t) lin =
  m.M.ip <- lin / 3;
  m.M.slot <- lin mod 3

(* Whether the tcache holds all of [c], so that a compile at its entry
   would give [c] again. Only a program that closed and has no carry
   depends on nothing else: not on the end of the tcache, nor on slots
   run before its entry. [dummy] (closed, no groups) never does. *)
let same_content tc c =
  c != dummy && c.closed && Array.length c.carry = 0
  && held tc c = Array.length c.groups

(* [c], checked against the tcache at most once per generation. *)
let[@inline] valid t c =
  c.vgen = t.gen
  || same_content t.tc c
     && begin
       c.vgen <- t.gen;
       true
     end

(* How many leading groups a compile at [c]'s entry takes over from [c]:
   those the tcache still holds, its last excluded. A chain patch
   rewrites a block's exits, in its last groups: the program for the
   patched block is derived from the unpatched one ([compile]'s
   [from]). *)
let shared tc c = max 0 (min (held tc c) (Array.length c.groups - 1))

(* The validated program entered at [lin]: the current one, else the
   previous one taken back (the two swap), else a compile, which demotes
   the current one. The compile is derived from whichever of the two
   shares more leading groups with the tcache. [ip]/[slot] point at
   [lin] first, so an out-of-range index raises through [Tcache.get]
   exactly where [reference_run]'s fetch would. *)
let prog_at t lin =
  if
    lin >= 0
    && lin < Array.length t.progs
    && (valid t (Array.unsafe_get t.progs lin)
       ||
       let p = Array.unsafe_get t.prev lin in
       valid t p
       && begin
         t.prev.(lin) <- t.progs.(lin);
         t.progs.(lin) <- p;
         true
       end)
  then Array.unsafe_get t.progs lin
  else begin
    set_pos t.m lin;
    let from =
      if lin < 0 || lin >= Array.length t.progs then (dummy, 0)
      else
        let c = t.progs.(lin) and p = t.prev.(lin) in
        let kc = shared t.tc c and kp = shared t.tc p in
        if kp > kc then (p, kp) else (c, kc)
    in
    let c = compile t ~from ~carry:[||] lin in
    let len = Array.length t.progs in
    if lin >= len then begin
      let grow a =
        let b = Array.make (max (2 * len) (lin + 1)) dummy in
        Array.blit a 0 b 0 len;
        b
      in
      t.progs <- grow t.progs;
      t.prev <- grow t.prev
    end;
    t.prev.(lin) <- t.progs.(lin);
    t.progs.(lin) <- c;
    c
  end

(* [prog_at] with the table probe inlined and a program already checked
   this generation taken as it is: what a taken branch or a fall-through
   off a program's end pays. *)
let[@inline] lookup t lin =
  if lin >= 0 && lin < Array.length t.progs then
    let c = Array.unsafe_get t.progs lin in
    if c.vgen = t.gen then c else prog_at t lin
  else prog_at t lin

(* The ready cycle of GR/FR id [r]. *)
let[@inline] ready (m : M.t) r =
  if r < 128 then Array.unsafe_get m.M.ready r
  else Array.unsafe_get m.M.fready (r - 128)

let[@inline] set_ready (m : M.t) r v =
  if r < 128 then Array.unsafe_set m.M.ready r v
  else Array.unsafe_set m.M.fready (r - 128) v

(* Close a group of [c]: issue span [span], sources [g.slo, shi), writes
   [g.elo, ehi), [extra] dcache-stall cycles, charged to bundle [ip].
   [M.close_group]'s accounting, replicated locally: the build's -opaque
   keeps cross-module calls opaque. *)
let[@inline] close t c (g : group) ~span ~shi ~ehi ip extra =
  if span > 0 then begin
    let m = t.m in
    let stats = m.M.stats in
    let issue = ref (stats.M.cycles + 1) in
    let srcs = c.srcs in
    for i = g.slo to shi - 1 do
      let v = ready m (Array.unsafe_get srcs i) in
      if v > !issue then issue := v
    done;
    let issue = !issue in
    let delta = issue + span - 1 + extra - stats.M.cycles in
    if delta > 0 then begin
      stats.M.cycles <- stats.M.cycles + delta;
      let bo = m.M.bucket_of in
      let b = if ip < Array.length bo then Array.unsafe_get bo ip land 7 else 0 in
      let bk = m.M.buckets in
      Array.unsafe_set bk b (Array.unsafe_get bk b + delta);
      match m.M.charge_probe with Some f -> f ip delta | None -> ()
    end;
    stats.M.groups <- stats.M.groups + 1;
    let evs = c.evs in
    for e = g.elo to ehi - 1 do
      let x = Array.unsafe_get evs e in
      set_ready m (x land 255) (issue + (x lsr 8))
    done
  end

(* Close a group after its first slots, from the prefix aggregates:
   weight and sources up to offset [ow], writes up to offset [oe] (a
   faulting slot issues but commits nothing). *)
let settle t c (g : group) ~ow ~oe ip extra =
  let pre = c.pre in
  close t c g
    ~span:pre.(g.agg + (5 * ow))
    ~shi:pre.(g.agg + (5 * ow) + 3)
    ~ehi:pre.(g.agg + (5 * oe) + 4)
    ip extra

(* Retired-slot and speculation-check counts of a group's first slots. *)
let count t c (g : group) ~oret ~ospec =
  let stats = t.m.M.stats in
  stats.M.slots_retired <- stats.M.slots_retired + c.pre.(g.agg + (5 * oret) + 1);
  stats.M.spec_checks <- stats.M.spec_checks + c.pre.(g.agg + (5 * ospec) + 2)

(* The dcache-stall cycles of the open group [gi] so far. *)
let[@inline] stall t gi =
  t.m.M.stats.M.dcache_stall - Array.unsafe_get t.stalls gi

(* Charge the whole groups of [c] before group [k] not charged yet, one
   by one, as each would have closed when it ended: the one fallback. *)
let replay t c k =
  let stats = t.m.M.stats and st = t.stalls in
  for gi = t.base to k - 1 do
    let g = Array.unsafe_get c.groups gi in
    stats.M.slots_retired <- stats.M.slots_retired + g.ret;
    stats.M.spec_checks <- stats.M.spec_checks + g.spec;
    close t c g ~span:g.span ~shi:g.shi ~ehi:g.ehi g.bundle
      (Array.unsafe_get st (gi + 1) - Array.unsafe_get st gi)
  done;
  if k > t.base then t.base <- k

(* Whether [x] was recorded under the key the machine shows now, entered
   at cycle count [c0]: from live-in [i - 1] of [c] on. *)
let rec same_key m c (x : memo) c0 i =
  i = Array.length x.key
  || (let d = ready m (Array.unsafe_get c.live (i - 1)) - c0 in
      (if d < 1 then 1 else d) = Array.unsafe_get x.key i)
     && same_key m c x c0 (i + 1)

(* Charge what [x] records of [c]'s first [k] whole groups. *)
let apply t (x : memo) c0 =
  let m = t.m in
  let stats = m.M.stats and bk = m.M.buckets in
  stats.M.cycles <- c0 + x.cycles;
  for i = 0 to Array.length x.bks - 1 do
    let v = Array.unsafe_get x.bks i in
    Array.unsafe_set bk (v land 7) (Array.unsafe_get bk (v land 7) + (v lsr 3))
  done;
  for i = 0 to Array.length x.outs - 1 do
    let v = Array.unsafe_get x.outs i in
    set_ready m (v land 255) (c0 + (v lsr 8))
  done;
  stats.M.groups <- stats.M.groups + x.ngroups;
  stats.M.slots_retired <- stats.M.slots_retired + x.ret;
  stats.M.spec_checks <- stats.M.spec_checks + x.spec;
  t.memo_hits <- t.memo_hits + 1

(* No memo yet: its key matches no [Machine.bucket_gen]. *)
let no_memo =
  { key = [| -1 |]; cycles = 0; ngroups = 0; ret = 0; spec = 0; bks = [||]; outs = [||] }

(* Replay [c]'s first [k] whole groups and record what that did, under
   the key read before it. *)
let fill t c k c0 =
  let m = t.m in
  let stats = m.M.stats in
  let nl =
    if k < Array.length c.groups then (Array.unsafe_get c.groups k).nlive
    else Array.length c.live
  in
  let key = Array.make (nl + 1) m.M.bucket_gen in
  for i = 1 to nl do
    key.(i) <- max 1 (ready m c.live.(i - 1) - c0)
  done;
  let bk0 = Array.copy m.M.buckets and groups0 = stats.M.groups in
  let ret0 = stats.M.slots_retired and spec0 = stats.M.spec_checks in
  replay t c k;
  let bks = ref [] and outs = ref [] in
  Array.iteri
    (fun b n -> if n > bk0.(b) then bks := ((n - bk0.(b)) lsl 3) lor b :: !bks)
    m.M.buckets;
  t.epoch <- t.epoch + 1;
  for e = 0 to c.groups.(k - 1).ehi - 1 do
    let r = c.evs.(e) land 255 in
    if t.wmark.(r) <> t.epoch then begin
      t.wmark.(r) <- t.epoch;
      outs := ((ready m r - c0) lsl 8) lor r :: !outs
    end
  done;
  if Array.length c.memos = 0 then
    c.memos <- Array.make (Array.length c.groups + 1) no_memo;
  c.memos.(k) <-
    {
      key;
      cycles = stats.M.cycles - c0;
      ngroups = stats.M.groups - groups0;
      ret = stats.M.slots_retired - ret0;
      spec = stats.M.spec_checks - spec0;
      bks = Array.of_list !bks;
      outs = Array.of_list !outs;
    }

(* Charge [c]'s whole groups before group [k], where the program leaves
   by a taken branch, a cache exit or off its end. Where none of them is
   charged yet, no charge probe sees each group and no dcache stall fell
   in them, their charge depends only on the cycle count c0, which
   nothing moved since the entry, on [bucket_of] and on the ready cycles
   of the live-ins they read; and a shift of c0 and those ready cycles
   shifts every result alike, while a live-in ready by c0 + 1 holds up
   no group. So the memo of the last such exit after [k] groups charges
   them when its key holds; else they replay and refill it. *)
let charge t c k =
  if t.base < k then
    if
      t.base = 0
      && Array.unsafe_get t.stalls k = Array.unsafe_get t.stalls 0
      && match t.m.M.charge_probe with None -> true | Some _ -> false
    then begin
      let m = t.m in
      let c0 = m.M.stats.M.cycles in
      let x = if Array.length c.memos = 0 then no_memo else Array.unsafe_get c.memos k in
      if Array.unsafe_get x.key 0 = m.M.bucket_gen && same_key m c x c0 1 then begin
        apply t x c0;
        t.base <- k
      end
      else fill t c k c0
    end
    else replay t c k

let sync t = replay t t.cur t.gi

(* Run uop [i] unless its predicate is off: whether the group goes on. *)
let[@inline] step t (pr : bool array) uops i =
  let u = Array.unsafe_get uops i in
  (u.qp >= 0 && not (Array.unsafe_get pr u.qp))
  || begin
    t.k <- i;
    let r = u.run () in
    r = -1
    || begin
      t.res <- r;
      false
    end
  end

(* A group's straight-line body: run uops [lo, lim) until one leaves.
   Inlined: most groups hold one or two uops, so a call per group
   costs as much as the loop. *)
let[@inline] exec t pr uops lo lim =
  let i = ref lo in
  while !i < lim && step t pr uops !i do
    incr i
  done;
  !i

(* uops of slots before program offset [f]: what the remaining fuel covers *)
let rec fuel_lim uops f i =
  if i < Array.length uops && (Array.unsafe_get uops i).at < f then
    fuel_lim uops f (i + 1)
  else i

(* How [groups] left a program (a side exit returns its uop's index). *)
let fuel_inside = -1 (* the fuel ran out inside group [t.gi] *)
let fuel_after = -2 (* ... at the end of group [t.gi] *)
let fell_through = -3 (* the last group finished *)
let ran_off = -4 (* the last group ran off the end of the tcache *)

(* Run [c]'s groups from [gi] on while each runs to its end: between two
   groups only the dcache-stall counter is recorded, and a finished
   group is charged then only for a charge probe, which sees every group
   as it ends. [t.gi] says which group is open, for the exits. *)
let rec groups t c gi =
  let g = Array.unsafe_get c.groups gi in
  t.gi <- gi;
  let f = t.fuel in
  if f < g.n then begin
    let lim = fuel_lim c.uops (g.off + f) g.ulo in
    let x = exec t t.m.M.pr c.uops g.ulo lim in
    if x < lim then x else fuel_inside
  end
  else begin
    let x = exec t t.m.M.pr c.uops g.ulo g.uhi in
    if x < g.uhi then x
    else begin
      let m = t.m in
      t.fuel <- f - g.n;
      Array.unsafe_set t.stalls (gi + 1) m.M.stats.M.dcache_stall;
      let more = gi + 1 < Array.length c.groups in
      if more || c.closed then begin
        (match m.M.charge_probe with Some _ -> replay t c (gi + 1) | None -> ());
        if f = g.n then fuel_after
        else if more then groups t c (gi + 1)
        else fell_through
      end
      else ran_off
    end
  end

(* Enter program [c], the dcache-stall counter reading [stall0] at the
   start of its first group, and go on until the run stops. Every exit
   charges the whole groups, then settles the open group from the prefix
   aggregates of the slots it got through. *)
let rec enter t c stall0 =
  t.cur <- c;
  t.base <- 0;
  Array.unsafe_set t.stalls 0 stall0;
  match groups t c 0 with
  | x when x >= 0 -> side_exit t c x
  | x when x = fell_through ->
    charge t c (Array.length c.groups);
    let next = lookup t (c.lin + Array.length c.insns) in
    enter t next t.m.M.stats.M.dcache_stall
  | x when x = fuel_after ->
    replay t c (t.gi + 1);
    let g = Array.unsafe_get c.groups t.gi in
    set_pos t.m (c.lin + g.off + g.n);
    M.Fuel
  | x when x = fuel_inside ->
    let gi = t.gi in
    replay t c gi;
    let g = Array.unsafe_get c.groups gi in
    let f = t.fuel and glin = c.lin + g.off in
    t.fuel <- 0;
    count t c g ~oret:f ~ospec:f;
    settle t c g ~ow:f ~oe:f ((glin + f) / 3) (stall t gi);
    set_pos t.m (glin + f);
    M.Fuel
  | _ ->
    (* the last group runs past the last bundle: [reference_run]'s next
       fetch raises with the group still open *)
    let gi = t.gi in
    replay t c gi;
    let g = Array.unsafe_get c.groups gi in
    count t c g ~oret:g.n ~ospec:g.n;
    let next = c.lin + g.off + g.n in
    set_pos t.m next;
    if t.fuel <= 0 then begin
      close t c g ~span:g.span ~shi:g.shi ~ehi:g.ehi g.bundle (stall t gi);
      M.Fuel
    end
    else begin
      ignore (Tcache.get t.tc (next / 3));
      assert false
    end
  | exception M.Machine_fault (kind, addr, size, store) ->
    let gi = t.gi in
    replay t c gi;
    let g = Array.unsafe_get c.groups gi in
    let o = c.uops.(t.k).at - g.off and glin = c.lin + g.off in
    count t c g ~oret:o ~ospec:(o + 1);
    settle t c g ~ow:(o + 1) ~oe:o ((glin + o) / 3) (stall t gi);
    let m = t.m in
    set_pos m (glin + o);
    M.Faulted { M.kind; addr; size; store; ip = m.M.ip; slot = m.M.slot }
  | exception Stale_group -> stale t c
  | exception e ->
    (* the open group is dropped, as when [reference_run] unwinds *)
    replay t c t.gi;
    let g = Array.unsafe_get c.groups t.gi in
    let o = c.uops.(t.k).at - g.off in
    count t c g ~oret:o ~ospec:(o + 1);
    set_pos t.m (c.lin + g.off + o);
    raise e

(* A store rewrote bundles of [c]: the rest comes from the new contents. *)
and stale t c =
  let gi = t.gi in
  replay t c gi;
  let stall0 = Array.unsafe_get t.stalls gi in
  let g = Array.unsafe_get c.groups gi in
  let o = c.uops.(t.k).at - g.off + 1 and glin = c.lin + g.off in
  t.fuel <- t.fuel - o;
  count t c g ~oret:o ~ospec:o;
  if o = g.n && g.stop then begin
    (* the stop bit after the store, fetched before it ran, closes the
       group: it is done, and the next one starts a fresh program *)
    close t c g ~span:g.span ~shi:g.shi ~ehi:g.ehi g.bundle (stall t gi);
    t.base <- gi + 1;
    if t.fuel <= 0 then begin
      set_pos t.m (glin + o);
      M.Fuel
    end
    else enter t (prog_at t (glin + o)) t.m.M.stats.M.dcache_stall
  end
  else begin
    (* finish the group from the new contents, the slots it ran carried *)
    let run = Array.sub c.insns g.off o in
    let carry = if gi = 0 then Array.append c.carry run else run in
    enter t (compile t ~carry (glin + o)) stall0
  end

and side_exit t c x =
  let m = t.m in
  let gi = t.gi in
  charge t c gi;
  let g = Array.unsafe_get c.groups gi in
  let u = Array.unsafe_get c.uops x in
  let lin = c.lin + u.at in
  let o = u.at - g.off + 1 and ip = lin / 3 in
  t.fuel <- t.fuel - o;
  count t c g ~oret:o ~ospec:o;
  settle t c g ~ow:o ~oe:o ip (stall t gi);
  let r = t.res in
  if r = -2 then begin
    m.M.last_exit <- (ip, lin mod 3);
    (* advance past the exit so a resume continues after it *)
    set_pos m (lin + 1);
    M.Exited (Option.get (exit_of c.insns.(u.at)))
  end
  else begin
    m.M.ip <- ip;
    M.charge m m.M.cost.Cost.taken_branch_penalty;
    (match c.insns.(u.at).Insn.sem with
    | Insn.Br_ind _ -> M.charge m m.M.cost.Cost.indirect_branch_penalty
    | _ -> ());
    m.M.ip <- r;
    m.M.slot <- 0;
    if t.fuel <= 0 then M.Fuel
    else enter t (lookup t (3 * r)) m.M.stats.M.dcache_stall
  end

let run ?(fuel = max_int) t =
  let m = t.m in
  t.gen <- Tcache.generation t.tc;
  t.fuel <- fuel;
  if fuel <= 0 then M.Fuel
  else enter t (prog_at t ((3 * m.M.ip) + m.M.slot)) m.M.stats.M.dcache_stall

let running_bundle t =
  let c = t.cur in
  if c == dummy then 0 else (c.lin + c.groups.(t.gi).off) / 3

(* ---- per-slot reference loop -------------------------------------------- *)

(* Fetch every slot from the tcache, run its closure and derive the group
   timing slot by slot: the intra-group RAW split, the sources' ready
   cycles, the slot weights, the dcache stalls and the writes' latencies
   accumulate until a stop bit or a control transfer closes the group. *)
let reference_run ?(fuel = max_int) t =
  let m = t.m in
  t.cur <- dummy;
  t.gi <- 0;
  t.base <- 0;
  let stats = m.M.stats in
  let fuel_left = ref fuel in
  let gweight = ref 0 and gsrcs = ref 0 and gextra = ref 0 in
  let gwrites : (Insn.res, int) Hashtbl.t = Hashtbl.create 16 in
  let reg_ready = function
    | Insn.Rgr r -> m.M.ready.(r)
    | Insn.Rfr f -> m.M.fready.(f)
    | Insn.Rpr _ | Insn.Rbr _ | Insn.Rmem -> 0
  in
  let flush_group () =
    if !gweight > 0 then begin
      let issue =
        M.close_group m ~srcs_ready:!gsrcs ~weight:!gweight ~extra:!gextra
      in
      Hashtbl.iter
        (fun res lat ->
          match res with
          | Insn.Rgr r -> m.M.ready.(r) <- issue + lat
          | Insn.Rfr f -> m.M.fready.(f) <- issue + lat
          | _ -> ())
        gwrites;
      Hashtbl.reset gwrites;
      gweight := 0;
      gsrcs := 0;
      gextra := 0
    end
  in
  let advance () =
    if m.M.slot = 2 then begin
      m.M.ip <- m.M.ip + 1;
      m.M.slot <- 0
    end
    else m.M.slot <- m.M.slot + 1
  in
  let retire () = stats.M.slots_retired <- stats.M.slots_retired + 1 in
  let rec step () =
    if !fuel_left <= 0 then begin
      flush_group ();
      M.Fuel
    end
    else begin
      let bundle = Tcache.get t.tc m.M.ip in
      let insn = bundle.Bundle.slots.(m.M.slot) in
      let stop_after = bundle.Bundle.stops.(m.M.slot) in
      decr fuel_left;
      (match insn.Insn.sem with
      | Insn.Br (Insn.Out (Insn.Spec_fail _)) ->
        stats.M.spec_checks <- stats.M.spec_checks + 1
      | _ -> ());
      let reads = Insn.reads insn in
      if List.exists (Hashtbl.mem gwrites) reads then flush_group ();
      List.iter (fun r -> gsrcs := max !gsrcs (reg_ready r)) reads;
      gweight := !gweight + M.slot_weight insn;
      let stall0 = stats.M.dcache_stall in
      let enabled =
        match insn.Insn.qp with Some p -> M.getp m p | None -> true
      in
      (* a per-slot fetch sees what a store rewrote: no program to
         validate ([t.cur] is [dummy]) *)
      match if enabled then compile_insn t insn () else -1 with
      | exception M.Machine_fault (kind, addr, size, store) ->
        flush_group ();
        M.Faulted { M.kind; addr; size; store; ip = m.M.ip; slot = m.M.slot }
      | r ->
        gextra := !gextra + (stats.M.dcache_stall - stall0);
        let lat = M.latency_of m insn in
        List.iter (fun w -> Hashtbl.replace gwrites w lat) (Insn.writes insn);
        if r = -1 then begin
          if not (is_nop insn) then retire ();
          (* after the advance: a group closing at slot 2 is charged to
             the next bundle *)
          advance ();
          if stop_after then flush_group ();
          step ()
        end
        else begin
          retire ();
          flush_group ();
          if r = -2 then begin
            m.M.last_exit <- (m.M.ip, m.M.slot);
            (* advance past the exit so a resume continues after it *)
            advance ();
            M.Exited (Option.get (exit_of insn))
          end
          else begin
            M.charge m m.M.cost.Cost.taken_branch_penalty;
            (match insn.Insn.sem with
            | Insn.Br_ind _ -> M.charge m m.M.cost.Cost.indirect_branch_penalty
            | _ -> ());
            m.M.ip <- r;
            m.M.slot <- 0;
            step ()
          end
        end
    end
  in
  step ()

(* Diagnostics for tests. *)
let compiled t = t.compiles
let compiled_slots t = t.compiled_slots
let memo_hits t = t.memo_hits

let reusable t c = same_content t.tc c

let cached_programs t =
  Array.fold_left (fun n c -> if reusable t c then n + 1 else n) 0 t.progs

type program = prog

let compile_at ?(carry = [||]) t lin = compile t ~carry lin

(* A position's current and previous programs are never the same one. *)
let retained_programs t =
  let count = Array.fold_left (fun n c -> if c == dummy then n else n + 1) 0 in
  count t.progs + count t.prev
