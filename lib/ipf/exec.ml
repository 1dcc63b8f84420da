(* The IPF execution core: instruction semantics and issue-group programs
   (DESIGN.md §10.1).

   [compile_insn] turns one instruction into a closure over its resolved
   operands; it is the only definition of what an IPF instruction does.
   Everything else here is timing, and almost all of it is a static
   function of the tcache contents, so it is resolved once per issue
   group rather than per executed slot.

   A group program is compiled lazily for an entry position (bundle,
   slot). Where the group ends (stop bit, intra-group RAW split — both
   static, since predicated-off slots still commit timing), its slot
   weight, retired-slot and speculation-check counts, its deduplicated
   GR/FR sources and its ordered write list are all fixed at compile
   time, as prefix aggregates per slot offset. At run time a group runs
   only its semantic closures back to back — the qualifying-predicate
   test, the call and a check of the result — and then charges the group
   from the aggregates. Any side exit (taken branch, cache exit, fuel,
   [Machine_fault], or an exception such as the engine's SMC abort)
   settles from the prefix up to the exiting slot, so cycles, buckets,
   counters, [ip]/[slot] and [last_exit] are what a slot-by-slot
   accumulation gives.

   Programs are validated by the tcache stamps of every bundle they span:
   every tcache mutation ([append], [patch_slot], [patch_dispatch],
   [invalidate_range], [restore_range], [clear]) bumps the generation and
   stamps what it touched, so one generation compare per group entry
   suffices until something changes, and chain patching or SMC
   invalidation recompiles exactly the groups they rewrite. A program
   whose stamps fail is still reused when the bundles it spans hold the
   same content again ([same_content]): after a flush, a replayed run
   re-installs its blocks at the same indices, and a revived block's
   bundles come back as they were.

   [reference_run] runs the same closures one fetched slot at a time and
   derives the timing per slot, with [Machine]'s cost primitives. It is
   the oracle test_exec.ml compares the group accounting against:
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

(* One executed slot of a group. [run] is the slot's [compile_insn]
   closure, which encodes control flow as an int (no variant to
   allocate). Unpredicated nops get no uop at all. *)
type uop = {
  run : unit -> int;
  qp : int; (* -1 = always enabled *)
  at : int; (* slot offset within the group *)
  br_ind : bool;
  exit_ : Insn.exit_reason option;
}

(* One issue group, entered at [lin] = 3 * bundle + slot. [pre] holds, for
   every slot offset o in [0, n], five aggregates of the slots before o:
   issue span (their weight over the issue width, rounded up), retired
   slots, speculation checks, and how many entries of [srcs] and [evs]
   those slots contribute. *)
type prog = {
  lin : int;
  n : int; (* slots in the group *)
  uops : uop array;
  pre : int array;
  srcs : int array; (* distinct GR/FR sources, first-read order *)
  evs : int array; (* GR/FR writes in slot order: latency lsl 8 lor id *)
  closed : bool; (* false: the group runs off the end of the tcache *)
  insns : Insn.t array; (* the group's slots: a restart's carry, reuse *)
  split : Insn.t option; (* the slot a RAW split ended the group before *)
  carry : Insn.t array; (* slots of the same group already run *)
  span : int array; (* bundles the group covers ... *)
  stamps : int array; (* ... and their tcache stamps *)
  mutable vgen : int; (* tcache generation at the last validation *)
  mutable next : prog; (* fall-through successor *)
  mutable jump : prog; (* most recent taken-branch target *)
}

type t = {
  m : M.t;
  tc : Tcache.t;
  mutable progs : prog array; (* by entry position [lin] *)
  mutable gen : int; (* tcache generation, refreshed after every store *)
  mutable fuel : int;
  mutable running : int; (* entry position of the group running *)
  mutable k : int; (* index of the uop running, for exception exits *)
  mutable res : int; (* result of the uop that left the group *)
  (* compile-time scratch: epoch-marked write and source sets *)
  wmark : int array;
  smark : int array;
  mutable epoch : int;
}

exception Stale_group

let rec dummy =
  {
    lin = -1;
    n = 0;
    uops = [||];
    pre = [| 0; 0; 0; 0; 0 |];
    srcs = [||];
    evs = [||];
    closed = true;
    insns = [||];
    split = None;
    carry = [||];
    span = [| 0 |];
    stamps = [| 0 |] (* stamps are >= 1 or -1: never valid *);
    vgen = -1;
    next = dummy;
    jump = dummy;
  }

let create m =
  {
    m;
    tc = m.M.tcache;
    progs = Array.make 3072 dummy;
    gen = 0;
    fuel = 0;
    running = 0;
    k = 0;
    res = 0;
    wmark = Array.make nres 0;
    smark = Array.make nres 0;
    epoch = 0;
  }

let rec stamps_ok tc span stamps i =
  i >= Array.length span
  || Tcache.stamp tc (Array.unsafe_get span i) = Array.unsafe_get stamps i
     && stamps_ok tc span stamps (i + 1)

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

(* A store can reach the engine's SMC write watch, which may rewrite
   tcache bundles while the group runs. [span]/[stamps] are the group's
   bundles and their stamps at compile time: if one changed, the rest of
   the group must come from the new bundles, as a per-slot fetch would
   see them. With no span ([reference_run]) this never raises. *)
let after_store t span stamps =
  let gen = Tcache.generation t.tc in
  if gen <> t.gen then begin
    t.gen <- gen;
    if not (stamps_ok t.tc span stamps 0) then raise Stale_group
  end

(* Compile one instruction's semantic action into a closure over resolved
   operands. The closure returns its control flow as an int: -1 = fall
   through, -2 = leave the cache (the reason is [exit_of] the
   instruction), n >= 0 = jump to bundle n. *)
let compile_insn t ~span ~stamps (insn : Insn.t) =
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
  let dstall addr =
    stats.M.dcache_stall <- stats.M.dcache_stall + M.dcache_access m addr
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
        match M.do_load m ~addr ~size with
        | v ->
          let v = if size = 8 then v else izx size v in
          rset m d v;
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
      M.do_store m ~addr ~size (rget m v);
      dstall addr;
      after_store t span stamps;
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
        let bits = M.do_load m ~addr ~size in
        let v =
          if size = 4 then
            Ia32.Fpconv.f32_of_bits
              (Int64.to_int (Int64.logand bits 0xFFFFFFFFL))
          else Ia32.Fpconv.f64_of_bits bits
        in
        sf d v;
        dstall addr;
        -1
      end
  | Stf (size, a, v) ->
    fun () ->
      if rget_nat m a then raise (M.Machine_fault (M.F_nat, 0, size, true));
      let addr = iaddr (rget m a) in
      stats.M.stores <- stats.M.stores + 1;
      let bits =
        if size = 4 then Int64.of_int (Ia32.Fpconv.bits_of_f32 (gf v))
        else Ia32.Fpconv.bits_of_f64 (gf v)
      in
      M.do_store m ~addr ~size bits;
      dstall addr;
      after_store t span stamps;
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

(* ---- group compilation ------------------------------------------------- *)

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

(* Compile the issue group entered at [lin0]. The group ends at a stop bit,
   before a slot that reads something the group already wrote (a RAW
   split; predicate and memory resources count), or where the tcache
   ends. [carry] are slots of the same group that already ran — a
   mid-group restart after a store rewrote the rest of the group: they
   count in the aggregates but run no uops. *)
let compile t ~carry lin0 =
  let m = t.m and tc = t.tc in
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  let w = ref 0 and ret = ref 0 and spec = ref 0 in
  let srcs = ref [] and ns = ref 0 and evs = ref [] and nev = ref 0 in
  let pre = ref [] and span = ref [] and insns = ref [] in
  let slots = m.M.cost.Cost.issue_slots in
  let record () =
    pre := !nev :: !ns :: !spec :: !ret :: ((!w + slots - 1) / slots) :: !pre
  in
  let account insn reads =
    w := !w + M.slot_weight insn;
    List.iter
      (fun r ->
        let e = enc r in
        if e < 256 && t.smark.(e) <> ep then begin
          t.smark.(e) <- ep;
          srcs := e :: !srcs;
          incr ns
        end)
      reads;
    let lat = M.latency_of m insn in
    List.iter
      (fun r ->
        let e = enc r in
        t.wmark.(e) <- ep;
        if e < 256 then begin
          evs := (lat lsl 8) lor e :: !evs;
          incr nev
        end)
      (Insn.writes insn)
  in
  Array.iter (fun insn -> account insn (Insn.reads insn)) carry;
  let split = ref None in
  (* returns (closed, n) *)
  let rec scan lin =
    record ();
    let b = lin / 3 and s = lin mod 3 and o = lin - lin0 in
    if (o > 0 || Array.length carry > 0) && b >= Tcache.length tc then begin
      span := (b, Tcache.stamp tc b) :: !span;
      (false, o)
    end
    else begin
      (* at the entry an out-of-range index raises, like a fetch *)
      let bundle = Tcache.get tc b in
      if s = 0 || o = 0 then span := (b, Tcache.stamp tc b) :: !span;
      let insn = bundle.Bundle.slots.(s) in
      let reads = Insn.reads insn in
      if List.exists (fun r -> t.wmark.(enc r) = ep) reads then begin
        split := Some insn;
        (true, o)
      end
      else begin
        account insn reads;
        if not (is_nop insn) then incr ret;
        (match insn.Insn.sem with
        | Insn.Br (Insn.Out (Insn.Spec_fail _)) -> incr spec
        | _ -> ());
        insns := insn :: !insns;
        if bundle.Bundle.stops.(s) then begin
          record ();
          (true, o + 1)
        end
        else scan (lin + 1)
      end
    end
  in
  let closed, n = scan lin0 in
  let insns = Array.of_list (List.rev !insns) in
  let span_l = List.rev !span in
  let span = Array.of_list (List.map fst span_l) in
  let stamps = Array.of_list (List.map snd span_l) in
  let uops = ref [] in
  for o = n - 1 downto 0 do
    let insn = insns.(o) in
    if not (is_nop insn) then
      uops :=
        {
          run = compile_insn t ~span ~stamps insn;
          qp = (match insn.Insn.qp with Some p when p <> 0 -> p | _ -> -1);
          at = o;
          br_ind =
            (match insn.Insn.sem with Insn.Br_ind _ -> true | _ -> false);
          exit_ = exit_of insn;
        }
        :: !uops
  done;
  {
    lin = lin0;
    n;
    uops = Array.of_list !uops;
    pre = Array.of_list (List.rev !pre);
    srcs = Array.of_list (List.rev !srcs);
    evs = Array.of_list (List.rev !evs);
    closed;
    insns;
    split = !split;
    carry;
    span;
    stamps;
    vgen = t.gen;
    next = dummy;
    jump = dummy;
  }

(* ---- running ----------------------------------------------------------- *)

let[@inline] set_pos (m : M.t) lin =
  m.M.ip <- lin / 3;
  m.M.slot <- lin mod 3

let[@inline] valid t g =
  g.vgen = t.gen
  || stamps_ok t.tc g.span g.stamps 0
     && begin
       g.vgen <- t.gen;
       true
     end

(* Whether the tcache holds, from [g]'s entry on, what [g] was compiled
   from, so compiling there now would give [g] again: the same slots up
   to where the group ended, no stop bit before its last slot, and a
   stop bit after it unless a RAW split ended the group — then the slot
   it split before must read the same resources, the group's writes
   being the same. Only a group that closed and has no carry depends on
   nothing else: not on the end of the tcache, nor on slots run before
   its entry. Top-level and allocation-free where the slots are the very
   ones compiled from: a warm revert revives a block many times. *)
let rec same_slots tc g o =
  o >= g.n
  ||
  let lin = g.lin + o in
  let b = lin / 3 in
  b < Tcache.length tc
  &&
  let bundle = Tcache.get tc b and s = lin - (3 * b) in
  let insn = Array.unsafe_get bundle.Bundle.slots s
  and want = Array.unsafe_get g.insns o in
  (insn == want || insn = want)
  && Array.unsafe_get bundle.Bundle.stops s
     = (o = g.n - 1 && match g.split with None -> true | Some _ -> false)
  && same_slots tc g (o + 1)

let same_content tc g =
  g != dummy && g.closed && Array.length g.carry = 0 && same_slots tc g 0
  &&
  match g.split with
  | None -> true
  | Some want ->
    let lin = g.lin + g.n in
    lin / 3 < Tcache.length tc
    &&
    let insn = (Tcache.get tc (lin / 3)).Bundle.slots.(lin mod 3) in
    insn == want || Insn.reads insn = Insn.reads want

(* Take a program whose stamps failed back by content: its stamps are
   updated in place, which its store closures see too. *)
let revalidate t g =
  same_content t.tc g
  && begin
    for i = 0 to Array.length g.span - 1 do
      g.stamps.(i) <- Tcache.stamp t.tc g.span.(i)
    done;
    g.vgen <- t.gen;
    true
  end

(* The validated program entered at [lin], compiled on a miss. [ip]/[slot]
   point at [lin] first, so an out-of-range index raises through
   [Tcache.get] exactly where [reference_run]'s fetch would. *)
let prog_at t lin =
  if
    lin >= 0
    && lin < Array.length t.progs
    && (valid t t.progs.(lin) || revalidate t t.progs.(lin))
  then t.progs.(lin)
  else begin
    set_pos t.m lin;
    let g = compile t ~carry:[||] lin in
    let len = Array.length t.progs in
    if lin >= len then begin
      let progs = Array.make (max (2 * len) (lin + 1)) dummy in
      Array.blit t.progs 0 progs 0 len;
      t.progs <- progs
    end;
    (* the replaced program may still be linked from others: drop its
       own links so stale programs cannot keep chains of stale ones alive *)
    let old = t.progs.(lin) in
    old.next <- dummy;
    old.jump <- dummy;
    t.progs.(lin) <- g;
    g
  end

(* Close the group formed by its first slots: weight and sources up to
   offset [ow], writes up to offset [oe] (a faulting slot issues but
   commits nothing), charged to bundle [ip]. [M.close_group]'s accounting,
   replicated locally: the build's -opaque keeps cross-module calls
   opaque, and this runs once per group. *)
let[@inline] flush t g ~ow ~oe ip stall0 =
  let pre = g.pre in
  let span = pre.(5 * ow) in
  if span > 0 then begin
    let m = t.m in
    let stats = m.M.stats in
    let issue = ref (stats.M.cycles + 1) in
    let srcs = g.srcs in
    for i = 0 to pre.((5 * ow) + 3) - 1 do
      let r = Array.unsafe_get srcs i in
      let v = if r < 128 then m.M.ready.(r) else m.M.fready.(r - 128) in
      if v > !issue then issue := v
    done;
    let issue = !issue in
    let delta =
      issue + span - 1 + (stats.M.dcache_stall - stall0) - stats.M.cycles
    in
    if delta > 0 then begin
      stats.M.cycles <- stats.M.cycles + delta;
      let b = m.M.bucket_fn ip in
      m.M.buckets.(b land 7) <- m.M.buckets.(b land 7) + delta;
      match m.M.charge_probe with Some f -> f ip delta | None -> ()
    end;
    stats.M.groups <- stats.M.groups + 1;
    let evs = g.evs in
    for e = 0 to pre.((5 * oe) + 4) - 1 do
      let x = Array.unsafe_get evs e in
      let r = x land 255 and ready = issue + (x lsr 8) in
      if r < 128 then m.M.ready.(r) <- ready else m.M.fready.(r - 128) <- ready
    done
  end

(* Retired-slot and speculation-check counts of the first slots. *)
let[@inline] count t g ~oret ~ospec =
  let stats = t.m.M.stats in
  stats.M.slots_retired <- stats.M.slots_retired + g.pre.((5 * oret) + 1);
  stats.M.spec_checks <- stats.M.spec_checks + g.pre.((5 * ospec) + 2)

(* The group's straight-line body: run uops [i, lim) until one leaves. *)
let rec exec t (pr : bool array) uops i lim =
  if i >= lim then i
  else begin
    let u = Array.unsafe_get uops i in
    if u.qp >= 0 && not (Array.unsafe_get pr u.qp) then
      exec t pr uops (i + 1) lim
    else begin
      t.k <- i;
      let r = u.run () in
      if r = -1 then exec t pr uops (i + 1) lim
      else begin
        t.res <- r;
        i
      end
    end
  end

(* uops of slots before offset [f]: what the remaining fuel covers *)
let rec fuel_lim uops f i =
  if i < Array.length uops && (Array.unsafe_get uops i).at < f then
    fuel_lim uops f (i + 1)
  else i

(* Run group [g], which opened when the dcache-stall counter read
   [stall0], and chain on. Every exit settles the group from the prefix
   aggregates of the slots it got through. *)
let rec go t g stall0 =
  t.running <- g.lin;
  let f = t.fuel in
  let lim = if f >= g.n then Array.length g.uops else fuel_lim g.uops f 0 in
  match exec t t.m.M.pr g.uops 0 lim with
  | x when x < lim -> side_exit t g (Array.unsafe_get g.uops x) stall0
  | _ when f >= g.n -> finish t g stall0
  | _ ->
    (* fuel runs out at offset [f] *)
    t.fuel <- 0;
    count t g ~oret:f ~ospec:f;
    flush t g ~ow:f ~oe:f ((g.lin + f) / 3) stall0;
    set_pos t.m (g.lin + f);
    M.Fuel
  | exception M.Machine_fault (kind, addr, size, store) ->
    let o = g.uops.(t.k).at in
    count t g ~oret:o ~ospec:(o + 1);
    flush t g ~ow:(o + 1) ~oe:o ((g.lin + o) / 3) stall0;
    let m = t.m in
    set_pos m (g.lin + o);
    M.Faulted { M.kind; addr; size; store; ip = m.M.ip; slot = m.M.slot }
  | exception Stale_group ->
    (* a store rewrote bundles the rest of this group comes from: finish
       the group from the new contents *)
    let o = g.uops.(t.k).at + 1 in
    t.fuel <- t.fuel - o;
    count t g ~oret:o ~ospec:o;
    let carry = Array.append g.carry (Array.sub g.insns 0 o) in
    go t (compile t ~carry (g.lin + o)) stall0
  | exception e ->
    (* the open group is dropped, as when [reference_run] unwinds *)
    let o = g.uops.(t.k).at in
    count t g ~oret:o ~ospec:(o + 1);
    set_pos t.m (g.lin + o);
    raise e

and side_exit t g u stall0 =
  let m = t.m in
  let lin = g.lin + u.at in
  let o = u.at + 1 and ip = lin / 3 in
  t.fuel <- t.fuel - o;
  count t g ~oret:o ~ospec:o;
  flush t g ~ow:o ~oe:o ip stall0;
  let r = t.res in
  if r = -2 then begin
    m.M.last_exit <- (ip, lin mod 3);
    (* advance past the exit so a resume continues after it *)
    set_pos m (lin + 1);
    M.Exited (match u.exit_ with Some r -> r | None -> assert false)
  end
  else begin
    m.M.ip <- ip;
    M.charge m m.M.cost.Cost.taken_branch_penalty;
    if u.br_ind then M.charge m m.M.cost.Cost.indirect_branch_penalty;
    m.M.ip <- r;
    m.M.slot <- 0;
    if t.fuel <= 0 then M.Fuel
    else begin
      let h = g.jump in
      let h =
        if h.lin = 3 * r && valid t h then h
        else begin
          let h = prog_at t (3 * r) in
          g.jump <- h;
          h
        end
      in
      go t h m.M.stats.M.dcache_stall
    end
  end

and finish t g stall0 =
  let m = t.m in
  let n = g.n in
  let next = g.lin + n in
  t.fuel <- t.fuel - n;
  count t g ~oret:n ~ospec:n;
  if g.closed then begin
    flush t g ~ow:n ~oe:n (next / 3) stall0;
    if t.fuel <= 0 then begin
      set_pos m next;
      M.Fuel
    end
    else begin
      let h = g.next in
      let h =
        if valid t h then h
        else begin
          let h = prog_at t next in
          g.next <- h;
          h
        end
      in
      go t h m.M.stats.M.dcache_stall
    end
  end
  else begin
    (* the group runs past the last bundle: [reference_run]'s next
       fetch raises with the group still open *)
    set_pos m next;
    if t.fuel <= 0 then begin
      flush t g ~ow:n ~oe:n (next / 3) stall0;
      M.Fuel
    end
    else begin
      ignore (Tcache.get t.tc (next / 3));
      assert false
    end
  end

let run ?(fuel = max_int) t =
  let m = t.m in
  t.gen <- Tcache.generation t.tc;
  t.fuel <- fuel;
  if fuel <= 0 then M.Fuel
  else go t (prog_at t ((3 * m.M.ip) + m.M.slot)) m.M.stats.M.dcache_stall

let running_bundle t = t.running / 3

(* ---- per-slot reference loop -------------------------------------------- *)

(* Fetch every slot from the tcache, run its closure and derive the group
   timing slot by slot: the intra-group RAW split, the sources' ready
   cycles, the slot weights, the dcache stalls and the writes' latencies
   accumulate until a stop bit or a control transfer closes the group. *)
let reference_run ?(fuel = max_int) t =
  let m = t.m in
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
      (* a per-slot fetch sees what a store rewrote: no span to validate *)
      match
        if enabled then compile_insn t ~span:[||] ~stamps:[||] insn () else -1
      with
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

(* Diagnostics for tests. [compile] opens one scratch epoch per
   program, so the epoch counts the programs compiled. *)
let compiled t = t.epoch

let reusable t g = stamps_ok t.tc g.span g.stamps 0 || same_content t.tc g

let cached_programs t =
  Array.fold_left (fun n g -> if reusable t g then n + 1 else n) 0 t.progs

type program = prog

let compile_at ?(carry = [||]) t lin = compile t ~carry lin

let retained_programs t =
  let seen = Hashtbl.create 1024 in
  let rec visit g =
    let same = Option.value ~default:[] (Hashtbl.find_opt seen g.lin) in
    if g != dummy && not (List.memq g same) then begin
      Hashtbl.replace seen g.lin (g :: same);
      visit g.next;
      visit g.jump
    end
  in
  Array.iter visit t.progs;
  Hashtbl.fold (fun _ l n -> n + List.length l) seen 0
