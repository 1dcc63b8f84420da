(* Pre-decoded, direct-threaded execution core (DESIGN.md §10).

   [Machine.run] re-matches nested [Insn.t] variants, rebuilds read/write
   resource lists and walks hashtables for every slot it executes. This
   module lowers each tcache bundle ONCE into a flat micro-op array: the
   semantic action becomes a preallocated closure with operand indices
   resolved, and the qualifying predicate, issue weight, latency class,
   read/write resource sets and stop bit are all precomputed. The
   group-costing write set becomes an epoch-marked int array instead of
   a polymorphic hashtable, so the steady-state step loop allocates
   nothing beyond what Int64 arithmetic itself boxes.

   Lowered bundles are cached per tcache stamp: every tcache mutation
   ([append], [patch_slot], [patch_dispatch], [invalidate_range],
   [clear]) bumps the generation and stamps the touched index, so one
   integer compare per slot validates the cache — chain patching and SMC
   invalidation invalidate exactly the bundles they rewrite.

   Correctness bar: simulated cycles, bucket attribution, every stats
   counter and the observable fault/exit behaviour are bit-identical to
   [Machine.run] — the determinism suite (test_exec.ml) and the engine's
   --no-predecode escape hatch exist to enforce and debug exactly that. *)

module M = Machine

(* Resource ids, flattened: GR 0-127, FR 128-255, PR 256-319, BR 320-327,
   memory 328. *)
let nres = 329

let enc = function
  | Insn.Rgr r -> r
  | Insn.Rfr f -> 128 + f
  | Insn.Rpr p -> 256 + p
  | Insn.Rbr b -> 320 + b
  | Insn.Rmem -> 328

(* One pre-decoded slot. [run] executes the semantic action and encodes
   control flow as an int — no [flow] variant to allocate:
   -1 = fall through, -2 = leave the cache ([exit_] has the reason),
   n >= 0 = jump to bundle n. *)
type uop = {
  run : unit -> int;
  qp : int; (* -1 = always enabled *)
  fast_nop : bool;
      (* unpredicated nop: no reads/writes/retire/stall — the step loop
         only adds its slot weight and advances *)
  nonnop : bool; (* retires a slot *)
  spec_check : bool; (* Br (Out (Spec_fail _)): counted even if disabled *)
  weight : int;
  latency : int;
  is_br_ind : bool;
  reads : int array; (* encoded resources, qualifying predicate included *)
  reads_rf : int array;
      (* reads restricted to GR/FR ids (< 256): the only resources with
         ready cycles, so the source-scan skips predicates/memory *)
  writes : int array;
  exit_ : Insn.exit_reason option; (* reason when [run] returns -2 *)
}

type dbundle = {
  uops : uop array;
  stops : bool array;
  nrun : int array;
      (* consecutive fast-nop slots starting at each slot — the step loop
         retires a whole padding run in one sweep *)
}

type t = {
  m : M.t;
  tc : Tcache.t;
  (* per-bundle lowering cache, validated by tcache stamp *)
  mutable dec : dbundle array;
  mutable dstamp : int array;
  (* group-costing scratch, replacing Machine.run's per-call hashtable:
     epoch-marked membership + latency per resource, plus the write list
     of the open group *)
  wmark : int array;
  wlat : int array;
  wlist : int array;
  mutable wn : int;
  mutable wepoch : int;
  mutable gweight : int;
  mutable gsrcs : int;
  mutable gextra : int;
  mutable stall_before : int;
}

let empty_dbundle = { uops = [||]; stops = [||]; nrun = [||] }

let create m =
  {
    m;
    tc = m.M.tcache;
    dec = Array.make 1024 empty_dbundle;
    dstamp = Array.make 1024 0;
    wmark = Array.make nres 0;
    wlat = Array.make nres 0;
    wlist = Array.make nres 0;
    wn = 0;
    wepoch = 1;
    gweight = 0;
    gsrcs = 0;
    gextra = 0;
    stall_before = 0;
  }

(* ---- lowering ---------------------------------------------------------- *)

(* Top-level so per-step calls don't build closures. *)
let rec nat_scan (m : M.t) grs i =
  i < Array.length grs
  && (let r = Array.unsafe_get grs i in
      (r <> 0 && Array.unsafe_get m.M.nat r) || nat_scan m grs (i + 1))

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
let[@inline] pget (m : M.t) p = p = 0 || Array.unsafe_get m.M.pr p

let[@inline] iaddr v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

let[@inline] isx bytes v =
  let sh = 64 - (8 * bytes) in
  Int64.shift_right (Int64.shift_left v sh) sh

let[@inline] izx bytes v =
  if bytes >= 8 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * bytes)) 1L)

(* Same-module copy of [Machine.eval_cmp] so comparison operands stay
   unboxed inside compiled Cmp/Cmpi closures. *)
let[@inline] ieval_cmp rel a b =
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

(* Compile one instruction's semantic action into a closure over resolved
   operands. Mirrors [Machine.exec_sem] case by case; any behavioural
   difference here is a bug the determinism suite must catch. *)
let compile_insn m (insn : Insn.t) =
  let open Insn in
  let gf f = M.getf m f in
  let sf d v = M.setf m d v in
  let stats = m.M.stats in
  (* GR sources, for computational NaT propagation (= nat_of_reads) *)
  let grs =
    List.filter_map (function Rgr r -> Some r | _ -> None) (reads insn)
    |> Array.of_list
  in
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
      (if nat_scan m grs 0 then M.set_nat m d else rset m d (Int64.add (rget m a) (rget m b)));
      -1
  | Sub (d, a, b) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.sub (rget m a) (rget m b)));
      -1
  | Addi (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d else rset m d (Int64.add i (rget m a)));
      -1
  | Subi (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.sub i (rget m a)));
      -1
  | And (d, a, b) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logand (rget m a) (rget m b)));
      -1
  | Or (d, a, b) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logor (rget m a) (rget m b)));
      -1
  | Xor (d, a, b) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logxor (rget m a) (rget m b)));
      -1
  | Andcm (d, a, b) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logand (rget m a) (Int64.lognot (rget m b))));
      -1
  | Andi (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logand i (rget m a)));
      -1
  | Ori (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logor i (rget m a)));
      -1
  | Xori (d, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logxor i (rget m a)));
      -1
  | Shl (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (let c = Int64.to_int (Int64.logand (rget m b) 127L) in
        if c >= 64 then 0L else Int64.shift_left (rget m a) c));
      -1
  | Shli (d, a, n) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (if n >= 64 then 0L else Int64.shift_left (rget m a) n));
      -1
  | Shru (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (let c = Int64.to_int (Int64.logand (rget m b) 127L) in
        if c >= 64 then 0L else Int64.shift_right_logical (rget m a) c));
      -1
  | Shrui (d, a, n) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (if n >= 64 then 0L else Int64.shift_right_logical (rget m a) n));
      -1
  | Shrs (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (let c = min 63 (Int64.to_int (Int64.logand (rget m b) 127L)) in
        Int64.shift_right (rget m a) c));
      -1
  | Shrsi (d, a, n) ->
    let n = min 63 n in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.shift_right (rget m a) n));
      -1
  | Dep (d, s, base, pos, len) ->
    (* pos/len are immediates: box the masks once, at lowering time *)
    let fmask = M.mask_of_len len in
    let cmask = Int64.lognot (Int64.shift_left fmask pos) in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (let field = Int64.logand (rget m s) fmask in
        let cleared = Int64.logand (rget m base) cmask in
        Int64.logor cleared (Int64.shift_left field pos)));
      -1
  | Depz (d, s, pos, len) ->
    let fmask = M.mask_of_len len in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.shift_left (Int64.logand (rget m s) fmask) pos));
      -1
  | Extr (d, s, pos, len) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.shift_right (Int64.shift_left (rget m s) (64 - pos - len)) (64 - len)));
      -1
  | Extru (d, s, pos, len) ->
    let fmask = M.mask_of_len len in
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logand (Int64.shift_right_logical (rget m s) pos) fmask));
      -1
  | Sxt (d, s, n) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (isx n (rget m s)));
      -1
  | Zxt (d, s, n) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
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
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.logor
          (Int64.shift_left (Int64.logand (rget m a) 0xFFFFFFFFL) 32)
          (Int64.logand (rget m b) 0xFFFFFFFFL)));
      -1
  | Popcnt (d, s) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.of_int (popcnt64 (rget m s))));
      -1
  | Xma (d, a, b, c) | Xmau (d, a, b, c) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.add (Int64.mul (rget m a) (rget m b)) (rget m c)));
      -1
  | Xmah (d, a, b, c) -> fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.add (hi_mul (rget m a) (rget m b)) (rget m c)));
      -1
  | Xmahu (d, a, b, c) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Int64.add (hi_mul_u (rget m a) (rget m b)) (rget m c)));
      -1
  | Divs (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.div (rget m a) (rget m b)));
      -1
  | Divu (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.unsigned_div (rget m a) (rget m b)));
      -1
  | Rems (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.rem (rget m a) (rget m b)));
      -1
  | Remu (d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (if Int64.equal (rget m b) 0L then 0L else Int64.unsigned_rem (rget m a) (rget m b)));
      -1
  | Padd (w, d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w Int64.add (rget m a) (rget m b)));
      -1
  | Psub (w, d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w Int64.sub (rget m a) (rget m b)));
      -1
  | Pmull (w, d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w Int64.mul (rget m a) (rget m b)));
      -1
  | Pcmpeq (w, d, a, b) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w
          (fun x y -> if Int64.equal x y then -1L else 0L)
          (rget m a) (rget m b)));
      -1
  | Pshli (w, d, a, n) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
       else rset m d (Ia32.Word.lanes_map2 w
          (fun x _ -> if n >= w * 8 then 0L else Int64.shift_left x n)
          (rget m a) 0L));
      -1
  | Pshri (w, d, a, n) ->
    fun () ->
      (if nat_scan m grs 0 then M.set_nat m d
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
       else cmp_commit ct p1 p2 (ieval_cmp rel (rget m a) (rget m b)));
      -1
  | Cmpi (rel, ct, p1, p2, i, a) ->
    let i = Int64.of_int i in
    fun () ->
      (if rget_nat m a then begin
         pset m p1 false;
         pset m p2 false
       end
       else cmp_commit ct p1 p2 (ieval_cmp rel i (rget m a)));
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

let compile_uop m (insn : Insn.t) =
  {
    run = compile_insn m insn;
    qp = (match insn.Insn.qp with Some p -> p | None -> -1);
    fast_nop =
      (match (insn.Insn.sem, insn.Insn.qp) with
      | Insn.Nop _, None -> true
      | _ -> false);
    nonnop = (match insn.Insn.sem with Insn.Nop _ -> false | _ -> true);
    spec_check =
      (match insn.Insn.sem with
      | Insn.Br (Insn.Out (Insn.Spec_fail _)) -> true
      | _ -> false);
    weight = M.slot_weight insn;
    latency = M.latency_of m insn;
    is_br_ind = (match insn.Insn.sem with Insn.Br_ind _ -> true | _ -> false);
    reads = Array.of_list (List.map enc (Insn.reads insn));
    reads_rf =
      Array.of_list
        (List.filter_map
           (fun r ->
             let e = enc r in
             if e < 256 then Some e else None)
           (Insn.reads insn));
    writes = Array.of_list (List.map enc (Insn.writes insn));
    exit_ =
      (match insn.Insn.sem with
      | Insn.Br (Insn.Out r)
      | Insn.Chk_s (_, Insn.Out r)
      | Insn.Chk_a (_, Insn.Out r) ->
        Some r
      | Insn.Hotc (_, _, id) -> Some (Insn.Heat id)
      | _ -> None);
  }

let compile_bundle m (b : Bundle.t) =
  let uops = Array.map (compile_uop m) b.Bundle.slots in
  let n = Array.length uops in
  let nrun = Array.make n 0 in
  for i = n - 1 downto 0 do
    if uops.(i).fast_nop then
      nrun.(i) <- 1 + (if i + 1 < n then nrun.(i + 1) else 0)
  done;
  { uops; stops = Array.copy b.Bundle.stops; nrun }

let ensure t i =
  let n = Array.length t.dec in
  if i >= n then begin
    let n' = max (2 * n) (i + 1) in
    let dec = Array.make n' empty_dbundle in
    Array.blit t.dec 0 dec 0 n;
    t.dec <- dec;
    let ds = Array.make n' 0 in
    Array.blit t.dstamp 0 ds 0 n;
    t.dstamp <- ds
  end

(* ---- run loop ---------------------------------------------------------- *)

let flush_group t =
  if t.gweight > 0 then begin
    let m = t.m in
    (* [M.close_group]'s accounting, replicated locally: the build's
       -opaque keeps the cross-module call opaque, and groups close every
       few slots. Must stay line-for-line equivalent. *)
    let stats = m.M.stats in
    let issue = max (stats.M.cycles + 1) t.gsrcs in
    let span =
      (t.gweight + m.M.cost.Cost.issue_slots - 1) / m.M.cost.Cost.issue_slots
    in
    let delta = issue + span - 1 + t.gextra - stats.M.cycles in
    if delta > 0 then begin
      stats.M.cycles <- stats.M.cycles + delta;
      let b = m.M.bucket_fn m.M.ip in
      m.M.buckets.(b land 7) <- m.M.buckets.(b land 7) + delta;
      match m.M.charge_probe with Some f -> f m.M.ip delta | None -> ()
    end;
    stats.M.groups <- stats.M.groups + 1;
    for i = 0 to t.wn - 1 do
      let rid = t.wlist.(i) in
      if rid < 128 then m.M.ready.(rid) <- issue + t.wlat.(rid)
      else if rid < 256 then m.M.fready.(rid - 128) <- issue + t.wlat.(rid)
    done;
    t.wn <- 0;
    t.wepoch <- t.wepoch + 1;
    t.gweight <- 0;
    t.gsrcs <- 0;
    t.gextra <- 0
  end

let[@inline] advance_slot t stop_after =
  let m = t.m in
  if m.M.slot = 2 then begin
    m.M.ip <- m.M.ip + 1;
    m.M.slot <- 0
  end
  else m.M.slot <- m.M.slot + 1;
  if stop_after then flush_group t

let rec raw_scan t reads i =
  i < Array.length reads
  && (t.wmark.(Array.unsafe_get reads i) = t.wepoch || raw_scan t reads (i + 1))

let[@inline] account t u =
  (* intra-group RAW: conservatively split the group (the scan needs the
     full read set — predicates and memory carry RAW splits too) *)
  if t.wn > 0 && raw_scan t u.reads 0 then flush_group t;
  let m = t.m in
  t.stall_before <- m.M.stats.M.dcache_stall;
  let reads = u.reads_rf in
  for i = 0 to Array.length reads - 1 do
    let rid = Array.unsafe_get reads i in
    if rid < 128 then begin
      if m.M.ready.(rid) > t.gsrcs then t.gsrcs <- m.M.ready.(rid)
    end
    else if m.M.fready.(rid - 128) > t.gsrcs then
      t.gsrcs <- m.M.fready.(rid - 128)
  done;
  t.gweight <- t.gweight + u.weight

let[@inline] commit_timing t u =
  (* dcache stalls observed during exec extend the group *)
  t.gextra <- t.gextra + (t.m.M.stats.M.dcache_stall - t.stall_before);
  let writes = u.writes in
  for i = 0 to Array.length writes - 1 do
    let rid = Array.unsafe_get writes i in
    if t.wmark.(rid) <> t.wepoch then begin
      t.wmark.(rid) <- t.wepoch;
      t.wlist.(t.wn) <- rid;
      t.wn <- t.wn + 1
    end;
    t.wlat.(rid) <- u.latency
  done

(* Validated lookup: one stamp compare on the hit path; a miss lowers the
   bundle and records the stamp (out-of-range indices raise through
   [Tcache.get], exactly like the interpretive loop). *)
let dbundle_at t i =
  let s = Tcache.stamp t.tc i in
  if i < Array.length t.dstamp && Array.unsafe_get t.dstamp i = s then
    Array.unsafe_get t.dec i
  else begin
    let b = Tcache.get t.tc i in
    ensure t i;
    let db = compile_bundle t.m b in
    t.dec.(i) <- db;
    t.dstamp.(i) <- s;
    db
  end

let run ?(fuel = max_int) t =
  let m = t.m in
  let stats = m.M.stats in
  (* fresh group state, mirroring Machine.run's per-call locals *)
  t.wn <- 0;
  t.wepoch <- t.wepoch + 1;
  t.gweight <- 0;
  t.gsrcs <- 0;
  t.gextra <- 0;
  let fuel_left = ref fuel in
  let watch = m.M.watch in
  let watching = watch <> None in
  (* The current bundle's lowered image rides along as recursion
     arguments, revalidated only when ip moves: nothing mutates the
     tcache while the run loop is on the stack (guest SMC stores abort
     out through the engine's write watch), so within a bundle the
     cached image cannot go stale — and keeping it out of a heap cell
     spares the GC write barrier on every bundle switch. *)
  let rec step cur_ip cur_db =
    if !fuel_left <= 0 then begin
      flush_group t;
      M.Fuel
    end
    else begin
      let cur_ip, db =
        if m.M.ip <> cur_ip then (m.M.ip, dbundle_at t m.M.ip)
        else (cur_ip, cur_db)
      in
      if watching then
        (match watch with
        | Some (b, regs) when m.M.slot = 0 && b = m.M.ip ->
          Printf.eprintf "[watch ip=%d" m.M.ip;
          List.iter
            (fun r ->
              if r < 200 then Printf.eprintf " r%d=%Lx" r (M.get m r)
              else Printf.eprintf " p%d=%b" (r - 200) (M.getp m (r - 200)))
            regs;
          Printf.eprintf "]\n%!"
        | _ -> ());
      let u = Array.unsafe_get db.uops m.M.slot in
      let stop_after = Array.unsafe_get db.stops m.M.slot in
      if u.fast_nop then begin
        (* a nop reads and writes nothing, cannot stall, does not retire
           and has no predicate; only its slot weight reaches the group.
           A run of padding nops is swept in one pass when fuel allows —
           each consumes its fuel unit and contributes its weight exactly
           as the slot-at-a-time loop would *)
        let n = Array.unsafe_get db.nrun m.M.slot in
        if n > 1 && !fuel_left >= n then begin
          fuel_left := !fuel_left - n;
          let s0 = m.M.slot in
          for x = s0 to s0 + n - 1 do
            t.gweight <- t.gweight + (Array.unsafe_get db.uops x).weight;
            advance_slot t (Array.unsafe_get db.stops x)
          done
        end
        else begin
          decr fuel_left;
          t.gweight <- t.gweight + u.weight;
          advance_slot t stop_after
        end;
        step cur_ip db
      end
      else begin
        decr fuel_left;
        if u.spec_check then stats.M.spec_checks <- stats.M.spec_checks + 1;
        let enabled = u.qp < 0 || pget m u.qp in
        account t u;
        if not enabled then begin
          commit_timing t u;
          if u.nonnop then stats.M.slots_retired <- stats.M.slots_retired + 1;
          advance_slot t stop_after;
          step cur_ip db
        end
        else
          match u.run () with
          | -1 ->
            commit_timing t u;
            if u.nonnop then stats.M.slots_retired <- stats.M.slots_retired + 1;
            advance_slot t stop_after;
            step cur_ip db
          | -2 ->
            commit_timing t u;
            stats.M.slots_retired <- stats.M.slots_retired + 1;
            flush_group t;
            m.M.last_exit <- (m.M.ip, m.M.slot);
            (* advance past the exit so a resume continues after it *)
            advance_slot t stop_after;
            M.Exited (match u.exit_ with Some r -> r | None -> assert false)
          | n ->
            commit_timing t u;
            stats.M.slots_retired <- stats.M.slots_retired + 1;
            flush_group t;
            M.charge m m.M.cost.Cost.taken_branch_penalty;
            if u.is_br_ind then M.charge m m.M.cost.Cost.indirect_branch_penalty;
            m.M.ip <- n;
            m.M.slot <- 0;
            step cur_ip db
      end
    end
  in
  (* one trap frame for the whole run instead of one per step; [m.ip]/
     [m.slot] still point at the faulting slot when the raise unwinds *)
  try step (-1) empty_dbundle
  with M.Machine_fault (kind, addr, size, store) ->
    flush_group t;
    M.Faulted { M.kind; addr; size; store; ip = m.M.ip; slot = m.M.slot }

(* Diagnostics for tests: how many bundles currently hold a valid lowered
   image. *)
let cached_bundles t =
  let n = ref 0 in
  for i = 0 to Array.length t.dstamp - 1 do
    if t.dstamp.(i) <> 0 then incr n
  done;
  !n
