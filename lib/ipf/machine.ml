(* The EPIC machine: executes bundles from the translation cache against
   guest memory, with an in-order grouped-issue timing model.

   Semantics are executed sequentially slot by slot (so a translator bug
   that violates the no-RAW-within-group rule still behaves
   deterministically), while the *timing* model issues whole instruction
   groups: a group's issue cycle is bounded below by the ready cycles of
   every register it reads, wide groups cost extra cycles beyond the issue
   width, and an intra-group RAW dependence conservatively splits the group
   for costing purposes.

   Faults (misaligned access, page fault, NaT consumption) abort execution
   and are reported with the bundle/slot so the translator runtime can run
   its precise-exception machinery. Speculative loads (ld.s) convert faults
   into NaT bits checked by chk.s; advanced loads (ld.a) allocate ALAT
   entries invalidated by overlapping stores and checked by chk.a. *)

type fault_kind = F_misalign | F_page | F_nat

type fault = {
  kind : fault_kind;
  addr : int;
  size : int;
  store : bool;
  ip : int; (* bundle index *)
  slot : int;
}

type stop =
  | Exited of Insn.exit_reason
  | Faulted of fault
  | Fuel

exception Machine_fault of fault_kind * int * int * bool (* kind,addr,size,store *)

type stats = {
  mutable cycles : int;
  mutable groups : int;
  mutable slots_retired : int; (* non-nop slots *)
  mutable loads : int;
  mutable stores : int;
  mutable taken_branches : int;
  mutable dcache_stall : int;
  mutable spec_checks : int; (* executed Spec_fail check branches *)
}

let fresh_stats () =
  {
    cycles = 0;
    groups = 0;
    slots_retired = 0;
    loads = 0;
    stores = 0;
    taken_branches = 0;
    dcache_stall = 0;
    spec_checks = 0;
  }

type t = {
  gr : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* 128; r0 = 0; a Bigarray so fresh values need no Int64 boxing *)
  nat : bool array;
  fr : float array; (* 128; f0 = 0.0, f1 = 1.0 *)
  fnat : bool array;
  pr : bool array; (* 64; p0 = true *)
  br : int array; (* 8 branch registers holding bundle indices *)
  mem : Ia32.Memory.t;
  tcache : Tcache.t;
  dcache : Dcache.t;
  cost : Cost.t;
  alat : (int, int * int) Hashtbl.t; (* gr -> addr,size *)
  ready : int array; (* ready cycle per GR *)
  fready : int array; (* per FR *)
  stats : stats;
  mutable ip : int;
  mutable slot : int;
  (* cycle attribution: maps a bundle index to a bucket (e.g. cold/hot code)
     so chained block-to-block execution can be accounted without leaving
     the machine. *)
  mutable bucket_fn : int -> int;
  buckets : int array;
  (* Observability probe mirroring every charge: called with the current
     bundle index and the delta. Recording only — the probe must not
     touch machine state, so cycle totals are identical with or without
     it. *)
  mutable charge_probe : (int -> int -> unit) option;
  (* bundle/slot of the most recent [Out _] exit branch, for chaining *)
  mutable last_exit : int * int;
  (* Address range whose loads/stores bypass the dcache model (empty when
     lo >= hi). The translator's profile arena goes here: instrumentation
     traffic must not perturb the modeled guest dcache, so a block's
     cycles are identical no matter which arena slots it was handed. *)
  mutable dc_skip_lo : int;
  mutable dc_skip_hi : int;
  (* hot-counter trace selection: hash-indexed saturating counters bumped
     by the Hotc/Edgec pseudo-ops. Machine-owned (not guest memory), so
     counter traffic cannot perturb the modeled dcache and both execution
     cores see the same cells. *)
  hotc : int array;
  edgec : int array;
}

(* Power-of-two counter-table geometry shared by the translator (slot
   assignment) and the profile reader. Two guest addresses may alias one
   slot; heat detection stays deterministic, merely earlier for the pair. *)
let counter_slots = 4096
let counter_slot addr = (addr lxor (addr lsr 12)) land (counter_slots - 1)

(* Edge counters saturate instead of wrapping: the hot-phase bias test only
   needs taken-vs-use ordering, not exact totals. *)
let edgec_saturate = 0xFFFF

let dcache_access m addr =
  if addr >= m.dc_skip_lo && addr < m.dc_skip_hi then 0
  else Dcache.access m.dcache addr

let create ?(cost = Cost.default) ?dcache mem tcache =
  let dcache = match dcache with Some d -> d | None -> Dcache.create () in
  let m =
    {
      gr =
        (let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 128 in
         Bigarray.Array1.fill a 0L;
         a);
      nat = Array.make 128 false;
      fr = Array.make 128 0.0;
      fnat = Array.make 128 false;
      pr = Array.make 64 false;
      br = Array.make 8 0;
      mem;
      tcache;
      dcache;
      cost;
      alat = Hashtbl.create 32;
      ready = Array.make 128 0;
      fready = Array.make 128 0;
      stats = fresh_stats ();
      ip = 0;
      slot = 0;
      bucket_fn = (fun _ -> 0);
      buckets = Array.make 8 0;
      charge_probe = None;
      last_exit = (0, 0);
      dc_skip_lo = 0;
      dc_skip_hi = 0;
      hotc = Array.make counter_slots 0;
      edgec = Array.make counter_slots 0;
    }
  in
  m.fr.(1) <- 1.0;
  m.pr.(0) <- true;
  m

(* ---- register access -------------------------------------------------- *)

let[@inline] get m r = if r = 0 then 0L else Bigarray.Array1.unsafe_get m.gr r

let[@inline] get_nat m r = if r = 0 then false else m.nat.(r)

let[@inline] set m r v =
  if r <> 0 then begin
    Bigarray.Array1.unsafe_set m.gr r v;
    m.nat.(r) <- false
  end

let[@inline] set_nat m r =
  if r <> 0 then begin
    Bigarray.Array1.unsafe_set m.gr r 0L;
    m.nat.(r) <- true
  end

let[@inline] getf m f = if f = 0 then 0.0 else if f = 1 then 1.0 else m.fr.(f)

let[@inline] setf m f v =
  if f > 1 then begin
    m.fr.(f) <- v;
    m.fnat.(f) <- false
  end

let[@inline] getp m p = if p = 0 then true else m.pr.(p)
let[@inline] setp m p v = if p <> 0 then m.pr.(p) <- v

(* IA-32 guest addresses are 32-bit; GRs hold them zero-extended. *)
let[@inline] addr_of v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

(* Convenience for the translator runtime: 32-bit canonical view. *)
let get32 m r = Int64.to_int (Int64.logand (get m r) 0xFFFFFFFFL)
let set32 m r v = set m r (Int64.of_int (Ia32.Word.mask32 v))

(* ---- memory with fault conversion ------------------------------------- *)

(* An aligned access never straddles a page (page size is a multiple of
   every access size), so the unmapped / protection checks can ride on
   the ia32 layer's own page lookup: one fault conversion below instead
   of two extra page-table probes per access here. *)
let check_access ~addr ~size ~store =
  (* access sizes are 1, 2, 4 or 8, so a mask is the alignment test: this
     runs on every load and store, and a division costs tens of cycles *)
  if addr land (size - 1) <> 0 then
    raise (Machine_fault (F_misalign, addr, size, store))

let do_load m ~addr ~size =
  check_access ~addr ~size ~store:false;
  (* unmapped / protection check via the ia32 layer *)
  match
    if size = 8 then Ia32.Memory.read64 m.mem addr
    else Int64.of_int (Ia32.Memory.read size m.mem addr)
  with
  | v -> v
  | exception Ia32.Fault.Fault _ -> raise (Machine_fault (F_page, addr, size, false))

let do_store m ~addr ~size v =
  check_access ~addr ~size ~store:true;
  (match
     if size = 8 then Ia32.Memory.write64 m.mem addr v
     else Ia32.Memory.write size m.mem addr (Int64.to_int (Int64.logand v (Int64.of_int (if size = 4 then 0xFFFFFFFF else (1 lsl (8*size)) - 1))))
   with
  | () -> ()
  | exception Ia32.Fault.Fault _ -> raise (Machine_fault (F_page, addr, size, true)));
  (* an overlapping store kills matching ALAT entries; fold out the
     victims first (removal while iterating is unspecified), which costs
     nothing on the common empty-ALAT path. After the write, so a faulting
     store leaves the ALAT untouched exactly like the pre-validated path *)
  if Hashtbl.length m.alat > 0 then begin
    let victims =
      Hashtbl.fold
        (fun r (a, s) acc ->
          if addr < a + s && a < addr + size then r :: acc else acc)
        m.alat []
    in
    List.iter (Hashtbl.remove m.alat) victims
  end

(* ---- ALU semantics ---------------------------------------------------- *)

let mask_of_len len =
  if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L

let eval_cmp rel a b =
  match rel with
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

(* NaT propagation for computational instructions. *)
let nat_of_reads m insn =
  List.exists
    (function Insn.Rgr r -> get_nat m r | _ -> false)
    (Insn.reads insn)

type flow =
  | Fall (* continue to next slot *)
  | Jump of int (* to bundle index *)
  | Leave of Insn.exit_reason

let exec_sem m insn =
  let open Insn in
  let g = get m and gn = set m in
  let sx bytes v =
    let sh = 64 - (8 * bytes) in
    Int64.shift_right (Int64.shift_left v sh) sh
  in
  let zx bytes v = Int64.logand v (mask_of_len (8 * bytes)) in
  (* computational NaT propagation *)
  let propagate dst =
    if nat_of_reads m insn then begin
      set_nat m dst;
      true
    end
    else false
  in
  let alu dst f =
    if not (propagate dst) then gn dst (f ())
  in
  match insn.sem with
  | Add (d, a, b) -> alu d (fun () -> Int64.add (g a) (g b)); Fall
  | Sub (d, a, b) -> alu d (fun () -> Int64.sub (g a) (g b)); Fall
  | Addi (d, i, a) -> alu d (fun () -> Int64.add (Int64.of_int i) (g a)); Fall
  | Subi (d, i, a) -> alu d (fun () -> Int64.sub (Int64.of_int i) (g a)); Fall
  | And (d, a, b) -> alu d (fun () -> Int64.logand (g a) (g b)); Fall
  | Or (d, a, b) -> alu d (fun () -> Int64.logor (g a) (g b)); Fall
  | Xor (d, a, b) -> alu d (fun () -> Int64.logxor (g a) (g b)); Fall
  | Andcm (d, a, b) -> alu d (fun () -> Int64.logand (g a) (Int64.lognot (g b))); Fall
  | Andi (d, i, a) -> alu d (fun () -> Int64.logand (Int64.of_int i) (g a)); Fall
  | Ori (d, i, a) -> alu d (fun () -> Int64.logor (Int64.of_int i) (g a)); Fall
  | Xori (d, i, a) -> alu d (fun () -> Int64.logxor (Int64.of_int i) (g a)); Fall
  | Shl (d, a, b) ->
    alu d (fun () ->
        let c = Int64.to_int (Int64.logand (g b) 127L) in
        if c >= 64 then 0L else Int64.shift_left (g a) c);
    Fall
  | Shli (d, a, n) -> alu d (fun () -> if n >= 64 then 0L else Int64.shift_left (g a) n); Fall
  | Shru (d, a, b) ->
    alu d (fun () ->
        let c = Int64.to_int (Int64.logand (g b) 127L) in
        if c >= 64 then 0L else Int64.shift_right_logical (g a) c);
    Fall
  | Shrui (d, a, n) ->
    alu d (fun () -> if n >= 64 then 0L else Int64.shift_right_logical (g a) n);
    Fall
  | Shrs (d, a, b) ->
    alu d (fun () ->
        let c = min 63 (Int64.to_int (Int64.logand (g b) 127L)) in
        Int64.shift_right (g a) c);
    Fall
  | Shrsi (d, a, n) -> alu d (fun () -> Int64.shift_right (g a) (min 63 n)); Fall
  | Dep (d, s, base, pos, len) ->
    alu d (fun () ->
        let field = Int64.logand (g s) (mask_of_len len) in
        let cleared = Int64.logand (g base) (Int64.lognot (Int64.shift_left (mask_of_len len) pos)) in
        Int64.logor cleared (Int64.shift_left field pos));
    Fall
  | Depz (d, s, pos, len) ->
    alu d (fun () -> Int64.shift_left (Int64.logand (g s) (mask_of_len len)) pos);
    Fall
  | Extr (d, s, pos, len) ->
    alu d (fun () ->
        Int64.shift_right (Int64.shift_left (g s) (64 - pos - len)) (64 - len));
    Fall
  | Extru (d, s, pos, len) ->
    alu d (fun () -> Int64.logand (Int64.shift_right_logical (g s) pos) (mask_of_len len));
    Fall
  | Sxt (d, s, n) -> alu d (fun () -> sx n (g s)); Fall
  | Zxt (d, s, n) -> alu d (fun () -> zx n (g s)); Fall
  | Mov (d, s) ->
    (* moves propagate NaT as a value move (like mov through add r0) *)
    if get_nat m s then set_nat m d else gn d (g s);
    Fall
  | Movi (d, v) -> gn d v; Fall
  | Mix (d, a, b) ->
    (* mix4.l: concatenate the low 32 bits of both sources *)
    alu d (fun () ->
        Int64.logor
          (Int64.shift_left (Int64.logand (g a) 0xFFFFFFFFL) 32)
          (Int64.logand (g b) 0xFFFFFFFFL));
    Fall
  | Popcnt (d, s) ->
    alu d (fun () ->
        let rec go acc v =
          if Int64.equal v 0L then acc
          else go (acc + Int64.to_int (Int64.logand v 1L)) (Int64.shift_right_logical v 1)
        in
        Int64.of_int (go 0 (g s)));
    Fall
  | Xma (d, a, b, c) | Xmau (d, a, b, c) ->
    alu d (fun () -> Int64.add (Int64.mul (g a) (g b)) (g c));
    Fall
  | Xmah (d, a, b, c) ->
    alu d (fun () ->
        (* signed high 64 bits of the product, plus addend *)
        let hi_mul x y =
          let open Int64 in
          let xl = logand x 0xFFFFFFFFL and xh = shift_right x 32 in
          let yl = logand y 0xFFFFFFFFL and yh = shift_right y 32 in
          let ll = mul xl yl in
          let lh = mul xl yh and hl = mul xh yl in
          let hh = mul xh yh in
          let mid = add (add lh hl) (shift_right_logical ll 32) in
          add hh (shift_right mid 32)
        in
        Int64.add (hi_mul (g a) (g b)) (g c));
    Fall
  | Xmahu (d, a, b, c) ->
    alu d (fun () ->
        let hi_mul_u x y =
          let open Int64 in
          let xl = logand x 0xFFFFFFFFL and xh = shift_right_logical x 32 in
          let yl = logand y 0xFFFFFFFFL and yh = shift_right_logical y 32 in
          let ll = mul xl yl in
          let lh = mul xl yh and hl = mul xh yl in
          let carry =
            shift_right_logical
              (add (add (logand lh 0xFFFFFFFFL) (logand hl 0xFFFFFFFFL))
                 (shift_right_logical ll 32))
              32
          in
          add
            (add (mul xh yh) (add (shift_right_logical lh 32) (shift_right_logical hl 32)))
            carry
        in
        Int64.add (hi_mul_u (g a) (g b)) (g c));
    Fall
  | Divs (d, a, b) ->
    alu d (fun () -> if Int64.equal (g b) 0L then 0L else Int64.div (g a) (g b));
    Fall
  | Divu (d, a, b) ->
    alu d (fun () ->
        if Int64.equal (g b) 0L then 0L else Int64.unsigned_div (g a) (g b));
    Fall
  | Rems (d, a, b) ->
    alu d (fun () -> if Int64.equal (g b) 0L then 0L else Int64.rem (g a) (g b));
    Fall
  | Remu (d, a, b) ->
    alu d (fun () ->
        if Int64.equal (g b) 0L then 0L else Int64.unsigned_rem (g a) (g b));
    Fall
  | Padd (w, d, a, b) -> alu d (fun () -> Ia32.Word.lanes_map2 w Int64.add (g a) (g b)); Fall
  | Psub (w, d, a, b) -> alu d (fun () -> Ia32.Word.lanes_map2 w Int64.sub (g a) (g b)); Fall
  | Pmull (w, d, a, b) -> alu d (fun () -> Ia32.Word.lanes_map2 w Int64.mul (g a) (g b)); Fall
  | Pcmpeq (w, d, a, b) ->
    alu d (fun () ->
        Ia32.Word.lanes_map2 w
          (fun x y -> if Int64.equal x y then -1L else 0L)
          (g a) (g b));
    Fall
  | Pshli (w, d, a, n) ->
    alu d (fun () ->
        Ia32.Word.lanes_map2 w
          (fun x _ -> if n >= w * 8 then 0L else Int64.shift_left x n)
          (g a) 0L);
    Fall
  | Pshri (w, d, a, n) ->
    alu d (fun () ->
        Ia32.Word.lanes_map2 w
          (fun x _ -> if n >= w * 8 then 0L else Int64.shift_right_logical x n)
          (g a) 0L);
    Fall
  | Cmp (rel, ct, p1, p2, a, b) ->
    if get_nat m a || get_nat m b then begin
      (* NaT source: both targets cleared (IPF behaviour) *)
      setp m p1 false;
      setp m p2 false
    end
    else begin
      let r = eval_cmp rel (g a) (g b) in
      match ct with
      | Cnorm | Cunc ->
        setp m p1 r;
        setp m p2 (not r)
      | Cand_ ->
        if not r then begin
          setp m p1 false;
          setp m p2 false
        end
      | Cor_ ->
        if r then begin
          setp m p1 true;
          setp m p2 true
        end
    end;
    Fall
  | Cmpi (rel, ct, p1, p2, i, a) ->
    (if get_nat m a then begin
       setp m p1 false;
       setp m p2 false
     end
     else
       let r = eval_cmp rel (Int64.of_int i) (g a) in
       match ct with
       | Cnorm | Cunc ->
         setp m p1 r;
         setp m p2 (not r)
       | Cand_ ->
         if not r then begin
           setp m p1 false;
           setp m p2 false
         end
       | Cor_ ->
         if r then begin
           setp m p1 true;
           setp m p2 true
         end);
    Fall
  | Tbit (p1, p2, a, pos) ->
    if get_nat m a then begin
      setp m p1 false;
      setp m p2 false
    end
    else begin
      let bit =
        Int64.logand (Int64.shift_right_logical (g a) pos) 1L |> Int64.equal 1L
      in
      setp m p1 bit;
      setp m p2 (not bit)
    end;
    Fall
  | Setp (p, v) -> setp m p v; Fall
  | Movpr (d, mask) ->
    let v = ref 0L in
    for p = 63 downto 0 do
      v := Int64.shift_left !v 1;
      if getp m p then v := Int64.logor !v 1L
    done;
    gn d (Int64.logand !v mask);
    Fall
  | Prmov src ->
    let v = g src in
    for p = 1 to 63 do
      setp m p (Int64.logand (Int64.shift_right_logical v p) 1L |> Int64.equal 1L)
    done;
    Fall
  | Ld (size, spec, d, a) -> (
    if get_nat m a then
      if spec = Ld_s || spec = Ld_sa then begin
        set_nat m d;
        (* a stale ALAT entry for d must not let a later chk.a pass *)
        Hashtbl.remove m.alat d;
        Fall
      end
      else raise (Machine_fault (F_nat, 0, size, false))
    else
      let addr = addr_of (g a) in
      m.stats.loads <- m.stats.loads + 1;
      match do_load m ~addr ~size with
      | v ->
        let v = if size = 8 then v else zx size v in
        gn d v;
        m.stats.dcache_stall <- m.stats.dcache_stall + dcache_access m addr;
        if spec = Ld_a || spec = Ld_sa then Hashtbl.replace m.alat d (addr, size);
        Fall
      | exception Machine_fault (k, fa, fs, st) ->
        if spec = Ld_s || spec = Ld_sa then begin
          set_nat m d;
          Hashtbl.remove m.alat d;
          Fall
        end
        else raise (Machine_fault (k, fa, fs, st)))
  | St (size, a, v) ->
    if get_nat m a || get_nat m v then raise (Machine_fault (F_nat, 0, size, true));
    let addr = addr_of (g a) in
    m.stats.stores <- m.stats.stores + 1;
    do_store m ~addr ~size (g v);
    m.stats.dcache_stall <- m.stats.dcache_stall + dcache_access m addr;
    Fall
  | Chk_s (r, t) ->
    if get_nat m r then begin
      m.stats.taken_branches <- m.stats.taken_branches + 1;
      match t with To n -> Jump n | Out reason -> Leave reason
    end
    else Fall
  | Chk_a (r, t) ->
    if Hashtbl.mem m.alat r then Fall
    else begin
      m.stats.taken_branches <- m.stats.taken_branches + 1;
      match t with To n -> Jump n | Out reason -> Leave reason
    end
  | Invala -> Hashtbl.reset m.alat; Fall
  | Ldf (size, d, a) -> (
    if get_nat m a then raise (Machine_fault (F_nat, 0, size, false))
    else
      let addr = addr_of (g a) in
      m.stats.loads <- m.stats.loads + 1;
      match do_load m ~addr ~size with
      | bits ->
        let v =
          if size = 4 then Ia32.Fpconv.f32_of_bits (Int64.to_int (Int64.logand bits 0xFFFFFFFFL))
          else Ia32.Fpconv.f64_of_bits bits
        in
        setf m d v;
        m.stats.dcache_stall <- m.stats.dcache_stall + dcache_access m addr;
        Fall
      | exception Machine_fault (k, fa, fs, st) -> raise (Machine_fault (k, fa, fs, st)))
  | Stf (size, a, v) ->
    if get_nat m a then raise (Machine_fault (F_nat, 0, size, true));
    let addr = addr_of (g a) in
    m.stats.stores <- m.stats.stores + 1;
    let bits =
      if size = 4 then Int64.of_int (Ia32.Fpconv.bits_of_f32 (getf m v))
      else Ia32.Fpconv.bits_of_f64 (getf m v)
    in
    do_store m ~addr ~size bits;
    m.stats.dcache_stall <- m.stats.dcache_stall + dcache_access m addr;
    Fall
  | Fadd (d, a, b) -> setf m d (getf m a +. getf m b); Fall
  | Fsub (d, a, b) -> setf m d (getf m a -. getf m b); Fall
  | Fmul (d, a, b) -> setf m d (getf m a *. getf m b); Fall
  | Fma (d, a, b, c) -> setf m d ((getf m a *. getf m b) +. getf m c); Fall
  | Fdiv (d, a, b) -> setf m d (getf m a /. getf m b); Fall
  | Fsqrt (d, a) -> setf m d (Float.sqrt (getf m a)); Fall
  | Fneg (d, a) -> setf m d (-.getf m a); Fall
  | Fabs_ (d, a) -> setf m d (Float.abs (getf m a)); Fall
  | Fmov (d, a) -> setf m d (getf m a); Fall
  | Frint (d, a) -> setf m d (Ia32.Fpconv.rint (getf m a)); Fall
  | Fmin (d, a, b) ->
    let x = getf m a and y = getf m b in
    setf m d (if Float.is_nan x || Float.is_nan y then y else if x < y then x else y);
    Fall
  | Fmax (d, a, b) ->
    let x = getf m a and y = getf m b in
    setf m d (if Float.is_nan x || Float.is_nan y then y else if x > y then x else y);
    Fall
  | Fcmp (rel, p1, p2, a, b) ->
    let x = getf m a and y = getf m b in
    let r =
      match rel with
      | Feq -> x = y
      | Flt -> x < y
      | Fle -> x <= y
      | Funord -> Float.is_nan x || Float.is_nan y
    in
    setp m p1 r;
    setp m p2 (not r);
    Fall
  | Fcvt_xf (d, a) -> setf m d (Int64.to_float (g a)); Fall
  | Fcvt_fx (d, a) ->
    gn d (Int64.of_float (Ia32.Fpconv.rint (getf m a)));
    Fall
  | Fcvt_fxt (d, a) -> gn d (Int64.of_float (Float.trunc (getf m a))); Fall
  | Fcvt_32 (d, a) ->
    setf m d (Ia32.Fpconv.f32_of_bits (Ia32.Fpconv.bits_of_f32 (getf m a)));
    Fall
  | Getf_s (d, a) -> gn d (Int64.of_int (Ia32.Fpconv.bits_of_f32 (getf m a))); Fall
  | Getf_d (d, a) -> gn d (Ia32.Fpconv.bits_of_f64 (getf m a)); Fall
  | Setf_s (d, a) ->
    if get_nat m a then raise (Machine_fault (F_nat, 0, 4, false));
    setf m d (Ia32.Fpconv.f32_of_bits (Int64.to_int (Int64.logand (g a) 0xFFFFFFFFL)));
    Fall
  | Setf_d (d, a) ->
    if get_nat m a then raise (Machine_fault (F_nat, 0, 8, false));
    setf m d (Ia32.Fpconv.f64_of_bits (g a));
    Fall
  | Br t -> (
    m.stats.taken_branches <- m.stats.taken_branches + 1;
    match t with To n -> Jump n | Out reason -> Leave reason)
  | Br_ind b ->
    m.stats.taken_branches <- m.stats.taken_branches + 1;
    Jump m.br.(b)
  | Mov_to_br (b, a) -> m.br.(b) <- Int64.to_int (g a); Fall
  | Mov_from_br (d, b) -> gn d (Int64.of_int m.br.(b)); Fall
  | Hotc (s, threshold, id) ->
    let c = m.hotc.(s) + 1 in
    if c >= threshold then begin
      (* reset the slot before leaving, so a re-dispatch restarts cold *)
      m.hotc.(s) <- 0;
      m.stats.taken_branches <- m.stats.taken_branches + 1;
      Leave (Heat id)
    end
    else begin
      m.hotc.(s) <- c;
      Fall
    end
  | Edgec s ->
    let c = m.edgec.(s) in
    if c < edgec_saturate then m.edgec.(s) <- c + 1;
    Fall
  | Nop _ -> Fall

(* ---- timing ----------------------------------------------------------- *)

let latency_of m insn =
  let c = m.cost in
  match insn.Insn.sem with
  | Insn.Ld _ -> c.Cost.load_latency
  | Insn.Ldf _ -> c.Cost.fp_load_latency
  | Insn.Xma _ | Insn.Xmau _ | Insn.Xmah _ | Insn.Xmahu _ | Insn.Pmull _ ->
    c.Cost.mul_latency
  | Insn.Fadd _ | Insn.Fsub _ | Insn.Fmul _ | Insn.Fma _ | Insn.Fmin _
  | Insn.Fmax _ | Insn.Fneg _ | Insn.Fabs_ _ | Insn.Fmov _ | Insn.Frint _
  | Insn.Fcvt_xf _ | Insn.Fcvt_fx _
  | Insn.Fcvt_fxt _ | Insn.Fcvt_32 _ ->
    c.Cost.fp_latency
  | Insn.Fdiv _ | Insn.Divs _ | Insn.Divu _ | Insn.Rems _ | Insn.Remu _ ->
    c.Cost.fp_div_latency
  | Insn.Fsqrt _ -> c.Cost.fp_sqrt_latency
  | Insn.Getf_s _ | Insn.Getf_d _ | Insn.Setf_s _ | Insn.Setf_d _ ->
    c.Cost.xfer_latency
  | _ -> c.Cost.alu_latency

let slot_weight insn =
  match insn.Insn.sem with Insn.Movi _ -> 2 | _ -> 1

(* Advance the cycle counter, attributing the delta to the current bundle's
   bucket. *)
let charge m delta =
  if delta > 0 then begin
    m.stats.cycles <- m.stats.cycles + delta;
    let b = m.bucket_fn m.ip in
    m.buckets.(b land 7) <- m.buckets.(b land 7) + delta;
    match m.charge_probe with Some f -> f m.ip delta | None -> ()
  end

(* Group accounting: called when a group closes. [srcs_ready] is the max
   ready cycle over registers the group read; [weight] its slot weight. *)
let close_group m ~srcs_ready ~weight ~extra =
  let issue = max (m.stats.cycles + 1) srcs_ready in
  let span = (weight + m.cost.Cost.issue_slots - 1) / m.cost.Cost.issue_slots in
  charge m (issue + span - 1 + extra - m.stats.cycles);
  m.stats.groups <- m.stats.groups + 1;
  issue

(* ---- main run loop ---------------------------------------------------- *)

(* Runs from [m.ip] until an exit, a fault, or [fuel] retired slots. *)
let run ?(fuel = max_int) m =
  let fuel_left = ref fuel in
  (* group state *)
  let gweight = ref 0 in
  let gsrcs = ref 0 in
  let gextra = ref 0 in
  let gwrites : (Insn.res, int) Hashtbl.t = Hashtbl.create 16 in
  let reg_ready = function
    | Insn.Rgr r -> m.ready.(r)
    | Insn.Rfr f -> m.fready.(f)
    | Insn.Rpr _ | Insn.Rbr _ | Insn.Rmem -> 0
  in
  let flush_group () =
    if !gweight > 0 then begin
      let issue = close_group m ~srcs_ready:!gsrcs ~weight:!gweight ~extra:!gextra in
      Hashtbl.iter
        (fun res lat ->
          match res with
          | Insn.Rgr r -> m.ready.(r) <- issue + lat
          | Insn.Rfr f -> m.fready.(f) <- issue + lat
          | _ -> ())
        gwrites;
      Hashtbl.reset gwrites;
      gweight := 0;
      gsrcs := 0;
      gextra := 0
    end
  in
  (* dcache-stall watermark between [account] and [commit_timing]; a ref
     cell rather than a returned tuple+closure pair keeps the step loop
     allocation-free *)
  let stall_before = ref 0 in
  let account insn =
    (* intra-group RAW: conservatively split the group *)
    let raw =
      List.exists (fun r -> Hashtbl.mem gwrites r) (Insn.reads insn)
    in
    if raw then flush_group ();
    stall_before := m.stats.dcache_stall;
    List.iter (fun r -> gsrcs := max !gsrcs (reg_ready r)) (Insn.reads insn);
    gweight := !gweight + slot_weight insn
  in
  let commit_timing insn =
    (* dcache stalls observed during exec extend the group *)
    gextra := !gextra + (m.stats.dcache_stall - !stall_before);
    List.iter
      (fun r -> Hashtbl.replace gwrites r (latency_of m insn))
      (Insn.writes insn)
  in
  let rec step () =
    if !fuel_left <= 0 then begin
      flush_group ();
      Fuel
    end
    else begin
      let bundle = Tcache.get m.tcache m.ip in
      let insn = bundle.Bundle.slots.(m.slot) in
      let stop_after = bundle.Bundle.stops.(m.slot) in
      decr fuel_left;
      (match insn.Insn.sem with
      | Insn.Br (Insn.Out (Insn.Spec_fail _)) ->
        m.stats.spec_checks <- m.stats.spec_checks + 1
      | _ -> ());
      let enabled =
        match insn.Insn.qp with Some p -> getp m p | None -> true
      in
      account insn;
      let advance () =
        if m.slot = 2 then begin
          m.ip <- m.ip + 1;
          m.slot <- 0
        end
        else m.slot <- m.slot + 1;
        if stop_after then flush_group ()
      in
      if not enabled then begin
        commit_timing insn;
        (match insn.Insn.sem with
        | Insn.Nop _ -> ()
        | _ -> m.stats.slots_retired <- m.stats.slots_retired + 1);
        advance ();
        step ()
      end
      else
        match exec_sem m insn with
        | Fall ->
          commit_timing insn;
          (match insn.Insn.sem with
          | Insn.Nop _ -> ()
          | _ -> m.stats.slots_retired <- m.stats.slots_retired + 1);
          advance ();
          step ()
        | Jump n ->
          commit_timing insn;
          m.stats.slots_retired <- m.stats.slots_retired + 1;
          flush_group ();
          charge m m.cost.Cost.taken_branch_penalty;
          (match insn.Insn.sem with
          | Insn.Br_ind _ -> charge m m.cost.Cost.indirect_branch_penalty
          | _ -> ());
          m.ip <- n;
          m.slot <- 0;
          step ()
        | Leave reason ->
          commit_timing insn;
          m.stats.slots_retired <- m.stats.slots_retired + 1;
          flush_group ();
          m.last_exit <- (m.ip, m.slot);
          (* advance past the exit so a resume continues after it *)
          advance ();
          Exited reason
        | exception Machine_fault (kind, addr, size, store) ->
          flush_group ();
          Faulted { kind; addr; size; store; ip = m.ip; slot = m.slot }
    end
  in
  step ()
