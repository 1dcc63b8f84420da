(* The EPIC machine state: register files, guest memory with fault
   conversion, the ALAT, the dcache model and the cost primitives of the
   in-order grouped-issue timing model. The instruction semantics and the
   loop that runs them are [Exec]'s.

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
  (* cycle attribution: the bucket (e.g. cold/hot code) of each bundle
     index, so chained block-to-block execution can be accounted without
     leaving the machine. Bundles past its end are bucket 0. *)
  mutable bucket_of : int array;
  mutable bucket_gen : int; (* bumped whenever [bucket_of] changes *)
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
     counter traffic cannot perturb the modeled dcache. *)
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

let create ?(cost = Cost.default) mem tcache =
  let dcache = Dcache.create () in
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
      bucket_of = [||];
      bucket_gen = 0;
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

(* Convenience for the translator runtime: 32-bit canonical view. *)
let get32 m r = Int64.to_int (Int64.logand (get m r) 0xFFFFFFFFL)
let set32 m r v = set m r (Int64.of_int (Ia32.Word.mask32 v))

(* ---- memory with fault conversion ------------------------------------- *)

(* An overlapping store kills matching ALAT entries; fold out the victims
   first (removal while iterating is unspecified), which costs nothing on
   the common empty-ALAT path. Called after the write, so a faulting
   store leaves the ALAT untouched. *)
let kill_alat m ~addr ~size =
  if Hashtbl.length m.alat > 0 then begin
    let victims =
      Hashtbl.fold
        (fun r (a, s) acc ->
          if addr < a + s && a < addr + size then r :: acc else acc)
        m.alat []
    in
    List.iter (Hashtbl.remove m.alat) victims
  end

(* The 8-byte accesses. An aligned access never straddles a page (page
   size is a multiple of every access size), so the unmapped / protection
   checks ride on the ia32 layer's own page lookup. [Exec] does the 1-,
   2- and 4-byte accesses itself, with ints, in the same order:
   misalignment, then the page, then the ALAT kill. *)
let load64 m ~addr =
  if addr land 7 <> 0 then raise (Machine_fault (F_misalign, addr, 8, false));
  match Ia32.Memory.read64 m.mem addr with
  | v -> v
  | exception Ia32.Fault.Fault _ -> raise (Machine_fault (F_page, addr, 8, false))

let store64 m ~addr v =
  if addr land 7 <> 0 then raise (Machine_fault (F_misalign, addr, 8, true));
  (match Ia32.Memory.write64 m.mem addr v with
  | () -> ()
  | exception Ia32.Fault.Fault _ -> raise (Machine_fault (F_page, addr, 8, true)));
  kill_alat m ~addr ~size:8

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

(* ---- cycle attribution ------------------------------------------------ *)

let bucket_at m bundle =
  if bundle >= 0 && bundle < Array.length m.bucket_of then m.bucket_of.(bundle)
  else 0

let set_bucket m ~start ~len b =
  let stop = start + len in
  if stop > Array.length m.bucket_of then begin
    let a = Array.make (max 1024 (2 * stop)) 0 in
    Array.blit m.bucket_of 0 a 0 (Array.length m.bucket_of);
    m.bucket_of <- a
  end;
  Array.fill m.bucket_of start len (b land 7);
  m.bucket_gen <- m.bucket_gen + 1

let clear_buckets m =
  Array.fill m.bucket_of 0 (Array.length m.bucket_of) 0;
  m.bucket_gen <- m.bucket_gen + 1

(* Advance the cycle counter, attributing the delta to the current bundle's
   bucket. *)
let charge m delta =
  if delta > 0 then begin
    m.stats.cycles <- m.stats.cycles + delta;
    let b = bucket_at m m.ip in
    m.buckets.(b) <- m.buckets.(b) + delta;
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
