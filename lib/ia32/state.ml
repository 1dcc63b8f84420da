(* Complete architectural IA-32 state: general registers (with 8/16-bit
   subregister views), EIP, EFLAGS, the x87/MMX unit, the XMM registers and
   a reference to guest memory. This is the state the translator must be
   able to reconstruct precisely at any exception point. *)

type t = {
  regs : int array; (* 8 canonical 32-bit values *)
  mutable eip : int;
  mutable cf : bool;
  mutable pf : bool;
  mutable af : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable of_ : bool;
  mutable df : bool;
  fpu : Fpu.t;
  xmm_lo : int64 array; (* 8 registers x 128 bits *)
  xmm_hi : int64 array;
  mem : Memory.t;
  mutable icache : Icache.t; (* interpreter decode cache *)
}

let create mem =
  {
    regs = Array.make 8 0;
    eip = 0;
    cf = false;
    pf = false;
    af = false;
    zf = false;
    sf = false;
    of_ = false;
    df = false;
    fpu = Fpu.create ();
    xmm_lo = Array.make 8 0L;
    xmm_hi = Array.make 8 0L;
    mem;
    icache = Icache.create ();
  }

let get32 t r = t.regs.(Insn.reg_index r)
let set32 t r v = t.regs.(Insn.reg_index r) <- Word.mask32 v

let get16 t r = Word.mask16 t.regs.(Insn.reg_index r)

let set16 t r v =
  let i = Insn.reg_index r in
  t.regs.(i) <- t.regs.(i) land 0xFFFF0000 lor Word.mask16 v

(* 8-bit registers use x86 numbering: 0-3 are the low bytes of eax..ebx,
   4-7 the second bytes (ah..bh). *)
let get8 t r =
  let i = Insn.reg_index r in
  if i < 4 then Word.mask8 t.regs.(i) else Word.mask8 (t.regs.(i - 4) lsr 8)

let set8 t r v =
  let i = Insn.reg_index r in
  if i < 4 then t.regs.(i) <- t.regs.(i) land 0xFFFFFF00 lor Word.mask8 v
  else t.regs.(i - 4) <- t.regs.(i - 4) land 0xFFFF00FF lor (Word.mask8 v lsl 8)

let get_reg size t r =
  match size with
  | Insn.S8 -> get8 t r
  | Insn.S16 -> get16 t r
  | Insn.S32 -> get32 t r

let set_reg size t r v =
  match size with
  | Insn.S8 -> set8 t r v
  | Insn.S16 -> set16 t r v
  | Insn.S32 -> set32 t r v

(* EFLAGS image for pushfd/popfd. Bit 1 is always set on IA-32. *)
let eflags_word t =
  0x2
  lor (if t.cf then 0x1 else 0)
  lor (if t.pf then 0x4 else 0)
  lor (if t.af then 0x10 else 0)
  lor (if t.zf then 0x40 else 0)
  lor (if t.sf then 0x80 else 0)
  lor (if t.df then 0x400 else 0)
  lor if t.of_ then 0x800 else 0

let set_eflags_word t w =
  t.cf <- w land 0x1 <> 0;
  t.pf <- w land 0x4 <> 0;
  t.af <- w land 0x10 <> 0;
  t.zf <- w land 0x40 <> 0;
  t.sf <- w land 0x80 <> 0;
  t.df <- w land 0x400 <> 0;
  t.of_ <- w land 0x800 <> 0

let eval_cond t (c : Insn.cond) =
  match c with
  | Insn.O -> t.of_
  | Insn.No -> not t.of_
  | Insn.B -> t.cf
  | Insn.Ae -> not t.cf
  | Insn.E -> t.zf
  | Insn.Ne -> not t.zf
  | Insn.Be -> t.cf || t.zf
  | Insn.A -> not (t.cf || t.zf)
  | Insn.S -> t.sf
  | Insn.Ns -> not t.sf
  | Insn.P -> t.pf
  | Insn.Np -> not t.pf
  | Insn.L -> t.sf <> t.of_
  | Insn.Ge -> t.sf = t.of_
  | Insn.Le -> t.zf || t.sf <> t.of_
  | Insn.G -> not t.zf && t.sf = t.of_

(* Effective address of a memory operand. *)
let ea t (m : Insn.mem) =
  let base = match m.base with Some r -> get32 t r | None -> 0 in
  let index =
    match m.index with Some (r, s) -> get32 t r * s | None -> 0
  in
  Word.mask32 (base + index + m.disp)

let get_xmm t i = (t.xmm_lo.(i land 7), t.xmm_hi.(i land 7))

let set_xmm t i (lo, hi) =
  t.xmm_lo.(i land 7) <- lo;
  t.xmm_hi.(i land 7) <- hi

let copy t =
  {
    regs = Array.copy t.regs;
    eip = t.eip;
    cf = t.cf;
    pf = t.pf;
    af = t.af;
    zf = t.zf;
    sf = t.sf;
    of_ = t.of_;
    df = t.df;
    fpu = Fpu.copy t.fpu;
    xmm_lo = Array.copy t.xmm_lo;
    xmm_hi = Array.copy t.xmm_hi;
    mem = t.mem;
    icache = Icache.create ();
  }

(* In-place restore of the architectural state from a captured copy:
   existing references to [dst] (the engine, Vos thread records) stay
   valid, and its decode cache is kept — entries are generation-validated
   against memory, so a warm cache is correct across a snapshot revert. *)
let restore_into ~src ~dst =
  Array.blit src.regs 0 dst.regs 0 8;
  dst.eip <- src.eip;
  dst.cf <- src.cf;
  dst.pf <- src.pf;
  dst.af <- src.af;
  dst.zf <- src.zf;
  dst.sf <- src.sf;
  dst.of_ <- src.of_;
  dst.df <- src.df;
  Array.blit src.fpu.Fpu.fval 0 dst.fpu.Fpu.fval 0 8;
  Array.blit src.fpu.Fpu.ival 0 dst.fpu.Fpu.ival 0 8;
  Array.blit src.fpu.Fpu.tags 0 dst.fpu.Fpu.tags 0 8;
  dst.fpu.Fpu.top <- src.fpu.Fpu.top;
  dst.fpu.Fpu.c0 <- src.fpu.Fpu.c0;
  dst.fpu.Fpu.c1 <- src.fpu.Fpu.c1;
  dst.fpu.Fpu.c2 <- src.fpu.Fpu.c2;
  dst.fpu.Fpu.c3 <- src.fpu.Fpu.c3;
  Array.blit src.xmm_lo 0 dst.xmm_lo 0 8;
  Array.blit src.xmm_hi 0 dst.xmm_hi 0 8
