(* Register conventions: where the IA-32 architectural state lives in the
   IPF register files (the paper's "canonic locations"). The translator
   allocates the whole flat frame (the paper grabs the full 96-register
   stack); cold code uses fixed scratch registers, hot code allocates
   virtual registers mapped into the renaming pool. *)

(* canonic 32-bit GPRs, zero-extended: eax..edi -> r8..r15 *)
let gr_of_reg r = 8 + Ia32.Insn.reg_index r

(* EFLAGS bits as 0/1 values *)
let gr_of_flag = function
  | Ia32.Insn.CF -> 16
  | Ia32.Insn.PF -> 17
  | Ia32.Insn.AF -> 18
  | Ia32.Insn.ZF -> 19
  | Ia32.Insn.SF -> 20
  | Ia32.Insn.OF -> 21
  | Ia32.Insn.DF -> 22

(* The "IA-32 state register": holds the IA-32 IP of the instruction whose
   translation is executing (updated before potentially-faulty sequences). *)
let r_state = 23

(* r24..r39 stay free: cold code takes its scratch GRs from the hot pool
   below, reset at each IA-32 instruction. *)

(* FP runtime status: current top-of-stack, TAG valid mask (bit i = physical
   x87 register i is valid), MMX-mode boolean, SSE format status (one nibble
   per XMM register). *)
let r_tos = 41
let r_tag = 42

(* MMX/FP aliasing staleness masks (bit i = x87 physical slot i):
   [r_fstale]: the FP view (FR) is stale — an MMX write left the real FP
   value as a NaN pattern that has not been materialized yet.
   [r_mstale]: the MMX view (GR) is stale — an x87 write has not been
   copied across. FP blocks check r_fstale = 0, MMX blocks check
   r_mstale = 0; a miss runs the sync recovery (paper's Boolean toggle). *)
let r_fstale = 43
let r_mstale = 46
let r_ssefmt = 44

(* Indirect-branch target (IA-32 address) communicated to the runtime. *)
let r_btarget = 45

(* FP parking offset: how far the physical x87/MMX register file is rotated
   away from its canonic parking (slot i of the architectural FPU in
   FR/GR index i). [Reconstruct.rotate_tos] maintains it; only engine-side
   recovery code ever writes it — translated code treats parking as an
   invariant and MMX block heads check it is 0 before relying on absolute
   register indices. *)
let r_park = 47

(* MMX registers (integer view): mm0..mm7 -> r48..r55. *)
let gr_of_mmx i = 48 + (i land 7)

(* XMM integer layout: 2 GRs per register. *)
let gr_of_xmm_lo i = 56 + (2 * (i land 7))
let gr_of_xmm_hi i = 57 + (2 * (i land 7))

(* Hot-phase renaming/backup pool. *)
let hot_pool_first = 72
let hot_pool_last = 126

(* x87 physical registers: stack slot i -> f8+i. *)
let fr_of_phys i = 8 + (i land 7)

(* XMM floating layouts: 4 FRs per register (base .. base+3).
   - packed/scalar single: lane k in base+k (single-precision values)
   - packed/scalar double: lo double in base, hi double in base+1 *)
let fr_of_xmm_base i = 16 + (4 * (i land 7))

(* Cold FP scratch. The widest single-instruction demand is a packed-single
   SSE op with a memory source: 4 lane loads plus a rounding temp per lane
   (8 live FRs), so the pool spans the full f119..f127 gap above the hot
   FP temp pool. *)
let cold_fscratch_first = 119
let cold_fscratch_last = 127

(* Hot FP temp pool. *)
let hot_fpool_first = 48
let hot_fpool_last = 118

(* Predicate conventions: p0 = true; p1..p5 reserved for block-head checks;
   p6..p40 general (cold scratch from p6 up); hot predication allocates
   from p8 up. *)
let pr_scratch1 = 6
let hot_pr_first = 8
let hot_pr_last = 40

(* SSE format codes stored in the r_ssefmt nibbles. *)
let fmt_int = 0
let fmt_ps = 1
let fmt_pd = 2

let fmt_of_nibbles status i = (status lsr (4 * i)) land 0xF

let set_fmt_nibble status i fmt =
  status land lnot (0xF lsl (4 * i)) lor (fmt lsl (4 * i))
