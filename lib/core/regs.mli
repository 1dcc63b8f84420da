(** Register conventions: where the IA-32 architectural state lives in
    the IPF register files (the paper's "canonic locations").

    The translator owns the whole flat register frame. Cold code uses
    fixed scratch ranges reset at every IA-32 instruction; hot code
    allocates virtual registers that the renamer maps into the renaming
    pool. Reconstruction ({!Reconstruct}) reads the canonic locations
    listed here to build an architectural {!Ia32.State.t}. *)

val gr_of_reg : Ia32.Insn.reg -> int
(** Canonic GR of a 32-bit GPR, zero-extended: EAX..EDI -> r8..r15. *)

val gr_of_flag : Ia32.Insn.flag -> int
(** Canonic GR of an EFLAGS bit, holding 0/1: CF..DF -> r16..r22. *)

val r_state : int
(** The "IA-32 state register" (r23): IA-32 IP of the instruction whose
    translation is executing, updated before potentially-faulty
    sequences in cold code (paper §4.2). *)

val r_tos : int
(** Runtime x87 top-of-stack (r41), checked by FP block heads. *)

val r_tag : int
(** Runtime TAG valid mask (r42): bit i = x87 physical slot i valid. *)

val r_fstale : int
(** FP-view staleness mask (r43): bit i set means an MMX write to slot i
    has not been materialized in the FR file yet. FP blocks check 0. *)

val r_mstale : int
(** MMX-view staleness mask (r46): an x87 write not yet copied to the GR
    (integer) view. MMX blocks check 0. *)

val r_ssefmt : int
(** SSE format status (r44): one nibble per XMM register. *)

val r_btarget : int
(** Indirect-branch target (IA-32 address) passed to the runtime. *)

val r_park : int
(** FP parking offset (r47): rotation of the physical x87/MMX file away
    from canonic parking (architectural slot i in FR/GR index i).
    Maintained by {!Reconstruct.rotate_tos}; 0 means canonic. MMX block
    heads check it because their register accesses are absolute. *)

val gr_of_mmx : int -> int
(** MMX integer view: mm0..mm7 -> r48..r55. *)

val gr_of_xmm_lo : int -> int
(** XMM integer layout, low half: 2 GRs per register from r56. *)

val gr_of_xmm_hi : int -> int

val hot_pool_first : int
(** Hot-phase renaming/backup GR pool (r72..r126). *)

val hot_pool_last : int

val fr_of_phys : int -> int
(** x87 physical slot i -> f8+i. *)

val fr_of_xmm_base : int -> int
(** XMM floating layouts: 4 FRs per register from f16. Packed single
    keeps lane k in base+k; packed double keeps lo/hi in base/base+1. *)

val cold_fscratch_first : int
val cold_fscratch_last : int
val hot_fpool_first : int
val hot_fpool_last : int

val pr_scratch1 : int
(** First cold scratch predicate (p6); p1..p5 are reserved for
    block-head speculation checks. *)

val hot_pr_first : int
val hot_pr_last : int

(** {1 SSE format codes (nibbles of {!r_ssefmt})} *)

val fmt_int : int
val fmt_ps : int
val fmt_pd : int
val fmt_of_nibbles : int -> int -> int
val set_fmt_nibble : int -> int -> int -> int
