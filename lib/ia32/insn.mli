(** IA-32 instruction AST.

    This is the single instruction representation shared by the assembler
    ({!Asm}), the binary encoder ({!Encode}) and decoder ({!Decode}), the
    reference interpreter ({!Interp}) and the IA-32 EL translator. Branch
    targets are absolute 32-bit addresses (the decoder resolves relative
    displacements). *)

(** The eight 32-bit general registers. With [S16]/[S8] operand sizes the
    same constructors denote the 16-bit registers or the x86-numbered 8-bit
    registers (indices 0-3: al..bl, 4-7: ah..bh). *)
type reg = Eax | Ecx | Edx | Ebx | Esp | Ebp | Esi | Edi

val reg_index : reg -> int
val reg_of_index : int -> reg
val all_regs : reg list
val reg_name : reg -> string

(** Operand size in bytes: 1, 2 or 4. *)
type size = S8 | S16 | S32

val size_bytes : size -> int

(** An IA-32 addressing mode: [base + index*scale + disp]. *)
type mem = {
  base : reg option;
  index : (reg * int) option;  (** scale is 1, 2, 4 or 8; index is not Esp *)
  disp : int;  (** canonical 32-bit displacement *)
}

val mem_abs : int -> mem
val mem_b : reg -> mem
val mem_bd : reg -> int -> mem
val mem_full : reg -> reg -> int -> int -> mem

type operand =
  | R of reg
  | M of mem
  | I of int  (** immediate, canonical 32-bit *)

(** Branch/set/cmov condition codes, in x86 encoding order. *)
type cond = O | No | B | Ae | E | Ne | Be | A | S | Ns | P | Np | L | Ge | Le | G

val cond_index : cond -> int
val cond_of_index : int -> cond
val cond_negate : cond -> cond
val cond_name : cond -> string

(** EFLAGS bits modeled (the six arithmetic flags plus the direction flag). *)
type flag = CF | PF | AF | ZF | SF | OF | DF

val all_flags : flag list

(** Flags read when evaluating a condition. *)
val cond_uses : cond -> flag list

type alu = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp

val alu_index : alu -> int
val alu_of_index : int -> alu

type shift = Shl | Shr | Sar | Rol | Ror

(** Shift amount: immediate or the CL register. *)
type amount = Amt_imm of int | Amt_cl

(** String-operation repeat prefix. *)
type rep = No_rep | Rep | Repe | Repne

type fsize = F32 | F64
type isize = I16 | I32
type fop = FAdd | FSub | FSubr | FMul | FDiv | FDivr

(** x87 floating-point instructions. [st(i)] operands are top-relative. *)
type fp_insn =
  | Fld_st of int
  | Fld_m of fsize * mem
  | Fld1
  | Fldz
  | Fldpi
  | Fst_st of int * bool  (** pop *)
  | Fst_m of fsize * mem * bool  (** pop *)
  | Fild of isize * mem
  | Fist_m of isize * mem * bool  (** pop *)
  | Fop_st0_st of fop * int  (** st0 <- st0 op st(i) *)
  | Fop_st_st0 of fop * int * bool  (** st(i) <- st(i) op st0, optional pop *)
  | Fop_m of fop * fsize * mem  (** st0 <- st0 op mem *)
  | Fchs
  | Fabs
  | Fsqrt
  | Frndint
  | Fcom_st of int * int  (** compares st0 with st(i); second field = pops (0-2) *)
  | Fcom_m of fsize * mem * int  (** pops: 0 or 1 *)
  | Fnstsw_ax
  | Fxch of int
  | Ffree of int
  | Fincstp
  | Fdecstp

type mmx_rm = MM of int | MMem of mem

(** MMX instructions. The first [int] of packed ops is the element width in
    bytes (1, 2, 4 or 8). *)
type mmx_insn =
  | Movd_to_mm of int * operand
  | Movd_from_mm of operand * int
  | Movq_to_mm of int * mmx_rm
  | Movq_from_mm of mmx_rm * int
  | Padd of int * int * mmx_rm
  | Psub of int * int * mmx_rm
  | Pmullw of int * mmx_rm
  | Pand of int * mmx_rm
  | Por of int * mmx_rm
  | Pxor of int * mmx_rm
  | Pcmpeq of int * int * mmx_rm
  | Psll of int * int * int
  | Psrl of int * int * int
  | Emms

type xmm_rm = XM of int | XMem of mem

type sse_op = SAdd | SSub | SMul | SDiv | SMin | SMax

(** The four XMM data formats tracked by the translator's SSE format
    speculation, plus packed-integer. *)
type sse_fmt = Packed_single | Packed_double | Scalar_single | Scalar_double | Packed_int

type sse_insn =
  | Movaps of xmm_rm * xmm_rm
  | Movups of xmm_rm * xmm_rm
  | Movss of xmm_rm * xmm_rm
  | Movsd_x of xmm_rm * xmm_rm
  | Sse_arith of sse_op * sse_fmt * int * xmm_rm
  | Sqrtps of int * xmm_rm
  | Andps of int * xmm_rm
  | Orps of int * xmm_rm
  | Xorps of int * xmm_rm
  | Paddd_x of int * xmm_rm
  | Psubd_x of int * xmm_rm
  | Ucomiss of int * xmm_rm
  | Cvtsi2ss of int * operand
  | Cvttss2si of reg * xmm_rm
  | Cvtss2sd of int * xmm_rm
  | Cvtsd2ss of int * xmm_rm

type insn =
  | Alu of alu * size * operand * operand
  | Test of size * operand * operand
  | Mov of size * operand * operand
  | Movzx of size * reg * operand
  | Movsx of size * reg * operand
  | Lea of reg * mem
  | Shift of shift * size * operand * amount
  | Shld of operand * reg * amount
  | Shrd of operand * reg * amount
  | Inc of size * operand
  | Dec of size * operand
  | Neg of size * operand
  | Not of size * operand
  | Imul_rr of reg * operand
  | Imul_rri of reg * operand * int
  | Mul1 of size * operand
  | Imul1 of size * operand
  | Div of size * operand
  | Idiv of size * operand
  | Cdq
  | Cwde
  | Xchg of size * operand * reg
  | Push of operand
  | Pop of operand
  | Pushfd
  | Popfd
  | Jmp of int
  | Jcc of cond * int
  | Call of int
  | Jmp_ind of operand
  | Call_ind of operand
  | Ret of int
  | Setcc of cond * operand
  | Cmovcc of cond * reg * operand
  | Movs of size * rep
  | Stos of size * rep
  | Lods of size * rep
  | Scas of size * rep
  | Cld
  | Std
  | Int_n of int
  | Hlt
  | Ud2
  | Nop
  | Fp of fp_insn
  | Mmx of mmx_insn
  | Sse of sse_insn

(** EFLAGS bits written by the instruction. *)
val flags_def : insn -> flag list

(** EFLAGS bits guaranteed to be written — the kill set for liveness (CL
    shifts and zero-count shifts may leave flags untouched). *)
val flags_def_must : insn -> flag list

(** EFLAGS bits read by the instruction. *)
val flags_use : insn -> flag list

(** [true] when control leaves the basic block after the instruction. *)
val is_block_end : insn -> bool

(** Memory locations accessed: [(addressing mode, width in bytes, is_store)].
    Implicit stack/string accesses are reported through their base register. *)
val mem_refs : insn -> (mem * int * bool) list

(** Whether the instruction can raise an IA-32 exception (page fault,
    divide error, FP stack fault, ...). *)
val may_fault : insn -> bool

val pp : Format.formatter -> insn -> unit
val to_string : insn -> string
