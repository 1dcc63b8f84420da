(* IA-32 instruction AST shared by the assembler, encoder, decoder,
   reference interpreter and the binary translator. *)

type reg = Eax | Ecx | Edx | Ebx | Esp | Ebp | Esi | Edi

let reg_index = function
  | Eax -> 0 | Ecx -> 1 | Edx -> 2 | Ebx -> 3
  | Esp -> 4 | Ebp -> 5 | Esi -> 6 | Edi -> 7

let reg_of_index = function
  | 0 -> Eax | 1 -> Ecx | 2 -> Edx | 3 -> Ebx
  | 4 -> Esp | 5 -> Ebp | 6 -> Esi | 7 -> Edi
  | n -> invalid_arg (Printf.sprintf "Insn.reg_of_index: %d" n)

let all_regs = [ Eax; Ecx; Edx; Ebx; Esp; Ebp; Esi; Edi ]

let reg_name = function
  | Eax -> "eax" | Ecx -> "ecx" | Edx -> "edx" | Ebx -> "ebx"
  | Esp -> "esp" | Ebp -> "ebp" | Esi -> "esi" | Edi -> "edi"

(* Operand sizes in bytes. 8-bit register operands use the x86 numbering
   (0-3: al,cl,dl,bl; 4-7: ah,ch,dh,bh) carried by the [reg] constructor of
   the same index. *)
type size = S8 | S16 | S32

let size_bytes = function S8 -> 1 | S16 -> 2 | S32 -> 4

type mem = {
  base : reg option;
  index : (reg * int) option; (* scale in {1,2,4,8}; index may not be Esp *)
  disp : int; (* canonical 32-bit value *)
}

let mem_abs disp = { base = None; index = None; disp = Word.mask32 disp }
let mem_b base = { base = Some base; index = None; disp = 0 }
let mem_bd base disp = { base = Some base; index = None; disp = Word.mask32 disp }
let mem_full base index scale disp =
  { base = Some base; index = Some (index, scale); disp = Word.mask32 disp }

type operand =
  | R of reg
  | M of mem
  | I of int (* immediate, canonical 32-bit *)

type cond = O | No | B | Ae | E | Ne | Be | A | S | Ns | P | Np | L | Ge | Le | G

let cond_index = function
  | O -> 0 | No -> 1 | B -> 2 | Ae -> 3 | E -> 4 | Ne -> 5 | Be -> 6 | A -> 7
  | S -> 8 | Ns -> 9 | P -> 10 | Np -> 11 | L -> 12 | Ge -> 13 | Le -> 14 | G -> 15

let cond_of_index = function
  | 0 -> O | 1 -> No | 2 -> B | 3 -> Ae | 4 -> E | 5 -> Ne | 6 -> Be | 7 -> A
  | 8 -> S | 9 -> Ns | 10 -> P | 11 -> Np | 12 -> L | 13 -> Ge | 14 -> Le | 15 -> G
  | n -> invalid_arg (Printf.sprintf "Insn.cond_of_index: %d" n)

let cond_negate c = cond_of_index (cond_index c lxor 1)

let cond_name = function
  | O -> "o" | No -> "no" | B -> "b" | Ae -> "ae" | E -> "e" | Ne -> "ne"
  | Be -> "be" | A -> "a" | S -> "s" | Ns -> "ns" | P -> "p" | Np -> "np"
  | L -> "l" | Ge -> "ge" | Le -> "le" | G -> "g"

type flag = CF | PF | AF | ZF | SF | OF | DF

let all_flags = [ CF; PF; AF; ZF; SF; OF; DF ]
let arith_flags = [ CF; PF; AF; ZF; SF; OF ]

(* Flags read to evaluate a condition. *)
let cond_uses = function
  | O | No -> [ OF ]
  | B | Ae -> [ CF ]
  | E | Ne -> [ ZF ]
  | Be | A -> [ CF; ZF ]
  | S | Ns -> [ SF ]
  | P | Np -> [ PF ]
  | L | Ge -> [ SF; OF ]
  | Le | G -> [ ZF; SF; OF ]

type alu = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp

let alu_index = function
  | Add -> 0 | Or -> 1 | Adc -> 2 | Sbb -> 3 | And -> 4 | Sub -> 5 | Xor -> 6 | Cmp -> 7

let alu_of_index = function
  | 0 -> Add | 1 -> Or | 2 -> Adc | 3 -> Sbb | 4 -> And | 5 -> Sub | 6 -> Xor | 7 -> Cmp
  | n -> invalid_arg (Printf.sprintf "Insn.alu_of_index: %d" n)

let alu_name = function
  | Add -> "add" | Or -> "or" | Adc -> "adc" | Sbb -> "sbb"
  | And -> "and" | Sub -> "sub" | Xor -> "xor" | Cmp -> "cmp"

type shift = Shl | Shr | Sar | Rol | Ror

let shift_name = function
  | Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Rol -> "rol" | Ror -> "ror"

type amount = Amt_imm of int | Amt_cl

type rep = No_rep | Rep | Repe | Repne

(* x87 floating point. Memory operand sizes: F32 / F64 for reals,
   I16 / I32 for integers. ST indices are relative to the top of stack. *)
type fsize = F32 | F64
type isize = I16 | I32
type fop = FAdd | FSub | FSubr | FMul | FDiv | FDivr

let fop_name = function
  | FAdd -> "fadd" | FSub -> "fsub" | FSubr -> "fsubr"
  | FMul -> "fmul" | FDiv -> "fdiv" | FDivr -> "fdivr"

type fp_insn =
  | Fld_st of int
  | Fld_m of fsize * mem
  | Fld1
  | Fldz
  | Fldpi
  | Fst_st of int * bool (* pop *)
  | Fst_m of fsize * mem * bool (* pop *)
  | Fild of isize * mem
  | Fist_m of isize * mem * bool (* pop; fist (no pop) exists for I16/I32 *)
  | Fop_st0_st of fop * int (* st0 <- st0 op st(i) *)
  | Fop_st_st0 of fop * int * bool (* st(i) <- st(i) op st0, optional pop *)
  | Fop_m of fop * fsize * mem (* st0 <- st0 op mem *)
  | Fchs
  | Fabs
  | Fsqrt
  | Frndint
  | Fcom_st of int * int (* pops: 0, 1 or 2 (fcompp has i = 1) *)
  | Fcom_m of fsize * mem * int (* pops: 0 or 1 *)
  | Fnstsw_ax
  | Fxch of int
  | Ffree of int
  | Fincstp
  | Fdecstp

(* MMX. Element width for packed ops: 1, 2, 4 or 8 bytes. Operands are an
   MMX register index (0-7) and either another MMX register or a memory
   location. *)
type mmx_rm = MM of int | MMem of mem

type mmx_insn =
  | Movd_to_mm of int * operand (* r/m32 -> mm *)
  | Movd_from_mm of operand * int (* mm -> r/m32 *)
  | Movq_to_mm of int * mmx_rm
  | Movq_from_mm of mmx_rm * int
  | Padd of int * int * mmx_rm (* elem bytes, dst mm, src *)
  | Psub of int * int * mmx_rm
  | Pmullw of int * mmx_rm
  | Pand of int * mmx_rm
  | Por of int * mmx_rm
  | Pxor of int * mmx_rm
  | Pcmpeq of int * int * mmx_rm (* elem bytes, dst, src *)
  | Psll of int * int * int (* elem bytes, mm, imm *)
  | Psrl of int * int * int
  | Emms

(* SSE / SSE2. XMM operands: register index (0-7) or memory. *)
type xmm_rm = XM of int | XMem of mem

type sse_op = SAdd | SSub | SMul | SDiv | SMin | SMax

let sse_op_name = function
  | SAdd -> "add" | SSub -> "sub" | SMul -> "mul"
  | SDiv -> "div" | SMin -> "min" | SMax -> "max"

(* Data format of an SSE operation, as tracked by the translator. *)
type sse_fmt = Packed_single | Packed_double | Scalar_single | Scalar_double | Packed_int

let sse_fmt_name = function
  | Packed_single -> "ps" | Packed_double -> "pd"
  | Scalar_single -> "ss" | Scalar_double -> "sd" | Packed_int -> "pi"

type sse_insn =
  | Movaps of xmm_rm * xmm_rm (* dst, src; one side must be a register *)
  | Movups of xmm_rm * xmm_rm
  | Movss of xmm_rm * xmm_rm
  | Movsd_x of xmm_rm * xmm_rm
  | Sse_arith of sse_op * sse_fmt * int * xmm_rm (* fmt in {ps,pd,ss,sd} *)
  | Sqrtps of int * xmm_rm
  | Andps of int * xmm_rm
  | Orps of int * xmm_rm
  | Xorps of int * xmm_rm
  | Paddd_x of int * xmm_rm (* SSE2 packed 32-bit int add *)
  | Psubd_x of int * xmm_rm
  | Ucomiss of int * xmm_rm (* sets ZF/PF/CF *)
  | Cvtsi2ss of int * operand (* r/m32 -> xmm scalar single *)
  | Cvttss2si of reg * xmm_rm
  | Cvtss2sd of int * xmm_rm
  | Cvtsd2ss of int * xmm_rm

type insn =
  | Alu of alu * size * operand * operand (* dst, src; Cmp writes no result *)
  | Test of size * operand * operand
  | Mov of size * operand * operand
  | Movzx of size * reg * operand (* src size (S8/S16), 32-bit dst, r/m src *)
  | Movsx of size * reg * operand
  | Lea of reg * mem
  | Shift of shift * size * operand * amount
  | Shld of operand * reg * amount (* 32-bit only *)
  | Shrd of operand * reg * amount
  | Inc of size * operand
  | Dec of size * operand
  | Neg of size * operand
  | Not of size * operand
  | Imul_rr of reg * operand (* r32 <- r32 * r/m32 *)
  | Imul_rri of reg * operand * int (* r32 <- r/m32 * imm *)
  | Mul1 of size * operand (* edx:eax <- eax * r/m (unsigned) *)
  | Imul1 of size * operand
  | Div of size * operand (* eax, edx <- edx:eax / r/m *)
  | Idiv of size * operand
  | Cdq
  | Cwde
  | Xchg of size * operand * reg
  | Push of operand
  | Pop of operand
  | Pushfd
  | Popfd
  | Jmp of int (* absolute target *)
  | Jcc of cond * int
  | Call of int
  | Jmp_ind of operand
  | Call_ind of operand
  | Ret of int (* extra bytes to pop *)
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

(* ------------------------------------------------------------------ *)
(* Metadata used by the translator.                                    *)
(* ------------------------------------------------------------------ *)

(* Flags written by an instruction. Shifts by a possibly-zero CL amount
   conservatively count as writing (the interpreter leaves flags unchanged
   for a zero shift; the translator treats CL shifts as both using and
   defining flags, see [flags_use]). *)
let flags_def = function
  | Alu ((Add | Sub | Adc | Sbb | Cmp), _, _, _) -> arith_flags
  | Alu ((And | Or | Xor), _, _, _) -> arith_flags
  | Test _ -> arith_flags
  | Inc _ | Dec _ -> [ PF; AF; ZF; SF; OF ]
  | Neg _ -> arith_flags
  | Shift ((Rol | Ror), _, _, _) -> [ CF; OF ]
  | Shift ((Shl | Shr | Sar), _, _, _) -> [ CF; PF; ZF; SF; OF ]
  | Shld _ | Shrd _ -> [ CF; PF; ZF; SF; OF ]
  | Imul_rr _ | Imul_rri _ | Mul1 _ | Imul1 _ -> [ CF; OF ]
  | Scas _ | Popfd -> all_flags
  | Cld | Std -> [ DF ]
  | Fp Fnstsw_ax -> []
  | Sse (Ucomiss _) -> arith_flags (* zeroes OF/AF/SF, sets ZF/PF/CF *)
  | _ -> []

(* Flags guaranteed to be written (kill set for liveness): shifts by CL or
   by an immediate count of zero leave the flags untouched, so they may-def
   ({!flags_def}) but must not kill. *)
let flags_def_must insn =
  match insn with
  | Shift (_, _, _, (Amt_cl | Amt_imm 0)) -> []
  | Shift (_, _, _, Amt_imm n) when n land 31 = 0 -> []
  | Shld (_, _, (Amt_cl | Amt_imm 0)) | Shrd (_, _, (Amt_cl | Amt_imm 0)) -> []
  | Shld (_, _, Amt_imm n) | Shrd (_, _, Amt_imm n) when n land 31 = 0 -> []
  | _ -> flags_def insn

(* Flags read by an instruction. *)
let flags_use = function
  | Alu ((Adc | Sbb), _, _, _) -> [ CF ]
  | Shift ((Rol | Ror), _, _, Amt_cl) -> [ CF; OF ] (* zero-count keeps old *)
  | Shift ((Shl | Shr | Sar), _, _, Amt_cl) -> [ CF; PF; ZF; SF; OF ]
  | Shld (_, _, Amt_cl) | Shrd (_, _, Amt_cl) -> [ CF; PF; ZF; SF; OF ]
  | Jcc (c, _) | Setcc (c, _) | Cmovcc (c, _, _) -> cond_uses c
  | Movs _ | Stos _ | Lods _ | Scas _ -> [ DF ]
  | Pushfd -> all_flags
  | _ -> []

(* An instruction after which control leaves the basic block. *)
let is_block_end = function
  | Jmp _ | Jcc _ | Call _ | Jmp_ind _ | Call_ind _ | Ret _ | Int_n _ | Hlt | Ud2 -> true
  | _ -> false

(* Memory locations touched by an instruction, together with the access
   width in bytes and whether it is a store. Implicit stack and string
   accesses are reported with [base] only. *)
let mem_refs insn =
  let rd m n = [ (m, n, false) ] in
  let wr m n = [ (m, n, true) ] in
  let rw m n = [ (m, n, false); (m, n, true) ] in
  let sz s = size_bytes s in
  let fsz = function F32 -> 4 | F64 -> 8 in
  let isz = function I16 -> 2 | I32 -> 4 in
  match insn with
  | Alu (Cmp, s, d, src) | Test (s, d, src) -> (
    match (d, src) with
    | M m, _ | _, M m -> rd m (sz s)
    | _ -> [])
  | Alu (_, s, M m, _) -> rw m (sz s)
  | Alu (_, s, _, M m) -> rd m (sz s)
  | Mov (s, M m, _) -> wr m (sz s)
  | Mov (s, _, M m) -> rd m (sz s)
  | Movzx (s, _, M m) | Movsx (s, _, M m) -> rd m (sz s)
  | Shift (_, s, M m, _) -> rw m (sz s)
  | Shld (M m, _, _) | Shrd (M m, _, _) -> rw m 4
  | Inc (s, M m) | Dec (s, M m) | Neg (s, M m) | Not (s, M m) -> rw m (sz s)
  | Imul_rr (_, M m) | Imul_rri (_, M m, _) -> rd m 4
  | Mul1 (s, M m) | Imul1 (s, M m) | Div (s, M m) | Idiv (s, M m) -> rd m (sz s)
  | Xchg (s, M m, _) -> rw m (sz s)
  | Push (M m) -> rd m 4 @ wr (mem_bd Esp (-4)) 4
  | Push _ -> wr (mem_bd Esp (-4)) 4
  | Pop (M m) -> rd (mem_b Esp) 4 @ wr m 4
  | Pop _ -> rd (mem_b Esp) 4
  | Pushfd -> wr (mem_bd Esp (-4)) 4
  | Popfd -> rd (mem_b Esp) 4
  | Call _ | Call_ind (R _) | Call_ind (I _) -> wr (mem_bd Esp (-4)) 4
  | Call_ind (M m) -> rd m 4 @ wr (mem_bd Esp (-4)) 4
  | Jmp_ind (M m) -> rd m 4
  | Ret _ -> rd (mem_b Esp) 4
  | Movs (s, _) -> rd (mem_b Esi) (sz s) @ wr (mem_b Edi) (sz s)
  | Stos (s, _) -> wr (mem_b Edi) (sz s)
  | Lods (s, _) -> rd (mem_b Esi) (sz s)
  | Scas (s, _) -> rd (mem_b Edi) (sz s)
  | Setcc (_, M m) -> wr m 1
  | Cmovcc (_, _, M m) -> rd m 4
  | Fp f -> (
    match f with
    | Fld_m (fs, m) | Fop_m (_, fs, m) | Fcom_m (fs, m, _) -> rd m (fsz fs)
    | Fst_m (fs, m, _) -> wr m (fsz fs)
    | Fild (is, m) -> rd m (isz is)
    | Fist_m (is, m, _) -> wr m (isz is)
    | _ -> [])
  | Mmx x -> (
    match x with
    | Movd_to_mm (_, M m) -> rd m 4
    | Movd_from_mm (M m, _) -> wr m 4
    | Movq_to_mm (_, MMem m) -> rd m 8
    | Movq_from_mm (MMem m, _) -> wr m 8
    | Padd (_, _, MMem m) | Psub (_, _, MMem m) | Pmullw (_, MMem m)
    | Pand (_, MMem m) | Por (_, MMem m) | Pxor (_, MMem m)
    | Pcmpeq (_, _, MMem m) ->
      rd m 8
    | _ -> [])
  | Sse x -> (
    match x with
    | Movaps (XMem m, _) | Movups (XMem m, _) -> wr m 16
    | Movaps (_, XMem m) | Movups (_, XMem m) -> rd m 16
    | Movss (XMem m, _) -> wr m 4
    | Movss (_, XMem m) -> rd m 4
    | Movsd_x (XMem m, _) -> wr m 8
    | Movsd_x (_, XMem m) -> rd m 8
    | Sse_arith (_, (Packed_single | Packed_double), _, XMem m)
    | Sqrtps (_, XMem m)
    | Andps (_, XMem m) | Orps (_, XMem m) | Xorps (_, XMem m)
    | Paddd_x (_, XMem m) | Psubd_x (_, XMem m) ->
      rd m 16
    | Sse_arith (_, Scalar_single, _, XMem m) | Ucomiss (_, XMem m)
    | Cvttss2si (_, XMem m) | Cvtss2sd (_, XMem m) ->
      rd m 4
    | Sse_arith (_, (Scalar_double | Packed_int), _, XMem m)
    | Cvtsd2ss (_, XMem m) ->
      rd m 8
    | Cvtsi2ss (_, M m) -> rd m 4
    | _ -> [])
  | Lea _ | Cdq | Cwde | Jmp _ | Jcc _ | Jmp_ind (R _) | Jmp_ind (I _)
  | Setcc _ | Cmovcc _ | Cld | Std | Int_n _ | Hlt | Ud2 | Nop
  | Alu _ | Mov _ | Movzx _ | Movsx _ | Shift _ | Shld _ | Shrd _
  | Inc _ | Dec _ | Neg _ | Not _ | Imul_rr _ | Imul_rri _ | Mul1 _ | Imul1 _
  | Div _ | Idiv _ | Xchg _ ->
    []

(* Can executing this instruction raise an IA-32 exception? Used by the
   translator to decide where precise state must be recoverable. *)
let may_fault insn =
  mem_refs insn <> []
  ||
  match insn with
  | Div _ | Idiv _ | Int_n _ | Hlt | Ud2 -> true
  | Fp _ -> true (* FP stack faults *)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pretty printing (assembler-like).                                   *)
(* ------------------------------------------------------------------ *)

let pp_mem ppf { base; index; disp } =
  let parts =
    (match base with Some r -> [ reg_name r ] | None -> [])
    @ (match index with
      | Some (r, 1) -> [ reg_name r ]
      | Some (r, s) -> [ Printf.sprintf "%s*%d" (reg_name r) s ]
      | None -> [])
    @ if disp <> 0 || (base = None && index = None) then [ Printf.sprintf "0x%x" disp ] else []
  in
  Fmt.pf ppf "[%s]" (String.concat "+" parts)

let size_suffix = function S8 -> "b" | S16 -> "w" | S32 -> "d"

let reg8_name i =
  [| "al"; "cl"; "dl"; "bl"; "ah"; "ch"; "dh"; "bh" |].(i)

let reg16_name i =
  [| "ax"; "cx"; "dx"; "bx"; "sp"; "bp"; "si"; "di" |].(i)

let pp_operand size ppf = function
  | R r -> (
    match size with
    | S32 -> Fmt.string ppf (reg_name r)
    | S16 -> Fmt.string ppf (reg16_name (reg_index r))
    | S8 -> Fmt.string ppf (reg8_name (reg_index r)))
  | M m -> pp_mem ppf m
  | I v -> Fmt.pf ppf "0x%x" v

let pp_amount ppf = function
  | Amt_imm n -> Fmt.pf ppf "%d" n
  | Amt_cl -> Fmt.string ppf "cl"

let pp_fp ppf f =
  let fs = function F32 -> "dword" | F64 -> "qword" in
  let is = function I16 -> "word" | I32 -> "dword" in
  match f with
  | Fld_st i -> Fmt.pf ppf "fld st(%d)" i
  | Fld_m (s, m) -> Fmt.pf ppf "fld %s %a" (fs s) pp_mem m
  | Fld1 -> Fmt.string ppf "fld1"
  | Fldz -> Fmt.string ppf "fldz"
  | Fldpi -> Fmt.string ppf "fldpi"
  | Fst_st (i, p) -> Fmt.pf ppf "fst%s st(%d)" (if p then "p" else "") i
  | Fst_m (s, m, p) -> Fmt.pf ppf "fst%s %s %a" (if p then "p" else "") (fs s) pp_mem m
  | Fild (s, m) -> Fmt.pf ppf "fild %s %a" (is s) pp_mem m
  | Fist_m (s, m, p) -> Fmt.pf ppf "fist%s %s %a" (if p then "p" else "") (is s) pp_mem m
  | Fop_st0_st (op, i) -> Fmt.pf ppf "%s st, st(%d)" (fop_name op) i
  | Fop_st_st0 (op, i, p) ->
    Fmt.pf ppf "%s%s st(%d), st" (fop_name op) (if p then "p" else "") i
  | Fop_m (op, s, m) -> Fmt.pf ppf "%s %s %a" (fop_name op) (fs s) pp_mem m
  | Fchs -> Fmt.string ppf "fchs"
  | Fabs -> Fmt.string ppf "fabs"
  | Fsqrt -> Fmt.string ppf "fsqrt"
  | Frndint -> Fmt.string ppf "frndint"
  | Fcom_st (i, pops) -> Fmt.pf ppf "fcom(pop%d) st(%d)" pops i
  | Fcom_m (s, m, pops) -> Fmt.pf ppf "fcom(pop%d) %s %a" pops (fs s) pp_mem m
  | Fnstsw_ax -> Fmt.string ppf "fnstsw ax"
  | Fxch i -> Fmt.pf ppf "fxch st(%d)" i
  | Ffree i -> Fmt.pf ppf "ffree st(%d)" i
  | Fincstp -> Fmt.string ppf "fincstp"
  | Fdecstp -> Fmt.string ppf "fdecstp"

let pp_mmx_rm ppf = function
  | MM i -> Fmt.pf ppf "mm%d" i
  | MMem m -> pp_mem ppf m

let pp_mmx ppf x =
  match x with
  | Movd_to_mm (d, s) -> Fmt.pf ppf "movd mm%d, %a" d (pp_operand S32) s
  | Movd_from_mm (d, s) -> Fmt.pf ppf "movd %a, mm%d" (pp_operand S32) d s
  | Movq_to_mm (d, s) -> Fmt.pf ppf "movq mm%d, %a" d pp_mmx_rm s
  | Movq_from_mm (d, s) -> Fmt.pf ppf "movq %a, mm%d" pp_mmx_rm d s
  | Padd (w, d, s) -> Fmt.pf ppf "padd%d mm%d, %a" (w * 8) d pp_mmx_rm s
  | Psub (w, d, s) -> Fmt.pf ppf "psub%d mm%d, %a" (w * 8) d pp_mmx_rm s
  | Pmullw (d, s) -> Fmt.pf ppf "pmullw mm%d, %a" d pp_mmx_rm s
  | Pand (d, s) -> Fmt.pf ppf "pand mm%d, %a" d pp_mmx_rm s
  | Por (d, s) -> Fmt.pf ppf "por mm%d, %a" d pp_mmx_rm s
  | Pxor (d, s) -> Fmt.pf ppf "pxor mm%d, %a" d pp_mmx_rm s
  | Pcmpeq (w, d, s) -> Fmt.pf ppf "pcmpeq%d mm%d, %a" (w * 8) d pp_mmx_rm s
  | Psll (w, d, n) -> Fmt.pf ppf "psll%d mm%d, %d" (w * 8) d n
  | Psrl (w, d, n) -> Fmt.pf ppf "psrl%d mm%d, %d" (w * 8) d n
  | Emms -> Fmt.string ppf "emms"

let pp_xmm_rm ppf = function
  | XM i -> Fmt.pf ppf "xmm%d" i
  | XMem m -> pp_mem ppf m

let pp_sse ppf x =
  match x with
  | Movaps (d, s) -> Fmt.pf ppf "movaps %a, %a" pp_xmm_rm d pp_xmm_rm s
  | Movups (d, s) -> Fmt.pf ppf "movups %a, %a" pp_xmm_rm d pp_xmm_rm s
  | Movss (d, s) -> Fmt.pf ppf "movss %a, %a" pp_xmm_rm d pp_xmm_rm s
  | Movsd_x (d, s) -> Fmt.pf ppf "movsd %a, %a" pp_xmm_rm d pp_xmm_rm s
  | Sse_arith (op, fmt, d, s) ->
    Fmt.pf ppf "%s%s xmm%d, %a" (sse_op_name op) (sse_fmt_name fmt) d pp_xmm_rm s
  | Sqrtps (d, s) -> Fmt.pf ppf "sqrtps xmm%d, %a" d pp_xmm_rm s
  | Andps (d, s) -> Fmt.pf ppf "andps xmm%d, %a" d pp_xmm_rm s
  | Orps (d, s) -> Fmt.pf ppf "orps xmm%d, %a" d pp_xmm_rm s
  | Xorps (d, s) -> Fmt.pf ppf "xorps xmm%d, %a" d pp_xmm_rm s
  | Paddd_x (d, s) -> Fmt.pf ppf "paddd xmm%d, %a" d pp_xmm_rm s
  | Psubd_x (d, s) -> Fmt.pf ppf "psubd xmm%d, %a" d pp_xmm_rm s
  | Ucomiss (d, s) -> Fmt.pf ppf "ucomiss xmm%d, %a" d pp_xmm_rm s
  | Cvtsi2ss (d, s) -> Fmt.pf ppf "cvtsi2ss xmm%d, %a" d (pp_operand S32) s
  | Cvttss2si (d, s) -> Fmt.pf ppf "cvttss2si %s, %a" (reg_name d) pp_xmm_rm s
  | Cvtss2sd (d, s) -> Fmt.pf ppf "cvtss2sd xmm%d, %a" d pp_xmm_rm s
  | Cvtsd2ss (d, s) -> Fmt.pf ppf "cvtsd2ss xmm%d, %a" d pp_xmm_rm s

let rep_prefix = function
  | No_rep -> "" | Rep -> "rep " | Repe -> "repe " | Repne -> "repne "

let pp ppf insn =
  let op2 name s d src =
    Fmt.pf ppf "%s %a, %a" name (pp_operand s) d (pp_operand s) src
  in
  match insn with
  | Alu (op, s, d, src) -> op2 (alu_name op) s d src
  | Test (s, d, src) -> op2 "test" s d src
  | Mov (s, d, src) -> op2 "mov" s d src
  | Movzx (s, r, src) ->
    Fmt.pf ppf "movzx %s, %a" (reg_name r) (pp_operand s) src
  | Movsx (s, r, src) ->
    Fmt.pf ppf "movsx %s, %a" (reg_name r) (pp_operand s) src
  | Lea (r, m) -> Fmt.pf ppf "lea %s, %a" (reg_name r) pp_mem m
  | Shift (sh, s, d, a) ->
    Fmt.pf ppf "%s %a, %a" (shift_name sh) (pp_operand s) d pp_amount a
  | Shld (d, r, a) ->
    Fmt.pf ppf "shld %a, %s, %a" (pp_operand S32) d (reg_name r) pp_amount a
  | Shrd (d, r, a) ->
    Fmt.pf ppf "shrd %a, %s, %a" (pp_operand S32) d (reg_name r) pp_amount a
  | Inc (s, d) -> Fmt.pf ppf "inc %a" (pp_operand s) d
  | Dec (s, d) -> Fmt.pf ppf "dec %a" (pp_operand s) d
  | Neg (s, d) -> Fmt.pf ppf "neg %a" (pp_operand s) d
  | Not (s, d) -> Fmt.pf ppf "not %a" (pp_operand s) d
  | Imul_rr (r, src) -> Fmt.pf ppf "imul %s, %a" (reg_name r) (pp_operand S32) src
  | Imul_rri (r, src, i) ->
    Fmt.pf ppf "imul %s, %a, %d" (reg_name r) (pp_operand S32) src i
  | Mul1 (s, src) -> Fmt.pf ppf "mul %a" (pp_operand s) src
  | Imul1 (s, src) -> Fmt.pf ppf "imul %a" (pp_operand s) src
  | Div (s, src) -> Fmt.pf ppf "div %a" (pp_operand s) src
  | Idiv (s, src) -> Fmt.pf ppf "idiv %a" (pp_operand s) src
  | Cdq -> Fmt.string ppf "cdq"
  | Cwde -> Fmt.string ppf "cwde"
  | Xchg (s, d, r) -> Fmt.pf ppf "xchg %a, %a" (pp_operand s) d (pp_operand s) (R r)
  | Push o -> Fmt.pf ppf "push %a" (pp_operand S32) o
  | Pop o -> Fmt.pf ppf "pop %a" (pp_operand S32) o
  | Pushfd -> Fmt.string ppf "pushfd"
  | Popfd -> Fmt.string ppf "popfd"
  | Jmp t -> Fmt.pf ppf "jmp 0x%x" t
  | Jcc (c, t) -> Fmt.pf ppf "j%s 0x%x" (cond_name c) t
  | Call t -> Fmt.pf ppf "call 0x%x" t
  | Jmp_ind o -> Fmt.pf ppf "jmp %a" (pp_operand S32) o
  | Call_ind o -> Fmt.pf ppf "call %a" (pp_operand S32) o
  | Ret 0 -> Fmt.string ppf "ret"
  | Ret n -> Fmt.pf ppf "ret %d" n
  | Setcc (c, o) -> Fmt.pf ppf "set%s %a" (cond_name c) (pp_operand S8) o
  | Cmovcc (c, r, o) ->
    Fmt.pf ppf "cmov%s %s, %a" (cond_name c) (reg_name r) (pp_operand S32) o
  | Movs (s, r) -> Fmt.pf ppf "%smovs%s" (rep_prefix r) (size_suffix s)
  | Stos (s, r) -> Fmt.pf ppf "%sstos%s" (rep_prefix r) (size_suffix s)
  | Lods (s, r) -> Fmt.pf ppf "%slods%s" (rep_prefix r) (size_suffix s)
  | Scas (s, r) -> Fmt.pf ppf "%sscas%s" (rep_prefix r) (size_suffix s)
  | Cld -> Fmt.string ppf "cld"
  | Std -> Fmt.string ppf "std"
  | Int_n n -> Fmt.pf ppf "int 0x%x" n
  | Hlt -> Fmt.string ppf "hlt"
  | Ud2 -> Fmt.string ppf "ud2"
  | Nop -> Fmt.string ppf "nop"
  | Fp f -> pp_fp ppf f
  | Mmx x -> pp_mmx ppf x
  | Sse x -> pp_sse ppf x

let to_string insn = Fmt.str "%a" pp insn
