(* IA-32 binary encoder for the modeled subset. Produces real x86 machine
   code: prefixes, opcode, ModRM, SIB, displacement, immediate. The decoder
   ({!Decode}) is its inverse; round-tripping is property-tested. *)

open Insn

exception Cannot_encode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Cannot_encode s)) fmt

type emitter = { buf : Buffer.t; mutable ip : int }

let byte e v = Buffer.add_char e.buf (Char.chr (v land 0xFF))

let word16 e v =
  byte e v;
  byte e (v lsr 8)

let word32 e v =
  byte e v;
  byte e (v lsr 8);
  byte e (v lsr 16);
  byte e (v lsr 24)

let fits_s8 v =
  let s = Word.signed32 v in
  s >= -128 && s <= 127

let scale_bits = function
  | 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3
  | s -> fail "bad scale %d" s

(* ModRM (+ SIB + displacement) with [ext] in the reg field. *)
let modrm_mem e ~ext (m : mem) =
  let ext = ext land 7 in
  let disp = Word.mask32 m.disp in
  (match m.index with
  | Some (r, _) when r = Esp -> fail "esp cannot be an index register"
  | _ -> ());
  match (m.base, m.index) with
  | None, None ->
    (* disp32 absolute *)
    byte e (0x00 lor (ext lsl 3) lor 0x5);
    word32 e disp
  | None, Some (idx, sc) ->
    (* SIB with no base: mod=00, base=101, disp32 *)
    byte e (0x00 lor (ext lsl 3) lor 0x4);
    byte e ((scale_bits sc lsl 6) lor (reg_index idx lsl 3) lor 0x5);
    word32 e disp
  | Some base, index ->
    let need_sib = index <> None || base = Esp in
    let md =
      if disp = 0 && base <> Ebp then 0b00
      else if fits_s8 disp then 0b01
      else 0b10
    in
    let rm = if need_sib then 0x4 else reg_index base in
    byte e ((md lsl 6) lor (ext lsl 3) lor rm);
    if need_sib then begin
      let idx_bits =
        match index with
        | Some (idx, sc) -> (scale_bits sc lsl 6) lor (reg_index idx lsl 3)
        | None -> 0x4 lsl 3 (* no index *)
      in
      byte e (idx_bits lor reg_index base)
    end;
    (match md with
    | 0b01 -> byte e disp
    | 0b10 -> word32 e disp
    | _ -> ())

let modrm e ~ext operand =
  match operand with
  | R r -> byte e (0xC0 lor ((ext land 7) lsl 3) lor reg_index r)
  | M m -> modrm_mem e ~ext m
  | I _ -> fail "immediate operand where r/m expected"

let modrm_mmx e ~ext = function
  | MM i -> byte e (0xC0 lor ((ext land 7) lsl 3) lor (i land 7))
  | MMem m -> modrm_mem e ~ext m

let modrm_xmm e ~ext = function
  | XM i -> byte e (0xC0 lor ((ext land 7) lsl 3) lor (i land 7))
  | XMem m -> modrm_mem e ~ext m

(* Operand-size prefix for 16-bit forms. *)
let osize e = function S16 -> byte e 0x66 | S8 | S32 -> ()

let imm_for_size e size v =
  match size with
  | S8 -> byte e v
  | S16 -> word16 e v
  | S32 -> word32 e v

(* Relative displacement of a branch: we always emit rel32 forms, so the
   instruction length is independent of the target (the assembler relies on
   this for single-pass layout). [next] is the address after the insn. *)
let rel32 e ~next target = word32 e (Word.mask32 (target - next))

let encode_fp e f =
  let esc n = byte e n in
  let mem_form escb ext m = esc escb; modrm_mem e ~ext m in
  let reg_form escb base i = esc escb; byte e (base + (i land 7)) in
  match f with
  | Fld_m (F32, m) -> mem_form 0xD9 0 m
  | Fld_m (F64, m) -> mem_form 0xDD 0 m
  | Fld_st i -> reg_form 0xD9 0xC0 i
  | Fld1 -> esc 0xD9; byte e 0xE8
  | Fldz -> esc 0xD9; byte e 0xEE
  | Fldpi -> esc 0xD9; byte e 0xEB
  | Fst_m (F32, m, false) -> mem_form 0xD9 2 m
  | Fst_m (F32, m, true) -> mem_form 0xD9 3 m
  | Fst_m (F64, m, false) -> mem_form 0xDD 2 m
  | Fst_m (F64, m, true) -> mem_form 0xDD 3 m
  | Fst_st (i, false) -> reg_form 0xDD 0xD0 i
  | Fst_st (i, true) -> reg_form 0xDD 0xD8 i
  | Fild (I16, m) -> mem_form 0xDF 0 m
  | Fild (I32, m) -> mem_form 0xDB 0 m
  | Fist_m (I16, m, false) -> mem_form 0xDF 2 m
  | Fist_m (I16, m, true) -> mem_form 0xDF 3 m
  | Fist_m (I32, m, false) -> mem_form 0xDB 2 m
  | Fist_m (I32, m, true) -> mem_form 0xDB 3 m
  | Fop_st0_st (op, i) ->
    let base =
      match op with
      | FAdd -> 0xC0 | FMul -> 0xC8 | FSub -> 0xE0 | FSubr -> 0xE8
      | FDiv -> 0xF0 | FDivr -> 0xF8
    in
    reg_form 0xD8 base i
  | Fop_st_st0 (op, i, pop) ->
    (* DC/DE forms swap sub/subr and div/divr relative to D8. *)
    let base =
      match op with
      | FAdd -> 0xC0 | FMul -> 0xC8 | FSubr -> 0xE0 | FSub -> 0xE8
      | FDivr -> 0xF0 | FDiv -> 0xF8
    in
    reg_form (if pop then 0xDE else 0xDC) base i
  | Fop_m (op, fs, m) ->
    let ext =
      match op with
      | FAdd -> 0 | FMul -> 1 | FSub -> 4 | FSubr -> 5 | FDiv -> 6 | FDivr -> 7
    in
    mem_form (match fs with F32 -> 0xD8 | F64 -> 0xDC) ext m
  | Fchs -> esc 0xD9; byte e 0xE0
  | Fabs -> esc 0xD9; byte e 0xE1
  | Fsqrt -> esc 0xD9; byte e 0xFA
  | Frndint -> esc 0xD9; byte e 0xFC
  | Fcom_st (i, 0) -> reg_form 0xD8 0xD0 i
  | Fcom_st (i, 1) -> reg_form 0xD8 0xD8 i
  | Fcom_st (1, 2) -> esc 0xDE; byte e 0xD9 (* fcompp *)
  | Fcom_st (i, p) -> fail "fcom st(%d) pops=%d not encodable" i p
  | Fcom_m (F32, m, 0) -> mem_form 0xD8 2 m
  | Fcom_m (F32, m, 1) -> mem_form 0xD8 3 m
  | Fcom_m (F64, m, 0) -> mem_form 0xDC 2 m
  | Fcom_m (F64, m, 1) -> mem_form 0xDC 3 m
  | Fcom_m (_, _, p) -> fail "fcom mem pops=%d not encodable" p
  | Fnstsw_ax -> esc 0xDF; byte e 0xE0
  | Fxch i -> reg_form 0xD9 0xC8 i
  | Ffree i -> reg_form 0xDD 0xC0 i
  | Fincstp -> esc 0xD9; byte e 0xF7
  | Fdecstp -> esc 0xD9; byte e 0xF6

let encode_mmx e x =
  let op2 opc ext rm = byte e 0x0F; byte e opc; modrm_mmx e ~ext rm in
  match x with
  | Movd_to_mm (mm, src) -> byte e 0x0F; byte e 0x6E; modrm e ~ext:mm src
  | Movd_from_mm (dst, mm) -> byte e 0x0F; byte e 0x7E; modrm e ~ext:mm dst
  | Movq_to_mm (mm, src) -> op2 0x6F mm src
  | Movq_from_mm (dst, mm) -> op2 0x7F mm dst
  | Padd (w, mm, src) ->
    let opc = match w with 1 -> 0xFC | 2 -> 0xFD | 4 -> 0xFE | 8 -> 0xD4
      | _ -> fail "padd width %d" w in
    op2 opc mm src
  | Psub (w, mm, src) ->
    let opc = match w with 1 -> 0xF8 | 2 -> 0xF9 | 4 -> 0xFA | 8 -> 0xFB
      | _ -> fail "psub width %d" w in
    op2 opc mm src
  | Pmullw (mm, src) -> op2 0xD5 mm src
  | Pand (mm, src) -> op2 0xDB mm src
  | Por (mm, src) -> op2 0xEB mm src
  | Pxor (mm, src) -> op2 0xEF mm src
  | Pcmpeq (w, mm, src) ->
    let opc = match w with 1 -> 0x74 | 2 -> 0x75 | 4 -> 0x76
      | _ -> fail "pcmpeq width %d" w in
    op2 opc mm src
  | Psll (w, mm, n) ->
    let opc = match w with 2 -> 0x71 | 4 -> 0x72 | 8 -> 0x73
      | _ -> fail "psll width %d" w in
    byte e 0x0F; byte e opc; modrm_mmx e ~ext:6 (MM mm); byte e n
  | Psrl (w, mm, n) ->
    let opc = match w with 2 -> 0x71 | 4 -> 0x72 | 8 -> 0x73
      | _ -> fail "psrl width %d" w in
    byte e 0x0F; byte e opc; modrm_mmx e ~ext:2 (MM mm); byte e n
  | Emms -> byte e 0x0F; byte e 0x77

let sse_fmt_prefix e = function
  | Packed_single -> ()
  | Packed_double -> byte e 0x66
  | Scalar_single -> byte e 0xF3
  | Scalar_double -> byte e 0xF2
  | Packed_int -> byte e 0x66

let encode_sse e x =
  let op2 ?prefix opc reg rm =
    (match prefix with Some p -> byte e p | None -> ());
    byte e 0x0F;
    byte e opc;
    modrm_xmm e ~ext:reg rm
  in
  let mov ?prefix ~ld ~st dst src =
    match (dst, src) with
    | XM d, _ -> op2 ?prefix ld d src
    | XMem _, XM s -> op2 ?prefix st s dst
    | XMem _, XMem _ -> fail "sse mov mem,mem"
  in
  match x with
  | Movaps (dst, src) -> mov ~ld:0x28 ~st:0x29 dst src
  | Movups (dst, src) -> mov ~ld:0x10 ~st:0x11 dst src
  | Movss (dst, src) -> mov ~prefix:0xF3 ~ld:0x10 ~st:0x11 dst src
  | Movsd_x (dst, src) -> mov ~prefix:0xF2 ~ld:0x10 ~st:0x11 dst src
  | Sse_arith (op, fmt, dst, src) ->
    sse_fmt_prefix e fmt;
    let opc =
      match op with
      | SAdd -> 0x58 | SMul -> 0x59 | SSub -> 0x5C | SMin -> 0x5D
      | SDiv -> 0x5E | SMax -> 0x5F
    in
    op2 opc dst src
  | Sqrtps (dst, src) -> op2 0x51 dst src
  | Andps (dst, src) -> op2 0x54 dst src
  | Orps (dst, src) -> op2 0x56 dst src
  | Xorps (dst, src) -> op2 0x57 dst src
  | Paddd_x (dst, src) -> op2 ~prefix:0x66 0xFE dst src
  | Psubd_x (dst, src) -> op2 ~prefix:0x66 0xFA dst src
  | Ucomiss (dst, src) -> op2 0x2E dst src
  | Cvtsi2ss (dst, src) ->
    byte e 0xF3; byte e 0x0F; byte e 0x2A; modrm e ~ext:dst src
  | Cvttss2si (dst, src) -> op2 ~prefix:0xF3 0x2C (reg_index dst) src
  | Cvtss2sd (dst, src) -> op2 ~prefix:0xF3 0x5A dst src
  | Cvtsd2ss (dst, src) -> op2 ~prefix:0xF2 0x5A dst src

let rep_prefix e = function
  | No_rep -> ()
  | Rep | Repe -> byte e 0xF3
  | Repne -> byte e 0xF2

let encode_insn e insn =
  let next_ip len = e.ip + len in
  match insn with
  | Alu (op, size, dst, src) -> (
    let a = alu_index op in
    osize e size;
    match (dst, src) with
    | (R _ | M _), R r ->
      byte e ((a * 8) + if size = S8 then 0x00 else 0x01);
      modrm e ~ext:(reg_index r) dst
    | R r, M _ ->
      byte e ((a * 8) + if size = S8 then 0x02 else 0x03);
      modrm e ~ext:(reg_index r) src
    | (R _ | M _), I v ->
      if size = S8 then begin
        byte e 0x80; modrm e ~ext:a dst; byte e v
      end
      else if fits_s8 v then begin
        byte e 0x83; modrm e ~ext:a dst; byte e v
      end
      else begin
        byte e 0x81; modrm e ~ext:a dst; imm_for_size e size v
      end
    | I _, _ | _, M _ -> fail "bad ALU operands")
  | Test (size, dst, src) -> (
    osize e size;
    match (dst, src) with
    | (R _ | M _), R r ->
      byte e (if size = S8 then 0x84 else 0x85);
      modrm e ~ext:(reg_index r) dst
    | (R _ | M _), I v ->
      byte e (if size = S8 then 0xF6 else 0xF7);
      modrm e ~ext:0 dst;
      imm_for_size e size v
    | _ -> fail "bad TEST operands")
  | Mov (size, dst, src) -> (
    osize e size;
    match (dst, src) with
    | (R _ | M _), R r ->
      byte e (if size = S8 then 0x88 else 0x89);
      modrm e ~ext:(reg_index r) dst
    | R r, M _ ->
      byte e (if size = S8 then 0x8A else 0x8B);
      modrm e ~ext:(reg_index r) src
    | R r, I v ->
      byte e ((if size = S8 then 0xB0 else 0xB8) + reg_index r);
      imm_for_size e size v
    | M _, I v ->
      byte e (if size = S8 then 0xC6 else 0xC7);
      modrm e ~ext:0 dst;
      imm_for_size e size v
    | I _, _ | _, M _ -> fail "bad MOV operands")
  | Movzx (ssize, r, src) ->
    byte e 0x0F;
    byte e (match ssize with S8 -> 0xB6 | S16 -> 0xB7 | S32 -> fail "movzx src32");
    modrm e ~ext:(reg_index r) src
  | Movsx (ssize, r, src) ->
    byte e 0x0F;
    byte e (match ssize with S8 -> 0xBE | S16 -> 0xBF | S32 -> fail "movsx src32");
    modrm e ~ext:(reg_index r) src
  | Lea (r, m) -> byte e 0x8D; modrm e ~ext:(reg_index r) (M m)
  | Shift (sh, size, dst, amt) -> (
    let ext = match sh with Rol -> 0 | Ror -> 1 | Shl -> 4 | Shr -> 5 | Sar -> 7 in
    osize e size;
    match amt with
    | Amt_imm 1 ->
      byte e (if size = S8 then 0xD0 else 0xD1);
      modrm e ~ext dst
    | Amt_imm n ->
      byte e (if size = S8 then 0xC0 else 0xC1);
      modrm e ~ext dst;
      byte e n
    | Amt_cl ->
      byte e (if size = S8 then 0xD2 else 0xD3);
      modrm e ~ext dst)
  | Shld (dst, r, Amt_imm n) ->
    byte e 0x0F; byte e 0xA4; modrm e ~ext:(reg_index r) dst; byte e n
  | Shld (dst, r, Amt_cl) ->
    byte e 0x0F; byte e 0xA5; modrm e ~ext:(reg_index r) dst
  | Shrd (dst, r, Amt_imm n) ->
    byte e 0x0F; byte e 0xAC; modrm e ~ext:(reg_index r) dst; byte e n
  | Shrd (dst, r, Amt_cl) ->
    byte e 0x0F; byte e 0xAD; modrm e ~ext:(reg_index r) dst
  | Inc (size, dst) ->
    osize e size;
    byte e (if size = S8 then 0xFE else 0xFF);
    modrm e ~ext:0 dst
  | Dec (size, dst) ->
    osize e size;
    byte e (if size = S8 then 0xFE else 0xFF);
    modrm e ~ext:1 dst
  | Not (size, dst) ->
    osize e size;
    byte e (if size = S8 then 0xF6 else 0xF7);
    modrm e ~ext:2 dst
  | Neg (size, dst) ->
    osize e size;
    byte e (if size = S8 then 0xF6 else 0xF7);
    modrm e ~ext:3 dst
  | Imul_rr (r, src) -> byte e 0x0F; byte e 0xAF; modrm e ~ext:(reg_index r) src
  | Imul_rri (r, src, v) ->
    if fits_s8 v then begin
      byte e 0x6B; modrm e ~ext:(reg_index r) src; byte e v
    end
    else begin
      byte e 0x69; modrm e ~ext:(reg_index r) src; word32 e v
    end
  | Mul1 (size, src) ->
    osize e size;
    byte e (if size = S8 then 0xF6 else 0xF7);
    modrm e ~ext:4 src
  | Imul1 (size, src) ->
    osize e size;
    byte e (if size = S8 then 0xF6 else 0xF7);
    modrm e ~ext:5 src
  | Div (size, src) ->
    osize e size;
    byte e (if size = S8 then 0xF6 else 0xF7);
    modrm e ~ext:6 src
  | Idiv (size, src) ->
    osize e size;
    byte e (if size = S8 then 0xF6 else 0xF7);
    modrm e ~ext:7 src
  | Cdq -> byte e 0x99
  | Cwde -> byte e 0x98
  | Xchg (size, dst, r) ->
    osize e size;
    byte e (if size = S8 then 0x86 else 0x87);
    modrm e ~ext:(reg_index r) dst
  | Push (R r) -> byte e (0x50 + reg_index r)
  | Push (I v) ->
    if fits_s8 v then begin byte e 0x6A; byte e v end
    else begin byte e 0x68; word32 e v end
  | Push (M _ as m) -> byte e 0xFF; modrm e ~ext:6 m
  | Pop (R r) -> byte e (0x58 + reg_index r)
  | Pop (M _ as m) -> byte e 0x8F; modrm e ~ext:0 m
  | Pop (I _) -> fail "pop immediate"
  | Pushfd -> byte e 0x9C
  | Popfd -> byte e 0x9D
  | Jmp target -> byte e 0xE9; rel32 e ~next:(next_ip 5) target
  | Jcc (c, target) ->
    byte e 0x0F;
    byte e (0x80 + cond_index c);
    rel32 e ~next:(next_ip 6) target
  | Call target -> byte e 0xE8; rel32 e ~next:(next_ip 5) target
  | Jmp_ind ((R _ | M _) as o) -> byte e 0xFF; modrm e ~ext:4 o
  | Call_ind ((R _ | M _) as o) -> byte e 0xFF; modrm e ~ext:2 o
  | Jmp_ind (I _) | Call_ind (I _) -> fail "indirect branch to immediate"
  | Ret 0 -> byte e 0xC3
  | Ret n -> byte e 0xC2; word16 e n
  | Setcc (c, dst) ->
    byte e 0x0F;
    byte e (0x90 + cond_index c);
    modrm e ~ext:0 dst
  | Cmovcc (c, r, src) ->
    byte e 0x0F;
    byte e (0x40 + cond_index c);
    modrm e ~ext:(reg_index r) src
  | Movs (size, rep) ->
    rep_prefix e rep;
    osize e size;
    byte e (if size = S8 then 0xA4 else 0xA5)
  | Stos (size, rep) ->
    rep_prefix e rep;
    osize e size;
    byte e (if size = S8 then 0xAA else 0xAB)
  | Lods (size, rep) ->
    rep_prefix e rep;
    osize e size;
    byte e (if size = S8 then 0xAC else 0xAD)
  | Scas (size, rep) ->
    rep_prefix e rep;
    osize e size;
    byte e (if size = S8 then 0xAE else 0xAF)
  | Cld -> byte e 0xFC
  | Std -> byte e 0xFD
  | Int_n n -> byte e 0xCD; byte e n
  | Hlt -> byte e 0xF4
  | Ud2 -> byte e 0x0F; byte e 0x0B
  | Nop -> byte e 0x90
  | Fp f -> encode_fp e f
  | Mmx x -> encode_mmx e x
  | Sse x -> encode_sse e x

(* [encode ~ip insn] is the machine code of [insn] placed at address [ip]. *)
let encode ~ip insn =
  let e = { buf = Buffer.create 8; ip } in
  encode_insn e insn;
  Buffer.contents e.buf
