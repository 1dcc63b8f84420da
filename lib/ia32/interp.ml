(* Reference IA-32 interpreter — the golden model.

   Defines the exact architectural semantics (including the "defined
   undefined" flag behaviours listed below) that the translator must
   reproduce; the differential test suite compares the two vehicles
   instruction by instruction.

   Precision: every instruction performs its memory reads first, then
   computes, then performs memory writes, then commits registers and flags,
   then advances EIP — so when a fault is raised the architectural state is
   exactly the state before the instruction (REP string instructions commit
   per-element progress, which is the architectural behaviour). The one
   modeled exception: MMX "touch" side effects (TOP=0, tags valid) precede a
   faulting MMX store, matching the translated code; the touch is
   idempotent so restart semantics are unaffected.

   Defined-undefined choices (implemented identically by the translator):
   - logic ops clear AF;
   - shifts/rotates with count>1 set OF by the count=1 formula;
   - shifts leave AF unchanged;
   - MUL/IMUL leave ZF/SF/PF/AF unchanged;
   - out-of-range FIST/CVTT store the integer indefinite. *)

open Insn

type event = Normal | Syscall of int | Faulted of Fault.t

let ( .%[] ) st r = State.get32 st r
let ( .%[]<- ) st r v = State.set32 st r v

let read_operand size (st : State.t) = function
  | R r -> State.get_reg size st r
  | M m -> Memory.read (size_bytes size) st.mem (State.ea st m)
  | I v -> Word.mask (size_bytes size) v

let write_operand size (st : State.t) op v =
  match op with
  | R r -> State.set_reg size st r v
  | M m -> Memory.write (size_bytes size) st.mem (State.ea st m) v
  | I _ -> invalid_arg "write to immediate"

(* ---- flag helpers ---------------------------------------------------- *)

let set_szp (st : State.t) size r =
  st.zf <- r = 0;
  st.sf <- Word.sign_bit size r;
  st.pf <- Word.parity r

let add_flags (st : State.t) size a b cin r =
  let w = size_bytes size in
  st.cf <- a + b + cin > Word.mask w (-1);
  st.of_ <-
    Word.sign_bit w a = Word.sign_bit w b && Word.sign_bit w r <> Word.sign_bit w a;
  st.af <- (a land 0xF) + (b land 0xF) + cin > 0xF;
  set_szp st w r

let sub_flags (st : State.t) size a b bin r =
  let w = size_bytes size in
  st.cf <- a < b + bin;
  st.of_ <-
    Word.sign_bit w a <> Word.sign_bit w b && Word.sign_bit w r <> Word.sign_bit w a;
  st.af <- a land 0xF < (b land 0xF) + bin;
  set_szp st w r

let logic_flags (st : State.t) size r =
  st.cf <- false;
  st.of_ <- false;
  st.af <- false;
  set_szp st (size_bytes size) r

(* ---- integer ops ----------------------------------------------------- *)

let exec_alu st op size dst src =
  let w = size_bytes size in
  let a = read_operand size st dst in
  let b = read_operand size st src in
  match op with
  | Add ->
    let r = Word.mask w (a + b) in
    write_operand size st dst r;
    add_flags st size a b 0 r
  | Adc ->
    let cin = if st.State.cf then 1 else 0 in
    let r = Word.mask w (a + b + cin) in
    write_operand size st dst r;
    add_flags st size a b cin r
  | Sub ->
    let r = Word.mask w (a - b) in
    write_operand size st dst r;
    sub_flags st size a b 0 r
  | Sbb ->
    let bin = if st.State.cf then 1 else 0 in
    let r = Word.mask w (a - b - bin) in
    write_operand size st dst r;
    sub_flags st size a b bin r
  | Cmp ->
    let r = Word.mask w (a - b) in
    sub_flags st size a b 0 r
  | And ->
    let r = a land b in
    write_operand size st dst r;
    logic_flags st size r
  | Or ->
    let r = a lor b in
    write_operand size st dst r;
    logic_flags st size r
  | Xor ->
    let r = a lxor b in
    write_operand size st dst r;
    logic_flags st size r

let exec_shift st sh size dst amount =
  let w = size_bytes size in
  let nbits = Word.bits w in
  let a = read_operand size st dst in
  let count =
    (match amount with Amt_imm n -> n | Amt_cl -> State.get8 st Ecx) land 31
  in
  if count <> 0 then begin
    match sh with
    | Shl ->
      let r = Word.mask w (a lsl count) in
      let cf = count <= nbits && (a lsr (nbits - count)) land 1 = 1 in
      write_operand size st dst r;
      st.State.cf <- cf;
      st.State.of_ <- Word.sign_bit w r <> cf;
      set_szp st w r
    | Shr ->
      let r = if count >= nbits then 0 else a lsr count in
      let cf = count <= nbits && (a lsr (count - 1)) land 1 = 1 in
      write_operand size st dst r;
      st.State.cf <- cf;
      st.State.of_ <- Word.sign_bit w a;
      set_szp st w r
    | Sar ->
      let sa = Word.signed w a in
      let r = Word.mask w (sa asr min count 62) in
      let cf = (sa asr min (count - 1) 62) land 1 = 1 in
      write_operand size st dst r;
      st.State.cf <- cf;
      st.State.of_ <- false;
      set_szp st w r
    | Rol ->
      let c = count mod nbits in
      let r = if c = 0 then a else Word.mask w ((a lsl c) lor (a lsr (nbits - c))) in
      write_operand size st dst r;
      st.State.cf <- r land 1 = 1;
      st.State.of_ <- Word.sign_bit w r <> (r land 1 = 1)
    | Ror ->
      let c = count mod nbits in
      let r = if c = 0 then a else Word.mask w ((a lsr c) lor (a lsl (nbits - c))) in
      write_operand size st dst r;
      st.State.cf <- Word.sign_bit w r;
      st.State.of_ <- Word.sign_bit w r <> ((r lsr (nbits - 2)) land 1 = 1)
  end

let exec_shld st dst r amount ~left =
  let a = read_operand S32 st dst in
  let b = st.%[r] in
  let count =
    (match amount with Amt_imm n -> n | Amt_cl -> State.get8 st Ecx) land 31
  in
  if count <> 0 then begin
    if left then begin
      let res = Word.mask32 ((a lsl count) lor (b lsr (32 - count))) in
      write_operand S32 st dst res;
      st.State.cf <- (a lsr (32 - count)) land 1 = 1;
      st.State.of_ <- Word.sign_bit 4 res <> st.State.cf;
      set_szp st 4 res
    end
    else begin
      let res = Word.mask32 ((a lsr count) lor (b lsl (32 - count))) in
      write_operand S32 st dst res;
      st.State.cf <- (a lsr (count - 1)) land 1 = 1;
      st.State.of_ <- Word.sign_bit 4 res <> Word.sign_bit 4 a;
      set_szp st 4 res
    end
  end

let exec_mul st size src ~signed =
  let w = size_bytes size in
  let a = State.get_reg size st Eax in
  let b = read_operand size st src in
  let wide x = if signed then Int64.of_int (Word.signed w x) else Int64.of_int x in
  let p = Int64.mul (wide a) (wide b) in
  let lo = Word.mask w (Int64.to_int (Int64.logand p (Int64.of_int (Word.mask w (-1))))) in
  let hi =
    Word.mask w (Int64.to_int (Int64.shift_right_logical p (Word.bits w)) land Word.mask w (-1))
  in
  (match size with
  | S8 -> State.set16 st Eax (lo lor (hi lsl 8))
  | S16 ->
    State.set16 st Eax lo;
    State.set16 st Edx hi
  | S32 ->
    st.%[Eax] <- lo;
    st.%[Edx] <- hi);
  let overflow =
    if signed then
      let sext = Word.mask w (Word.signed w lo asr (Word.bits w - 1)) in
      hi <> sext
    else hi <> 0
  in
  st.State.cf <- overflow;
  st.State.of_ <- overflow

let exec_div st size src ~signed =
  let w = size_bytes size in
  let b = read_operand size st src in
  if b = 0 then raise (Fault.Fault Fault.Divide_error);
  let lo, hi =
    match size with
    | S8 ->
      let ax = State.get16 st Eax in
      (ax land 0xFF, ax lsr 8)
    | S16 -> (State.get16 st Eax, State.get16 st Edx)
    | S32 -> (st.%[Eax], st.%[Edx])
  in
  let dividend = Int64.logor (Int64.shift_left (Int64.of_int hi) (Word.bits w)) (Int64.of_int lo) in
  let q, r =
    if signed then begin
      let dividend =
        (* sign-extend the 2w-bit dividend *)
        let sh = 64 - (2 * Word.bits w) in
        Int64.shift_right (Int64.shift_left dividend sh) sh
      in
      let d = Int64.of_int (Word.signed w b) in
      (Int64.div dividend d, Int64.rem dividend d)
    end
    else
      let d = Int64.of_int b in
      (Int64.unsigned_div dividend d, Int64.unsigned_rem dividend d)
  in
  let fits =
    if signed then
      let min = Int64.neg (Int64.shift_left 1L (Word.bits w - 1)) in
      let max = Int64.sub (Int64.shift_left 1L (Word.bits w - 1)) 1L in
      Int64.compare q min >= 0 && Int64.compare q max <= 0
    else Int64.unsigned_compare q (Int64.of_int (Word.mask w (-1))) <= 0
  in
  if not fits then raise (Fault.Fault Fault.Divide_error);
  let q = Word.mask w (Int64.to_int q) and r = Word.mask w (Int64.to_int r) in
  match size with
  | S8 -> State.set16 st Eax (q lor (r lsl 8))
  | S16 ->
    State.set16 st Eax q;
    State.set16 st Edx r
  | S32 ->
    st.%[Eax] <- q;
    st.%[Edx] <- r

(* ---- stack helpers --------------------------------------------------- *)

let push32 (st : State.t) v =
  let sp = Word.mask32 (st.%[Esp] - 4) in
  Memory.write32 st.mem sp v;
  st.%[Esp] <- sp

let pop32 (st : State.t) =
  let sp = st.%[Esp] in
  let v = Memory.read32 st.mem sp in
  st.%[Esp] <- Word.mask32 (sp + 4);
  v

(* ---- string ops ------------------------------------------------------ *)

let string_delta (st : State.t) size =
  if st.df then -size_bytes size else size_bytes size

let exec_string st insn =
  let adv r d = st.%[r] <- Word.mask32 (st.%[r] + d) in
  let one_movs size =
    let d = string_delta st size in
    let v = Memory.read (size_bytes size) st.State.mem st.%[Esi] in
    Memory.write (size_bytes size) st.State.mem st.%[Edi] v;
    adv Esi d;
    adv Edi d
  in
  let one_stos size =
    let d = string_delta st size in
    Memory.write (size_bytes size) st.State.mem st.%[Edi] (State.get_reg size st Eax);
    adv Edi d
  in
  let one_lods size =
    let d = string_delta st size in
    State.set_reg size st Eax (Memory.read (size_bytes size) st.State.mem st.%[Esi]);
    adv Esi d
  in
  let one_scas size =
    let d = string_delta st size in
    let a = State.get_reg size st Eax in
    let b = Memory.read (size_bytes size) st.State.mem st.%[Edi] in
    sub_flags st size a b 0 (Word.mask (size_bytes size) (a - b));
    adv Edi d
  in
  let rep_loop ?stop_when one =
    (* REP family: iterate while ECX <> 0; REPE/REPNE additionally test ZF
       after each element. *)
    let continue = ref true in
    while !continue && st.%[Ecx] <> 0 do
      one ();
      st.%[Ecx] <- Word.mask32 (st.%[Ecx] - 1);
      (match stop_when with
      | Some zf_stop -> if st.State.zf = zf_stop then continue := false
      | None -> ())
    done
  in
  match insn with
  | Movs (size, No_rep) -> one_movs size
  | Movs (size, _) -> rep_loop (fun () -> one_movs size)
  | Stos (size, No_rep) -> one_stos size
  | Stos (size, _) -> rep_loop (fun () -> one_stos size)
  | Lods (size, No_rep) -> one_lods size
  | Lods (size, _) -> rep_loop (fun () -> one_lods size)
  | Scas (size, No_rep) -> one_scas size
  | Scas (size, Repe) -> rep_loop ~stop_when:false (fun () -> one_scas size)
  | Scas (size, (Repne | Rep)) -> rep_loop ~stop_when:true (fun () -> one_scas size)
  | _ -> invalid_arg "exec_string"

(* ---- x87 ------------------------------------------------------------- *)

let fp_apply op a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FSubr -> b -. a
  | FMul -> a *. b
  | FDiv -> a /. b
  | FDivr -> b /. a

let exec_fp (st : State.t) f =
  let fpu = st.fpu in
  let mem = st.mem in
  let read_f fs m =
    let a = State.ea st m in
    match fs with F32 -> Memory.read_f32 mem a | F64 -> Memory.read_f64 mem a
  in
  match f with
  | Fld_st i ->
    let v = Fpu.get fpu i in
    Fpu.push fpu v
  | Fld_m (fs, m) -> Fpu.push fpu (read_f fs m)
  | Fld1 -> Fpu.push fpu 1.0
  | Fldz -> Fpu.push fpu 0.0
  | Fldpi -> Fpu.push fpu (Float.pi)
  | Fst_st (i, pop) ->
    Fpu.set fpu i (Fpu.get fpu 0);
    if pop then Fpu.pop fpu
  | Fst_m (fs, m, pop) ->
    let v = Fpu.get fpu 0 in
    let a = State.ea st m in
    (match fs with
    | F32 -> Memory.write_f32 mem a (Fpconv.f32_of_bits (Fpconv.bits_of_f32 v))
    | F64 -> Memory.write_f64 mem a v);
    if pop then Fpu.pop fpu
  | Fild (is, m) ->
    let a = State.ea st m in
    let v =
      match is with
      | I16 -> Float.of_int (Word.signed16 (Memory.read16 mem a))
      | I32 -> Float.of_int (Word.signed32 (Memory.read32 mem a))
    in
    Fpu.push fpu v
  | Fist_m (is, m, pop) ->
    let v = Fpu.get fpu 0 in
    let a = State.ea st m in
    (match is with
    | I16 -> Memory.write16 mem a (Fpconv.fist ~bits:16 v)
    | I32 -> Memory.write32 mem a (Fpconv.fist ~bits:32 v));
    if pop then Fpu.pop fpu
  | Fop_st0_st (op, i) ->
    let a = Fpu.get fpu 0 and b = Fpu.get fpu i in
    Fpu.set fpu 0 (fp_apply op a b)
  | Fop_st_st0 (op, i, pop) ->
    let a = Fpu.get fpu i and b = Fpu.get fpu 0 in
    Fpu.set fpu i (fp_apply op a b);
    if pop then Fpu.pop fpu
  | Fop_m (op, fs, m) ->
    let b = read_f fs m in
    let a = Fpu.get fpu 0 in
    Fpu.set fpu 0 (fp_apply op a b)
  | Fchs -> Fpu.set fpu 0 (-.Fpu.get fpu 0)
  | Fabs -> Fpu.set fpu 0 (Float.abs (Fpu.get fpu 0))
  | Fsqrt -> Fpu.set fpu 0 (Float.sqrt (Fpu.get fpu 0))
  | Frndint -> Fpu.set fpu 0 (Fpconv.rint (Fpu.get fpu 0))
  | Fcom_st (i, pops) ->
    Fpu.compare_with fpu (Fpu.get fpu i);
    for _ = 1 to pops do Fpu.pop fpu done
  | Fcom_m (fs, m, pops) ->
    let v = read_f fs m in
    Fpu.compare_with fpu v;
    for _ = 1 to pops do Fpu.pop fpu done
  | Fnstsw_ax -> State.set16 st Eax (Fpu.status_word fpu)
  | Fxch i -> Fpu.fxch fpu i
  | Ffree i -> Fpu.free fpu i
  | Fincstp -> Fpu.incstp fpu
  | Fdecstp -> Fpu.decstp fpu

(* ---- MMX ------------------------------------------------------------- *)

let mmx_lanes = Word.lanes_map2

let exec_mmx (st : State.t) x =
  let fpu = st.fpu in
  let read_rm = function
    | MM i -> Fpu.mmx_get fpu i
    | MMem m -> Memory.read64 st.mem (State.ea st m)
  in
  match x with
  | Movd_to_mm (mm, src) ->
    let v = read_operand S32 st src in
    Fpu.mmx_set fpu mm (Int64.of_int v)
  | Movd_from_mm (dst, mm) ->
    let v = Fpu.mmx_get fpu mm in
    write_operand S32 st dst (Word.lo32 v)
  | Movq_to_mm (mm, src) ->
    let v = read_rm src in
    Fpu.mmx_set fpu mm v
  | Movq_from_mm (dst, mm) -> (
    let v = Fpu.mmx_get fpu mm in
    match dst with
    | MM i -> Fpu.mmx_set fpu i v
    | MMem m -> Memory.write64 st.mem (State.ea st m) v)
  | Padd (w, mm, src) ->
    let b = read_rm src in
    let a = Fpu.mmx_get fpu mm in
    Fpu.mmx_set fpu mm (mmx_lanes w Int64.add a b)
  | Psub (w, mm, src) ->
    let b = read_rm src in
    let a = Fpu.mmx_get fpu mm in
    Fpu.mmx_set fpu mm (mmx_lanes w Int64.sub a b)
  | Pmullw (mm, src) ->
    let b = read_rm src in
    let a = Fpu.mmx_get fpu mm in
    Fpu.mmx_set fpu mm (mmx_lanes 2 Int64.mul a b)
  | Pand (mm, src) ->
    let b = read_rm src in
    Fpu.mmx_set fpu mm (Int64.logand (Fpu.mmx_get fpu mm) b)
  | Por (mm, src) ->
    let b = read_rm src in
    Fpu.mmx_set fpu mm (Int64.logor (Fpu.mmx_get fpu mm) b)
  | Pxor (mm, src) ->
    let b = read_rm src in
    Fpu.mmx_set fpu mm (Int64.logxor (Fpu.mmx_get fpu mm) b)
  | Pcmpeq (w, mm, src) ->
    let b = read_rm src in
    let a = Fpu.mmx_get fpu mm in
    let f la lb = if Int64.equal la lb then -1L else 0L in
    Fpu.mmx_set fpu mm (mmx_lanes w f a b)
  | Psll (w, mm, n) ->
    let a = Fpu.mmx_get fpu mm in
    let f la _ = if n >= w * 8 then 0L else Int64.shift_left la n in
    Fpu.mmx_set fpu mm (mmx_lanes w f a 0L)
  | Psrl (w, mm, n) ->
    let a = Fpu.mmx_get fpu mm in
    let f la _ = if n >= w * 8 then 0L else Int64.shift_right_logical la n in
    Fpu.mmx_set fpu mm (mmx_lanes w f a 0L)
  | Emms -> Fpu.emms fpu

(* ---- SSE ------------------------------------------------------------- *)

let exec_sse (st : State.t) x =
  let read_xmm_rm = function
    | XM i -> State.get_xmm st i
    | XMem m ->
      let a = State.ea st m in
      let lo = Memory.read64 st.mem a in
      (lo, Memory.read64 st.mem (a + 8))
  in
  let write_xmm_rm rm (lo, hi) =
    match rm with
    | XM i -> State.set_xmm st i (lo, hi)
    | XMem m ->
      let a = State.ea st m in
      Memory.write64 st.mem a lo;
      Memory.write64 st.mem (a + 8) hi
  in
  let ps_map2 f (alo, ahi) (blo, bhi) =
    let do_half a b =
      let r0 = f (Fpconv.ps_get a 0) (Fpconv.ps_get b 0) in
      let r1 = f (Fpconv.ps_get a 1) (Fpconv.ps_get b 1) in
      Fpconv.ps_set (Fpconv.ps_set a 0 r0) 1 r1
    in
    (do_half alo blo, do_half ahi bhi)
  in
  let pd_map2 f (alo, ahi) (blo, bhi) =
    ( Fpconv.bits_of_f64 (f (Fpconv.f64_of_bits alo) (Fpconv.f64_of_bits blo)),
      Fpconv.bits_of_f64 (f (Fpconv.f64_of_bits ahi) (Fpconv.f64_of_bits bhi)) )
  in
  let apply_op op a b =
    match op with
    | SAdd -> a +. b
    | SSub -> a -. b
    | SMul -> a *. b
    | SDiv -> a /. b
    | SMin -> if a < b then a else b (* x86 MIN: returns b on NaN/equal *)
    | SMax -> if a > b then a else b
  in
  let apply_min_max_nan op a b =
    (* x86 MINSS/MAXSS semantics: if either is NaN, or equal, return src *)
    match op with
    | SMin -> if Float.is_nan a || Float.is_nan b then b else if a < b then a else b
    | SMax -> if Float.is_nan a || Float.is_nan b then b else if a > b then a else b
    | _ -> apply_op op a b
  in
  match x with
  | Movaps (dst, src) | Movups (dst, src) -> write_xmm_rm dst (read_xmm_rm src)
  | Movss (XM d, XM s) ->
    let dlo, dhi = State.get_xmm st d in
    let slo, _ = State.get_xmm st s in
    State.set_xmm st d (Word.to_i64 ~lo:(Word.lo32 slo) ~hi:(Word.hi32 dlo), dhi)
  | Movss (XM d, XMem m) ->
    let v = Memory.read32 st.mem (State.ea st m) in
    State.set_xmm st d (Word.to_i64 ~lo:v ~hi:0, 0L)
  | Movss (XMem m, XM s) ->
    let slo, _ = State.get_xmm st s in
    Memory.write32 st.mem (State.ea st m) (Word.lo32 slo)
  | Movss (XMem _, XMem _) -> raise (Fault.Fault Fault.Invalid_opcode)
  | Movsd_x (XM d, XM s) ->
    let _, dhi = State.get_xmm st d in
    let slo, _ = State.get_xmm st s in
    State.set_xmm st d (slo, dhi)
  | Movsd_x (XM d, XMem m) ->
    let v = Memory.read64 st.mem (State.ea st m) in
    State.set_xmm st d (v, 0L)
  | Movsd_x (XMem m, XM s) ->
    let slo, _ = State.get_xmm st s in
    Memory.write64 st.mem (State.ea st m) slo
  | Movsd_x (XMem _, XMem _) -> raise (Fault.Fault Fault.Invalid_opcode)
  | Sse_arith (op, fmt, d, src) -> (
    let b = read_xmm_rm src in
    let a = State.get_xmm st d in
    let f x y = apply_min_max_nan op x y in
    match fmt with
    | Packed_single -> State.set_xmm st d (ps_map2 f a b)
    | Packed_double -> State.set_xmm st d (pd_map2 f a b)
    | Scalar_single ->
      let alo, ahi = a and blo, _ = b in
      let r = f (Fpconv.ps_get alo 0) (Fpconv.ps_get blo 0) in
      State.set_xmm st d (Fpconv.ps_set alo 0 r, ahi)
    | Scalar_double ->
      let alo, ahi = a and blo, _ = b in
      let r = f (Fpconv.f64_of_bits alo) (Fpconv.f64_of_bits blo) in
      State.set_xmm st d (Fpconv.bits_of_f64 r, ahi)
    | Packed_int -> raise (Fault.Fault Fault.Invalid_opcode))
  | Sqrtps (d, src) ->
    let b = read_xmm_rm src in
    let sq _ y = Float.sqrt y in
    State.set_xmm st d (ps_map2 sq b b)
  | Andps (d, src) ->
    let blo, bhi = read_xmm_rm src in
    let alo, ahi = State.get_xmm st d in
    State.set_xmm st d (Int64.logand alo blo, Int64.logand ahi bhi)
  | Orps (d, src) ->
    let blo, bhi = read_xmm_rm src in
    let alo, ahi = State.get_xmm st d in
    State.set_xmm st d (Int64.logor alo blo, Int64.logor ahi bhi)
  | Xorps (d, src) ->
    let blo, bhi = read_xmm_rm src in
    let alo, ahi = State.get_xmm st d in
    State.set_xmm st d (Int64.logxor alo blo, Int64.logxor ahi bhi)
  | Paddd_x (d, src) ->
    let blo, bhi = read_xmm_rm src in
    let alo, ahi = State.get_xmm st d in
    State.set_xmm st d (mmx_lanes 4 Int64.add alo blo, mmx_lanes 4 Int64.add ahi bhi)
  | Psubd_x (d, src) ->
    let blo, bhi = read_xmm_rm src in
    let alo, ahi = State.get_xmm st d in
    State.set_xmm st d (mmx_lanes 4 Int64.sub alo blo, mmx_lanes 4 Int64.sub ahi bhi)
  | Ucomiss (d, src) ->
    let blo, _ = read_xmm_rm src in
    let alo, _ = State.get_xmm st d in
    let a = Fpconv.ps_get alo 0 and b = Fpconv.ps_get blo 0 in
    st.of_ <- false;
    st.af <- false;
    st.sf <- false;
    if Float.is_nan a || Float.is_nan b then begin
      st.zf <- true; st.pf <- true; st.cf <- true
    end
    else begin
      st.zf <- a = b;
      st.pf <- false;
      st.cf <- a < b
    end
  | Cvtsi2ss (d, src) ->
    let v = Word.signed32 (read_operand S32 st src) in
    let dlo, dhi = State.get_xmm st d in
    State.set_xmm st d (Fpconv.ps_set dlo 0 (Float.of_int v), dhi)
  | Cvttss2si (r, src) ->
    let blo, _ = read_xmm_rm src in
    State.set32 st r (Fpconv.cvtt32 (Fpconv.ps_get blo 0))
  | Cvtss2sd (d, src) ->
    let blo, _ = read_xmm_rm src in
    let _, dhi = State.get_xmm st d in
    State.set_xmm st d (Fpconv.bits_of_f64 (Fpconv.ps_get blo 0), dhi)
  | Cvtsd2ss (d, src) ->
    let blo, _ = read_xmm_rm src in
    let dlo, dhi = State.get_xmm st d in
    let r = Fpconv.f32_of_bits (Fpconv.bits_of_f32 (Fpconv.f64_of_bits blo)) in
    State.set_xmm st d (Fpconv.ps_set dlo 0 r, dhi)

(* ---- main dispatch --------------------------------------------------- *)

(* Executes the instruction body (EIP already known to advance by [len] on
   normal completion). Returns the event. *)
let exec (st : State.t) insn next_eip =
  let goto t =
    st.eip <- Word.mask32 t;
    Normal
  in
  let done_ () =
    st.eip <- next_eip;
    Normal
  in
  match insn with
  | Alu (op, size, dst, src) ->
    exec_alu st op size dst src;
    done_ ()
  | Test (size, a, b) ->
    let x = read_operand size st a and y = read_operand size st b in
    logic_flags st size (x land y);
    done_ ()
  | Mov (size, dst, src) ->
    write_operand size st dst (read_operand size st src);
    done_ ()
  | Movzx (ssize, r, src) ->
    State.set32 st r (read_operand ssize st src);
    done_ ()
  | Movsx (ssize, r, src) ->
    State.set32 st r (Word.mask32 (Word.signed (size_bytes ssize) (read_operand ssize st src)));
    done_ ()
  | Lea (r, m) ->
    State.set32 st r (State.ea st m);
    done_ ()
  | Shift (sh, size, dst, amt) ->
    exec_shift st sh size dst amt;
    done_ ()
  | Shld (dst, r, amt) ->
    exec_shld st dst r amt ~left:true;
    done_ ()
  | Shrd (dst, r, amt) ->
    exec_shld st dst r amt ~left:false;
    done_ ()
  | Inc (size, dst) ->
    let w = size_bytes size in
    let a = read_operand size st dst in
    let r = Word.mask w (a + 1) in
    write_operand size st dst r;
    st.of_ <- r = 1 lsl (Word.bits w - 1);
    st.af <- a land 0xF = 0xF;
    set_szp st w r;
    done_ ()
  | Dec (size, dst) ->
    let w = size_bytes size in
    let a = read_operand size st dst in
    let r = Word.mask w (a - 1) in
    write_operand size st dst r;
    st.of_ <- a = 1 lsl (Word.bits w - 1);
    st.af <- a land 0xF = 0;
    set_szp st w r;
    done_ ()
  | Neg (size, dst) ->
    let w = size_bytes size in
    let a = read_operand size st dst in
    let r = Word.mask w (-a) in
    write_operand size st dst r;
    st.cf <- a <> 0;
    st.of_ <- a = 1 lsl (Word.bits w - 1);
    st.af <- a land 0xF <> 0;
    set_szp st w r;
    done_ ()
  | Not (size, dst) ->
    let w = size_bytes size in
    let a = read_operand size st dst in
    write_operand size st dst (Word.mask w (lnot a));
    done_ ()
  | Imul_rr (r, src) ->
    let a = Word.signed32 (State.get32 st r) in
    let b = Word.signed32 (read_operand S32 st src) in
    let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    let lo = Word.mask32 (Int64.to_int p) in
    State.set32 st r lo;
    let ovf = not (Int64.equal p (Int64.of_int (Word.signed32 lo))) in
    st.cf <- ovf;
    st.of_ <- ovf;
    done_ ()
  | Imul_rri (r, src, imm) ->
    let a = Word.signed32 (read_operand S32 st src) in
    let b = Word.signed32 imm in
    let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    let lo = Word.mask32 (Int64.to_int p) in
    State.set32 st r lo;
    let ovf = not (Int64.equal p (Int64.of_int (Word.signed32 lo))) in
    st.cf <- ovf;
    st.of_ <- ovf;
    done_ ()
  | Mul1 (size, src) ->
    exec_mul st size src ~signed:false;
    done_ ()
  | Imul1 (size, src) ->
    exec_mul st size src ~signed:true;
    done_ ()
  | Div (size, src) ->
    exec_div st size src ~signed:false;
    done_ ()
  | Idiv (size, src) ->
    exec_div st size src ~signed:true;
    done_ ()
  | Cdq ->
    State.set32 st Edx (if Word.sign_bit 4 (State.get32 st Eax) then 0xFFFFFFFF else 0);
    done_ ()
  | Cwde ->
    State.set32 st Eax (Word.mask32 (Word.signed16 (State.get16 st Eax)));
    done_ ()
  | Xchg (size, dst, r) ->
    let a = read_operand size st dst in
    let b = State.get_reg size st r in
    write_operand size st dst b;
    State.set_reg size st r a;
    done_ ()
  | Push op ->
    let v = read_operand S32 st op in
    push32 st v;
    done_ ()
  | Pop op -> (
    match op with
    | R r ->
      let v = pop32 st in
      State.set32 st r v;
      done_ ()
    | M m ->
      (* address computed with the pre-pop ESP (model choice, documented) *)
      let a = State.ea st m in
      let v = Memory.read32 st.mem (State.get32 st Esp) in
      Memory.write32 st.mem a v;
      State.set32 st Esp (Word.mask32 (State.get32 st Esp + 4));
      done_ ()
    | I _ -> raise (Fault.Fault Fault.Invalid_opcode))
  | Pushfd ->
    push32 st (State.eflags_word st);
    done_ ()
  | Popfd ->
    let v = pop32 st in
    State.set_eflags_word st v;
    done_ ()
  | Jmp t -> goto t
  | Jcc (c, t) -> if State.eval_cond st c then goto t else done_ ()
  | Call t ->
    push32 st (Word.mask32 next_eip);
    goto t
  | Jmp_ind op -> goto (read_operand S32 st op)
  | Call_ind op ->
    let t = read_operand S32 st op in
    push32 st (Word.mask32 next_eip);
    goto t
  | Ret n ->
    let t = pop32 st in
    State.set32 st Esp (Word.mask32 (State.get32 st Esp + n));
    goto t
  | Setcc (c, dst) ->
    write_operand S8 st dst (if State.eval_cond st c then 1 else 0);
    done_ ()
  | Cmovcc (c, r, src) ->
    (* the source is always read (can fault), the write is conditional *)
    let v = read_operand S32 st src in
    if State.eval_cond st c then State.set32 st r v;
    done_ ()
  | Movs _ | Stos _ | Lods _ | Scas _ ->
    exec_string st insn;
    done_ ()
  | Cld ->
    st.df <- false;
    done_ ()
  | Std ->
    st.df <- true;
    done_ ()
  | Int_n n ->
    st.eip <- next_eip;
    Syscall n
  | Hlt -> raise (Fault.Fault Fault.Privileged)
  | Ud2 -> raise (Fault.Fault Fault.Invalid_opcode)
  | Nop -> done_ ()
  | Fp f ->
    exec_fp st f;
    done_ ()
  | Mmx x ->
    exec_mmx st x;
    done_ ()
  | Sse x ->
    exec_sse st x;
    done_ ()

(* Execute one instruction at EIP. On [Faulted] the architectural state is
   the precise state before the faulting instruction (modulo committed REP
   progress).

   The decode-cache fast path skips [Decode.decode] when the state's
   {!Icache} holds a generation-valid entry for EIP; a valid entry implies
   the source bytes and page protections are unchanged since a successful
   decode, so the fetch-permission check is subsumed by the generation
   compare. The hit path allocates nothing. *)
let step (st : State.t) =
  let eip = st.eip in
  let slot = Icache.find st.icache st.mem eip in
  if slot >= 0 then begin
    let insn = Icache.insn st.icache slot and len = Icache.len st.icache slot in
    match exec st insn (Word.mask32 (eip + len)) with
    | event -> event
    | exception Fault.Fault f -> Faulted f
  end
  else
    match Decode.decode st.mem eip with
    | exception Decode.Invalid _ -> Faulted Fault.Invalid_opcode
    | exception Fault.Fault f -> Faulted f
    | insn, len -> (
      Icache.fill st.icache st.mem eip insn len;
      match exec st insn (Word.mask32 (eip + len)) with
      | event -> event
      | exception Fault.Fault f -> Faulted f)

type stop =
  | Stop_syscall of int
  | Stop_fault of Fault.t
  | Stop_fuel

(* Run until a syscall, fault or fuel exhaustion; returns the stop reason
   and the number of instructions retired. *)
let run ?(fuel = max_int) (st : State.t) =
  let steps = ref 0 in
  let rec go () =
    if !steps >= fuel then Stop_fuel
    else
      match step st with
      | Normal ->
        incr steps;
        go ()
      | Syscall n ->
        incr steps;
        Stop_syscall n
      | Faulted f -> Stop_fault f
  in
  (go (), !steps)
