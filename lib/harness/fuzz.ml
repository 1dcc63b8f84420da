(* Coverage-steered differential fuzzer for the whole translation stack.

   Generation happens at the Asm DSL level, never at raw bytes: every
   program is well-formed by construction (balanced stacks, depth-tracked
   x87, guarded divisions, bounded loops and string ops, MMX sections
   closed by emms), so a lockstep mismatch is a translator bug, not a
   garbage input. The pools map to the paper's hard cases; a coverage map
   over opcode/operand-shape buckets plus Account event counters steers
   pool selection; findings are minimized by a structural shrinker that
   re-runs lockstep per candidate and localizes with the reproducer
   window. *)

open Ia32
module E = Ia32el.Engine
module L = Ia32el.Lockstep

(* ---------------------------------------------------------------- *)
(* Deterministic PRNG: the Splitmix stream, reduced to ranges        *)
(* ---------------------------------------------------------------- *)

module Rng = struct
  type t = Splitmix.t

  let create = Splitmix.create
  let next = Splitmix.next

  let int t n =
    if n <= 0 then invalid_arg "Fuzz.Rng.int";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

  let bool t = Int64.logand (next t) 1L = 1L
  let choose t arr = arr.(int t (Array.length arr))

  let imm32 t =
    match int t 4 with
    | 0 -> int t 16
    | 1 -> int t 256
    | 2 -> int t 65536 - 32768
    | _ -> Int64.to_int (Int64.logand (next t) 0xFFFFFFFFL)
end

(* ---------------------------------------------------------------- *)
(* Program representation                                            *)
(* ---------------------------------------------------------------- *)

type fitem =
  | FI of Insn.insn
  | FLabel of string
  | FJmp of string
  | FJcc of Insn.cond * string
  | FPatch of string * int
  | FMovlab of Insn.reg * string (* mov reg, address-of-label *)

type atom =
  | Block of { pool : string; items : fitem list }
  | Loop of { pool : string; id : int; count : int; body : atom list }

type prog = { seed : int; atoms : atom list }

open Insn

(* Data layout: loop counters live in the first 0x100 bytes of the data
   section (one dword per loop id); the scratch area every generated
   program reads and writes starts right after and ebp points at it for
   the whole run. *)
let scratch_base = Asm.default_data_base + 0x100
let data_items = [ Asm.space 0x4000 ]
let ctr_mem id = mem_abs (Asm.default_data_base + (4 * id))

(* Lowered form shared by the assembler items, the instruction list and
   both printers. *)
type litem =
  | L_i of Insn.insn
  | L_lab of string
  | L_jmp of string
  | L_jcc of Insn.cond * string
  | L_patch of string * int
  | L_movlab of Insn.reg * string

let rec lower_atom acc = function
  | Block b ->
    List.fold_left
      (fun acc it ->
        (match it with
        | FI i -> L_i i
        | FLabel l -> L_lab l
        | FJmp l -> L_jmp l
        | FJcc (c, l) -> L_jcc (c, l)
        | FPatch (l, v) -> L_patch (l, v)
        | FMovlab (r, l) -> L_movlab (r, l))
        :: acc)
      acc b.items
  | Loop l ->
    let lab = Printf.sprintf "loop%d" l.id in
    let acc = L_i (Mov (S32, M (ctr_mem l.id), I l.count)) :: acc in
    let acc = L_lab lab :: acc in
    let acc = List.fold_left lower_atom acc l.body in
    let acc = L_i (Dec (S32, M (ctr_mem l.id))) :: acc in
    L_jcc (Ne, lab) :: acc

let lower p = List.rev (List.fold_left lower_atom [] p.atoms)

let exit_items =
  [
    Asm.i (Mov (S32, R Eax, I 1));
    Asm.i (Mov (S32, R Ebx, I 0));
    Asm.i (Int_n 0x80);
  ]

let to_items p =
  let body =
    List.map
      (function
        | L_i i -> Asm.i i
        | L_lab l -> Asm.label l
        | L_jmp l -> Asm.jmp l
        | L_jcc (c, l) -> Asm.jcc c l
        | L_patch (l, v) ->
          Asm.with_lab l (fun a -> Mov (S32, M (mem_abs (a + 1)), I v))
        | L_movlab (r, l) -> Asm.mov_ri_lab r l)
      (lower p)
  in
  (Asm.label "start" :: body) @ exit_items

let build_image p = Asm.build ~code:(to_items p) ~data:data_items ()

let rec atom_insns = function
  | Block b ->
    List.length
      (List.filter (function FLabel _ -> false | _ -> true) b.items)
  | Loop l -> 3 + List.fold_left (fun a x -> a + atom_insns x) 0 l.body

let insn_count p = List.fold_left (fun a x -> a + atom_insns x) 0 p.atoms

let prog_insns p =
  List.filter_map
    (function
      | L_i i -> Some i
      | L_lab _ -> None
      | L_jmp _ -> Some (Jmp 0x401000)
      | L_jcc (c, _) -> Some (Jcc (c, 0x401000))
      | L_patch (_, v) -> Some (Mov (S32, M (mem_abs 0x401001), I v))
      | L_movlab (r, _) -> Some (Mov (S32, R r, I 0x401000)))
    (lower p)

let pools p =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | Block b -> Hashtbl.replace tbl b.pool ()
    | Loop l ->
      Hashtbl.replace tbl l.pool ();
      List.iter go l.body
  in
  List.iter go p.atoms;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* ---------------------------------------------------------------- *)
(* Coverage                                                          *)
(* ---------------------------------------------------------------- *)

module Coverage = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let note t b =
    match Hashtbl.find_opt t b with
    | Some r ->
      incr r;
      false
    | None ->
      Hashtbl.add t b (ref 1);
      true

  let covered t b = Hashtbl.mem t b

  let to_list t =
    List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t [])
end

let opcode_name i =
  let s = Insn.to_string i in
  match String.index_opt s ' ' with Some k -> String.sub s 0 k | None -> s

let operand_shapes i =
  let op = function R _ -> "r" | M _ -> "m" | I _ -> "i" in
  match i with
  | Alu (_, _, a, b) | Test (_, a, b) | Mov (_, a, b) -> op a ^ op b
  | Movzx (_, _, s) | Movsx (_, _, s) | Imul_rr (_, s) | Cmovcc (_, _, s) ->
    "r" ^ op s
  | Imul_rri (_, s, _) -> "r" ^ op s ^ "i"
  | Lea _ -> "rm"
  | Shift (_, _, d, _) | Setcc (_, d) -> op d
  | Shld (d, _, _) | Shrd (d, _, _) | Xchg (_, d, _) -> op d ^ "r"
  | Inc (_, d) | Dec (_, d) | Neg (_, d) | Not (_, d)
  | Mul1 (_, d) | Imul1 (_, d) | Div (_, d) | Idiv (_, d) ->
    op d
  | Push s -> op s
  | Pop d -> op d
  | Jmp_ind s | Call_ind s -> op s
  | _ -> ""

let mem_bucket_of_ref (m, w, store) =
  let dir = if store then "st" else "ld" in
  let base = Printf.sprintf "mem:%s%d" dir w in
  let sib = match m.index with Some _ -> [ "mem:sib" ] | None -> [] in
  let abs =
    match (m.base, m.index) with
    | None, None ->
      let a = m.disp in
      let mis = if w > 1 && a mod w <> 0 then [ "mem:misaligned" ] else [] in
      let straddle =
        if (a land 0xFFF) + w > 0x1000 then [ "mem:straddle" ] else []
      in
      mis @ straddle
    | _ -> []
  in
  (base :: sib) @ abs

let static_buckets i =
  let name = opcode_name i in
  let shapes = operand_shapes i in
  let shape_b = if shapes = "" then [] else [ "sh:" ^ name ^ ":" ^ shapes ] in
  (("op:" ^ name) :: shape_b)
  @ List.concat_map mem_bucket_of_ref (Insn.mem_refs i)

(* ---------------------------------------------------------------- *)
(* Printers                                                          *)
(* ---------------------------------------------------------------- *)

let sreg = function
  | Eax -> "Eax" | Ecx -> "Ecx" | Edx -> "Edx" | Ebx -> "Ebx"
  | Esp -> "Esp" | Ebp -> "Ebp" | Esi -> "Esi" | Edi -> "Edi"

let ssize = function S8 -> "S8" | S16 -> "S16" | S32 -> "S32"

let scond = function
  | O -> "O" | No -> "No" | B -> "B" | Ae -> "Ae" | E -> "E" | Ne -> "Ne"
  | Be -> "Be" | A -> "A" | S -> "S" | Ns -> "Ns" | P -> "P" | Np -> "Np"
  | L -> "L" | Ge -> "Ge" | Le -> "Le" | G -> "G"

let salu = function
  | Add -> "Add" | Or -> "Or" | Adc -> "Adc" | Sbb -> "Sbb"
  | And -> "And" | Sub -> "Sub" | Xor -> "Xor" | Cmp -> "Cmp"

let sshift = function
  | Shl -> "Shl" | Shr -> "Shr" | Sar -> "Sar" | Rol -> "Rol" | Ror -> "Ror"

let sfop = function
  | FAdd -> "FAdd" | FSub -> "FSub" | FSubr -> "FSubr"
  | FMul -> "FMul" | FDiv -> "FDiv" | FDivr -> "FDivr"

let sfsize = function F32 -> "F32" | F64 -> "F64"
let sisize = function I16 -> "I16" | I32 -> "I32"

let srep = function
  | No_rep -> "No_rep" | Rep -> "Rep" | Repe -> "Repe" | Repne -> "Repne"

let ssseop = function
  | SAdd -> "SAdd" | SSub -> "SSub" | SMul -> "SMul"
  | SDiv -> "SDiv" | SMin -> "SMin" | SMax -> "SMax"

let ssefmt = function
  | Packed_single -> "Packed_single"
  | Packed_double -> "Packed_double"
  | Scalar_single -> "Scalar_single"
  | Scalar_double -> "Scalar_double"
  | Packed_int -> "Packed_int"

let sint n =
  if n < 0 then Printf.sprintf "(%d)" n
  else if n < 10 then string_of_int n
  else Printf.sprintf "0x%x" n

let smem m =
  match (m.base, m.index) with
  | None, None -> Printf.sprintf "(mem_abs %s)" (sint m.disp)
  | Some b, None when m.disp = 0 -> Printf.sprintf "(mem_b %s)" (sreg b)
  | Some b, None -> Printf.sprintf "(mem_bd %s %s)" (sreg b) (sint m.disp)
  | Some b, Some (x, sc) ->
    Printf.sprintf "(mem_full %s %s %d %s)" (sreg b) (sreg x) sc (sint m.disp)
  | None, Some (x, sc) ->
    Printf.sprintf "{ base = None; index = Some (%s, %d); disp = %s }" (sreg x)
      sc (sint m.disp)

let soper = function
  | R r -> Printf.sprintf "(R %s)" (sreg r)
  | M m -> Printf.sprintf "(M %s)" (smem m)
  | I n -> Printf.sprintf "(I %s)" (sint n)

let samount = function
  | Amt_imm n -> Printf.sprintf "(Amt_imm %d)" n
  | Amt_cl -> "Amt_cl"

let smmx_rm = function
  | MM k -> Printf.sprintf "(MM %d)" k
  | MMem m -> Printf.sprintf "(MMem %s)" (smem m)

let sxmm_rm = function
  | XM k -> Printf.sprintf "(XM %d)" k
  | XMem m -> Printf.sprintf "(XMem %s)" (smem m)

let sfp = function
  | Fld_st k -> Printf.sprintf "Fld_st %d" k
  | Fld_m (fs, m) -> Printf.sprintf "Fld_m (%s, %s)" (sfsize fs) (smem m)
  | Fld1 -> "Fld1"
  | Fldz -> "Fldz"
  | Fldpi -> "Fldpi"
  | Fst_st (k, p) -> Printf.sprintf "Fst_st (%d, %b)" k p
  | Fst_m (fs, m, p) ->
    Printf.sprintf "Fst_m (%s, %s, %b)" (sfsize fs) (smem m) p
  | Fild (is, m) -> Printf.sprintf "Fild (%s, %s)" (sisize is) (smem m)
  | Fist_m (is, m, p) ->
    Printf.sprintf "Fist_m (%s, %s, %b)" (sisize is) (smem m) p
  | Fop_st0_st (op, k) -> Printf.sprintf "Fop_st0_st (%s, %d)" (sfop op) k
  | Fop_st_st0 (op, k, p) ->
    Printf.sprintf "Fop_st_st0 (%s, %d, %b)" (sfop op) k p
  | Fop_m (op, fs, m) ->
    Printf.sprintf "Fop_m (%s, %s, %s)" (sfop op) (sfsize fs) (smem m)
  | Fchs -> "Fchs"
  | Fabs -> "Fabs"
  | Fsqrt -> "Fsqrt"
  | Frndint -> "Frndint"
  | Fcom_st (k, p) -> Printf.sprintf "Fcom_st (%d, %d)" k p
  | Fcom_m (fs, m, p) ->
    Printf.sprintf "Fcom_m (%s, %s, %d)" (sfsize fs) (smem m) p
  | Fnstsw_ax -> "Fnstsw_ax"
  | Fxch k -> Printf.sprintf "Fxch %d" k
  | Ffree k -> Printf.sprintf "Ffree %d" k
  | Fincstp -> "Fincstp"
  | Fdecstp -> "Fdecstp"

let smmx = function
  | Movd_to_mm (k, o) -> Printf.sprintf "Movd_to_mm (%d, %s)" k (soper o)
  | Movd_from_mm (o, k) -> Printf.sprintf "Movd_from_mm (%s, %d)" (soper o) k
  | Movq_to_mm (k, s) -> Printf.sprintf "Movq_to_mm (%d, %s)" k (smmx_rm s)
  | Movq_from_mm (s, k) -> Printf.sprintf "Movq_from_mm (%s, %d)" (smmx_rm s) k
  | Padd (w, k, s) -> Printf.sprintf "Padd (%d, %d, %s)" w k (smmx_rm s)
  | Psub (w, k, s) -> Printf.sprintf "Psub (%d, %d, %s)" w k (smmx_rm s)
  | Pmullw (k, s) -> Printf.sprintf "Pmullw (%d, %s)" k (smmx_rm s)
  | Pand (k, s) -> Printf.sprintf "Pand (%d, %s)" k (smmx_rm s)
  | Por (k, s) -> Printf.sprintf "Por (%d, %s)" k (smmx_rm s)
  | Pxor (k, s) -> Printf.sprintf "Pxor (%d, %s)" k (smmx_rm s)
  | Pcmpeq (w, k, s) -> Printf.sprintf "Pcmpeq (%d, %d, %s)" w k (smmx_rm s)
  | Psll (w, k, n) -> Printf.sprintf "Psll (%d, %d, %d)" w k n
  | Psrl (w, k, n) -> Printf.sprintf "Psrl (%d, %d, %d)" w k n
  | Emms -> "Emms"

let ssse = function
  | Movaps (d, s) -> Printf.sprintf "Movaps (%s, %s)" (sxmm_rm d) (sxmm_rm s)
  | Movups (d, s) -> Printf.sprintf "Movups (%s, %s)" (sxmm_rm d) (sxmm_rm s)
  | Movss (d, s) -> Printf.sprintf "Movss (%s, %s)" (sxmm_rm d) (sxmm_rm s)
  | Movsd_x (d, s) -> Printf.sprintf "Movsd_x (%s, %s)" (sxmm_rm d) (sxmm_rm s)
  | Sse_arith (op, fmt, d, s) ->
    Printf.sprintf "Sse_arith (%s, %s, %d, %s)" (ssseop op) (ssefmt fmt) d
      (sxmm_rm s)
  | Sqrtps (d, s) -> Printf.sprintf "Sqrtps (%d, %s)" d (sxmm_rm s)
  | Andps (d, s) -> Printf.sprintf "Andps (%d, %s)" d (sxmm_rm s)
  | Orps (d, s) -> Printf.sprintf "Orps (%d, %s)" d (sxmm_rm s)
  | Xorps (d, s) -> Printf.sprintf "Xorps (%d, %s)" d (sxmm_rm s)
  | Paddd_x (d, s) -> Printf.sprintf "Paddd_x (%d, %s)" d (sxmm_rm s)
  | Psubd_x (d, s) -> Printf.sprintf "Psubd_x (%d, %s)" d (sxmm_rm s)
  | Ucomiss (d, s) -> Printf.sprintf "Ucomiss (%d, %s)" d (sxmm_rm s)
  | Cvtsi2ss (d, o) -> Printf.sprintf "Cvtsi2ss (%d, %s)" d (soper o)
  | Cvttss2si (r, s) -> Printf.sprintf "Cvttss2si (%s, %s)" (sreg r) (sxmm_rm s)
  | Cvtss2sd (d, s) -> Printf.sprintf "Cvtss2sd (%d, %s)" d (sxmm_rm s)
  | Cvtsd2ss (d, s) -> Printf.sprintf "Cvtsd2ss (%d, %s)" d (sxmm_rm s)

let soi = function
  | Alu (op, s, d, src) ->
    Printf.sprintf "Alu (%s, %s, %s, %s)" (salu op) (ssize s) (soper d)
      (soper src)
  | Test (s, d, src) ->
    Printf.sprintf "Test (%s, %s, %s)" (ssize s) (soper d) (soper src)
  | Mov (s, d, src) ->
    Printf.sprintf "Mov (%s, %s, %s)" (ssize s) (soper d) (soper src)
  | Movzx (s, r, o) ->
    Printf.sprintf "Movzx (%s, %s, %s)" (ssize s) (sreg r) (soper o)
  | Movsx (s, r, o) ->
    Printf.sprintf "Movsx (%s, %s, %s)" (ssize s) (sreg r) (soper o)
  | Lea (r, m) -> Printf.sprintf "Lea (%s, %s)" (sreg r) (smem m)
  | Shift (sh, s, d, a) ->
    Printf.sprintf "Shift (%s, %s, %s, %s)" (sshift sh) (ssize s) (soper d)
      (samount a)
  | Shld (d, r, a) ->
    Printf.sprintf "Shld (%s, %s, %s)" (soper d) (sreg r) (samount a)
  | Shrd (d, r, a) ->
    Printf.sprintf "Shrd (%s, %s, %s)" (soper d) (sreg r) (samount a)
  | Inc (s, d) -> Printf.sprintf "Inc (%s, %s)" (ssize s) (soper d)
  | Dec (s, d) -> Printf.sprintf "Dec (%s, %s)" (ssize s) (soper d)
  | Neg (s, d) -> Printf.sprintf "Neg (%s, %s)" (ssize s) (soper d)
  | Not (s, d) -> Printf.sprintf "Not (%s, %s)" (ssize s) (soper d)
  | Imul_rr (r, o) -> Printf.sprintf "Imul_rr (%s, %s)" (sreg r) (soper o)
  | Imul_rri (r, o, v) ->
    Printf.sprintf "Imul_rri (%s, %s, %s)" (sreg r) (soper o) (sint v)
  | Mul1 (s, o) -> Printf.sprintf "Mul1 (%s, %s)" (ssize s) (soper o)
  | Imul1 (s, o) -> Printf.sprintf "Imul1 (%s, %s)" (ssize s) (soper o)
  | Div (s, o) -> Printf.sprintf "Div (%s, %s)" (ssize s) (soper o)
  | Idiv (s, o) -> Printf.sprintf "Idiv (%s, %s)" (ssize s) (soper o)
  | Cdq -> "Cdq"
  | Cwde -> "Cwde"
  | Xchg (s, o, r) ->
    Printf.sprintf "Xchg (%s, %s, %s)" (ssize s) (soper o) (sreg r)
  | Push o -> Printf.sprintf "Push %s" (soper o)
  | Pop o -> Printf.sprintf "Pop %s" (soper o)
  | Pushfd -> "Pushfd"
  | Popfd -> "Popfd"
  | Jmp t -> Printf.sprintf "Jmp %s" (sint t)
  | Jcc (c, t) -> Printf.sprintf "Jcc (%s, %s)" (scond c) (sint t)
  | Call t -> Printf.sprintf "Call %s" (sint t)
  | Jmp_ind o -> Printf.sprintf "Jmp_ind %s" (soper o)
  | Call_ind o -> Printf.sprintf "Call_ind %s" (soper o)
  | Ret n -> Printf.sprintf "Ret %s" (sint n)
  | Setcc (c, o) -> Printf.sprintf "Setcc (%s, %s)" (scond c) (soper o)
  | Cmovcc (c, r, o) ->
    Printf.sprintf "Cmovcc (%s, %s, %s)" (scond c) (sreg r) (soper o)
  | Movs (s, r) -> Printf.sprintf "Movs (%s, %s)" (ssize s) (srep r)
  | Stos (s, r) -> Printf.sprintf "Stos (%s, %s)" (ssize s) (srep r)
  | Lods (s, r) -> Printf.sprintf "Lods (%s, %s)" (ssize s) (srep r)
  | Scas (s, r) -> Printf.sprintf "Scas (%s, %s)" (ssize s) (srep r)
  | Cld -> "Cld"
  | Std -> "Std"
  | Int_n n -> Printf.sprintf "Int_n %s" (sint n)
  | Hlt -> "Hlt"
  | Ud2 -> "Ud2"
  | Nop -> "Nop"
  | Fp f -> Printf.sprintf "Fp (%s)" (sfp f)
  | Mmx m -> Printf.sprintf "Mmx (%s)" (smmx m)
  | Sse s -> Printf.sprintf "Sse (%s)" (ssse s)

let pp_prog_asm ppf p =
  Fmt.pf ppf "@[<v>";
  List.iter
    (function
      | L_i i -> Fmt.pf ppf "        %s@," (Insn.to_string i)
      | L_lab l -> Fmt.pf ppf "%s:@," l
      | L_jmp l -> Fmt.pf ppf "        jmp %s@," l
      | L_jcc (c, l) -> Fmt.pf ppf "        j%s %s@," (Insn.cond_name c) l
      | L_patch (l, v) ->
        Fmt.pf ppf "        mov dword [%s+1], %#x   ; smc patch@," l v
      | L_movlab (r, l) ->
        Fmt.pf ppf "        mov %s, %s   ; label address@,"
          (Insn.reg_name r) l)
    (lower p);
  Fmt.pf ppf "@]"

let pp_prog_ocaml ppf p =
  Fmt.pf ppf "@[<v>(* fuzz reproducer: program seed %d *)@," p.seed;
  Fmt.pf ppf "let code =@,  Ia32.Asm.[@,    label \"start\";@,";
  List.iter
    (function
      | L_i i -> Fmt.pf ppf "    i Ia32.Insn.(%s);@," (soi i)
      | L_lab l -> Fmt.pf ppf "    label %S;@," l
      | L_jmp l -> Fmt.pf ppf "    jmp %S;@," l
      | L_jcc (c, l) -> Fmt.pf ppf "    jcc Ia32.Insn.%s %S;@," (scond c) l
      | L_patch (l, v) ->
        Fmt.pf ppf
          "    with_lab %S (fun a -> Ia32.Insn.(Mov (S32, M (mem_abs (a + \
           1)), I %s)));@,"
          l (sint v)
      | L_movlab (r, l) -> Fmt.pf ppf "    mov_ri_lab Ia32.Insn.%s %S;@," (sreg r) l)
    (lower p);
  Fmt.pf ppf "    i Ia32.Insn.(Mov (S32, R Eax, I 1));@,";
  Fmt.pf ppf "    i Ia32.Insn.(Mov (S32, R Ebx, I 0));@,";
  Fmt.pf ppf "    i Ia32.Insn.(Int_n 0x80);@,  ]@,@,";
  Fmt.pf ppf "let data = Ia32.Asm.[ space 0x4000 ]@]"

(* ---------------------------------------------------------------- *)
(* Generation                                                        *)
(* ---------------------------------------------------------------- *)

(* Invariants every pool preserves: ebp = scratch_base, esi in [0,16)
   (index register for scaled addressing), esp balanced, x87 stack
   depth-neutral, MMX sections closed with emms. Freely clobbered:
   eax, ebx, ecx, edx, edi, flags, scratch memory. *)

type gctx = {
  rng : Rng.t;
  mutable next_loop : int;
  mutable next_label : int;
  mutable next_worker : int;
}

let fresh_label c prefix =
  c.next_label <- c.next_label + 1;
  Printf.sprintf "%s%d" prefix c.next_label

let fresh_loop c =
  let id = c.next_loop in
  c.next_loop <- id + 1;
  id

let wregs = [| Eax; Ebx; Ecx; Edx; Edi |]
let sregs = [| Eax; Ecx; Edx; Ebx; Esi; Edi |]
let alu_ops = [| Add; Or; Adc; Sbb; And; Sub; Xor; Cmp |]
let fops = [| FAdd; FSub; FSubr; FMul; FDiv; FDivr |]

let all_conds =
  [| O; No; B; Ae; E; Ne; Be; A; S; Ns; P; Np; L; Ge; Le; G |]

let fi i = FI i
let block pool items = Block { pool; items }
let imm rng = Word.mask32 (Rng.imm32 rng)

let imm_for rng = function
  | S8 -> Rng.int rng 0x100
  | S16 -> Rng.int rng 0x10000
  | S32 -> imm rng

(* Scratch offsets. The 8-aligned generator keeps wide FP/MMX/SSE
   accesses in bounds and mostly aligned; any_off exercises arbitrary
   alignment; the straddle offsets land a 4..16-byte access across the
   data section's interior page boundaries (scratch_base is page_base +
   0x100, so offset 0xEFE sits at page offset 0xFFE). *)
let aligned_off rng = 8 * Rng.int rng 0x6E0
let any_off rng = Rng.int rng 0x3700
let straddle_offs = [| 0xEFB; 0xEFE; 0x1EFE; 0x2EFD |]

let smem ?(off = aligned_off) rng =
  let o = off rng in
  match Rng.int rng 3 with
  | 0 -> mem_abs (scratch_base + o)
  | 1 -> mem_bd Ebp o
  | _ -> mem_full Ebp Esi 4 o

let prologue c =
  let rng = c.rng in
  let items =
    [
      fi (Mov (S32, R Ebp, I scratch_base));
      fi (Mov (S32, R Esi, I (Rng.int rng 16)));
    ]
    @ List.map
        (fun r -> fi (Mov (S32, R r, I (imm rng))))
        [ Eax; Ebx; Ecx; Edx; Edi ]
    @ List.init 4 (fun k ->
          fi (Mov (S32, M (mem_bd Ebp (0x40 * k)), I (imm rng))))
  in
  block "prologue" items

let pool_alu c =
  let rng = c.rng in
  let n = 2 + Rng.int rng 5 in
  let one _ =
    match Rng.int rng 8 with
    | 0 | 1 ->
      let op = Rng.choose rng alu_ops and d = Rng.choose rng wregs in
      (match Rng.int rng 3 with
      | 0 -> fi (Alu (op, S32, R d, R (Rng.choose rng sregs)))
      | 1 -> fi (Alu (op, S32, R d, I (imm rng)))
      | _ -> fi (Alu (op, S32, R d, M (smem rng))))
    | 2 ->
      let sz = Rng.choose rng [| S8; S16; S32 |] in
      fi
        (Alu
           ( Rng.choose rng alu_ops, sz, R (Rng.choose rng wregs),
             I (imm_for rng sz) ))
    | 3 ->
      fi
        (Shift
           ( Rng.choose rng [| Shl; Shr; Sar; Rol; Ror |], S32,
             R (Rng.choose rng wregs), Amt_imm (1 + Rng.int rng 31) ))
    | 4 -> fi (Test (S32, R (Rng.choose rng wregs), R (Rng.choose rng sregs)))
    | 5 ->
      let d =
        if Rng.bool rng then R (Rng.choose rng wregs) else M (smem rng)
      in
      (match Rng.int rng 4 with
      | 0 -> fi (Inc (S32, d))
      | 1 -> fi (Dec (S32, d))
      | 2 -> fi (Neg (S32, d))
      | _ -> fi (Not (S32, d)))
    | 6 ->
      if Rng.bool rng then
        fi (Imul_rr (Rng.choose rng wregs, R (Rng.choose rng sregs)))
      else
        fi
          (Imul_rri
             ( Rng.choose rng wregs, R (Rng.choose rng sregs),
               Rng.int rng 0x1000 ))
    | _ ->
      let mk = if Rng.bool rng then fun d r a -> Shld (d, r, a)
               else fun d r a -> Shrd (d, r, a) in
      fi
        (mk (R (Rng.choose rng wregs)) (Rng.choose rng sregs)
           (Amt_imm (1 + Rng.int rng 31)))
  in
  let cc = Rng.choose rng all_conds in
  let consumer =
    match Rng.int rng 4 with
    | 0 -> [ fi (Setcc (cc, R (Rng.choose rng wregs))) ]
    | 1 -> [ fi (Cmovcc (cc, Rng.choose rng wregs, R (Rng.choose rng sregs))) ]
    | 2 -> [ fi (Alu (Adc, S32, R (Rng.choose rng wregs), I (Rng.int rng 256))) ]
    | _ -> [ fi Pushfd; fi Popfd ]
  in
  [ block "alu" (List.init n one @ consumer) ]

let pool_mem c =
  let rng = c.rng in
  let n = 2 + Rng.int rng 4 in
  let one _ =
    match Rng.int rng 8 with
    | 0 -> fi (Mov (S32, M (smem rng), R (Rng.choose rng sregs)))
    | 1 -> fi (Mov (S32, R (Rng.choose rng wregs), M (smem ~off:any_off rng)))
    | 2 ->
      let sz = if Rng.bool rng then S8 else S16 in
      if Rng.bool rng then
        fi (Movzx (sz, Rng.choose rng wregs, M (smem ~off:any_off rng)))
      else fi (Movsx (sz, Rng.choose rng wregs, M (smem ~off:any_off rng)))
    | 3 ->
      fi
        (Lea
           ( Rng.choose rng wregs,
             mem_full Ebp Esi (Rng.choose rng [| 1; 2; 4; 8 |]) (Rng.int rng 64)
           ))
    | 4 -> fi (Xchg (S32, M (smem rng), Rng.choose rng wregs))
    | 5 ->
      fi
        (Mov
           ( S32, M (mem_abs (scratch_base + Rng.choose rng straddle_offs)),
             R (Rng.choose rng sregs) ))
    | 6 -> fi (Mov (S16, M (smem ~off:any_off rng), I (Rng.int rng 0x10000)))
    | _ ->
      fi
        (Mov
           ( S32, R (Rng.choose rng wregs),
             M (mem_abs (scratch_base + Rng.choose rng straddle_offs)) ))
  in
  let pushpop =
    if Rng.bool rng then begin
      let k = 1 + Rng.int rng 3 in
      List.init k (fun _ ->
          match Rng.int rng 3 with
          | 0 -> fi (Push (R (Rng.choose rng sregs)))
          | 1 -> fi (Push (I (imm rng)))
          | _ -> fi (Push (M (smem rng))))
      @ List.init k (fun j ->
            if j = 0 && Rng.bool rng then fi (Pop (M (smem rng)))
            else fi (Pop (R (Rng.choose rng wregs))))
    end
    else []
  in
  [ block "mem" (List.init n one @ pushpop) ]

let pool_muldiv c =
  let rng = c.rng in
  let items =
    match Rng.int rng 5 with
    | 0 ->
      (* unsigned 32-bit: edx zeroed, divisor >= 1 *)
      [
        fi (Mov (S32, R Ecx, I (1 + Rng.int rng 1000)));
        fi (Alu (Xor, S32, R Edx, R Edx));
        fi (Div (S32, R Ecx));
      ]
    | 1 ->
      (* signed 32-bit: clamp eax non-negative so the quotient fits *)
      [
        fi (Alu (And, S32, R Eax, I 0x7FFFFFFF));
        fi Cdq;
        fi (Mov (S32, R Ecx, I (1 + Rng.int rng 126)));
        fi (Idiv (S32, R Ecx));
      ]
    | 2 ->
      (* 8-bit: ax <= 0xFF so the quotient fits any divisor >= 1 *)
      [
        fi (Alu (And, S32, R Eax, I 0xFF));
        fi (Mov (S32, R Ecx, I (1 + Rng.int rng 100)));
        fi (Div (S8, R Ecx));
      ]
    | 3 ->
      [
        fi (Alu (And, S32, R Eax, I 0xFFFF));
        fi (Alu (Xor, S32, R Edx, R Edx));
        fi (Mov (S32, R Ecx, I (1 + Rng.int rng 10000)));
        fi (Div (S16, R Ecx));
      ]
    | _ ->
      let mk =
        if Rng.bool rng then fun s o -> Mul1 (s, o) else fun s o -> Imul1 (s, o)
      in
      [ fi (mk S32 (R (Rng.choose rng sregs))); fi Cdq ]
  in
  [ block "muldiv" items ]

(* x87: depth-tracked churn between balanced pushes and pops, exercising
   the TOS/TAG speculation boundary. *)
let x87_push rng depth =
  match Rng.int rng (if depth > 0 then 6 else 5) with
  | 0 -> Fld1
  | 1 -> Fldz
  | 2 -> Fldpi
  | 3 -> Fld_m ((if Rng.bool rng then F32 else F64), smem rng)
  | 4 -> Fild ((if Rng.bool rng then I16 else I32), smem rng)
  | _ -> Fld_st (Rng.int rng depth)

let x87_churn rng depth =
  match Rng.int rng 12 with
  | 0 when depth >= 2 -> [ Fxch (1 + Rng.int rng (depth - 1)) ]
  | 1 when depth >= 2 ->
    [ Fop_st0_st (Rng.choose rng fops, 1 + Rng.int rng (depth - 1)) ]
  | 2 when depth >= 2 ->
    [ Fop_st_st0 (Rng.choose rng fops, 1 + Rng.int rng (depth - 1), false) ]
  | 3 ->
    [ Fop_m (Rng.choose rng fops, (if Rng.bool rng then F32 else F64), smem rng) ]
  | 4 -> [ Fchs ]
  | 5 -> [ Fabs ]
  | 6 -> [ Fabs; Fsqrt ]
  | 7 -> [ Frndint ]
  | 8 -> [ Fcom_st (Rng.int rng depth, 0) ]
  | 9 -> [ Fcom_m ((if Rng.bool rng then F32 else F64), smem rng, 0) ]
  | 10 -> [ Fnstsw_ax ]
  | _ -> [ Fincstp; Fdecstp ]

let x87_pop rng remaining =
  match Rng.int rng 4 with
  | 0 -> Fst_m ((if Rng.bool rng then F32 else F64), smem ~off:any_off rng, true)
  | 1 -> Fist_m ((if Rng.bool rng then I16 else I32), smem rng, true)
  | 2 when remaining >= 2 -> Fop_st_st0 (Rng.choose rng fops, 1, true)
  | _ -> Fst_st (0, true)

let pool_x87 c =
  let rng = c.rng in
  let d = 1 + Rng.int rng 4 in
  let pushes = List.init d (fun k -> fi (Fp (x87_push rng k))) in
  let churns =
    List.concat
      (List.init
         (1 + Rng.int rng 4)
         (fun _ -> List.map (fun f -> fi (Fp f)) (x87_churn rng d)))
  in
  let pops = List.init d (fun k -> fi (Fp (x87_pop rng (d - k)))) in
  [ block "x87" (pushes @ churns @ pops) ]

(* x87 work split around a loop: the loop body runs with a non-zero TOS
   established outside it, the hard case for FP stack speculation. *)
let pool_x87_loop c =
  let rng = c.rng in
  let d = 1 + Rng.int rng 2 in
  let pushes =
    List.init d (fun _ -> fi (Fp (if Rng.bool rng then Fld1 else Fldpi)))
  in
  let body_items =
    List.concat
      (List.init 2 (fun _ -> List.map (fun f -> fi (Fp f)) (x87_churn rng d)))
  in
  let pops = List.init d (fun k -> fi (Fp (x87_pop rng (d - k)))) in
  [
    block "x87_loop" pushes;
    Loop
      {
        pool = "x87_loop";
        id = fresh_loop c;
        count = 2 + Rng.int rng 6;
        body = [ block "x87_loop" body_items ];
      };
    block "x87_loop" pops;
  ]

let mmx_src rng = if Rng.bool rng then MM (Rng.int rng 8) else MMem (smem rng)

let pool_mmx c =
  let rng = c.rng in
  let n = 2 + Rng.int rng 4 in
  let one _ =
    match Rng.int rng 9 with
    | 0 ->
      Movd_to_mm
        ( Rng.int rng 8,
          if Rng.bool rng then R (Rng.choose rng sregs) else M (smem rng) )
    | 1 -> Movq_to_mm (Rng.int rng 8, mmx_src rng)
    | 2 -> Padd (Rng.choose rng [| 1; 2; 4; 8 |], Rng.int rng 8, mmx_src rng)
    | 3 -> Psub (Rng.choose rng [| 1; 2; 4; 8 |], Rng.int rng 8, mmx_src rng)
    | 4 -> Pmullw (Rng.int rng 8, mmx_src rng)
    | 5 -> (
      match Rng.int rng 3 with
      | 0 -> Pand (Rng.int rng 8, mmx_src rng)
      | 1 -> Por (Rng.int rng 8, mmx_src rng)
      | _ -> Pxor (Rng.int rng 8, mmx_src rng))
    | 6 -> Pcmpeq (Rng.choose rng [| 1; 2; 4 |], Rng.int rng 8, mmx_src rng)
    | 7 -> Psll (Rng.choose rng [| 2; 4; 8 |], Rng.int rng 8, Rng.int rng 64)
    | _ -> Psrl (Rng.choose rng [| 2; 4; 8 |], Rng.int rng 8, Rng.int rng 64)
  in
  let stores =
    if Rng.bool rng then
      [ fi (Mmx (Movq_from_mm (MMem (smem rng), Rng.int rng 8))) ]
    else [ fi (Mmx (Movd_from_mm (M (smem rng), Rng.int rng 8))) ]
  in
  (* emms is mandatory: MMX marks the whole stack Valid, so a later x87
     push would overflow-fault in a program that is meant to be clean *)
  [ block "mmx" (List.map (fun m -> fi (Mmx m)) (List.init n one) @ stores @ [ fi (Mmx Emms) ]) ]

(* Alternating x87 and MMX sections: every flip crosses the FP/MMX mode
   speculation boundary (paper 4.4). *)
let pool_mmx_fp_flip c =
  let rng = c.rng in
  let x87_bit () =
    [
      fi (Fp (x87_push rng 0));
      fi (Fp (Fop_m (Rng.choose rng fops, F32, smem rng)));
      fi (Fp (Fst_m (F64, smem rng, true)));
    ]
  in
  let mmx_bit =
    [
      fi (Mmx (Movq_to_mm (Rng.int rng 8, MMem (smem rng))));
      fi (Mmx (Padd (2, Rng.int rng 8, mmx_src rng)));
      fi (Mmx Emms);
    ]
  in
  [ block "mmx_fp_flip" (x87_bit () @ mmx_bit @ x87_bit ()) ]

let xmm_src rng = if Rng.bool rng then XM (Rng.int rng 8) else XMem (smem rng)

let pool_sse c =
  let rng = c.rng in
  let init =
    [
      fi (Sse (Movups (XM (Rng.int rng 8), XMem (smem rng))));
      fi (Sse (Cvtsi2ss (Rng.int rng 8, R (Rng.choose rng sregs))));
    ]
  in
  let n = 2 + Rng.int rng 4 in
  let one _ =
    match Rng.int rng 10 with
    | 0 ->
      Sse_arith
        ( Rng.choose rng [| SAdd; SSub; SMul; SDiv; SMin; SMax |],
          Rng.choose rng
            [| Packed_single; Packed_double; Scalar_single; Scalar_double |],
          Rng.int rng 8, xmm_src rng )
    | 1 -> (
      match Rng.int rng 3 with
      | 0 -> Andps (Rng.int rng 8, xmm_src rng)
      | 1 -> Orps (Rng.int rng 8, xmm_src rng)
      | _ -> Xorps (Rng.int rng 8, xmm_src rng))
    | 2 ->
      if Rng.bool rng then Paddd_x (Rng.int rng 8, xmm_src rng)
      else Psubd_x (Rng.int rng 8, xmm_src rng)
    | 3 -> Sqrtps (Rng.int rng 8, xmm_src rng)
    | 4 -> Movaps (XM (Rng.int rng 8), XM (Rng.int rng 8))
    | 5 -> Movss (XM (Rng.int rng 8), xmm_src rng)
    | 6 ->
      if Rng.bool rng then Cvtss2sd (Rng.int rng 8, xmm_src rng)
      else Cvtsd2ss (Rng.int rng 8, xmm_src rng)
    | 7 -> Ucomiss (Rng.int rng 8, xmm_src rng)
    | 8 -> Cvttss2si (Rng.choose rng wregs, xmm_src rng)
    | _ -> Movsd_x (XM (Rng.int rng 8), XM (Rng.int rng 8))
  in
  let stores =
    if Rng.bool rng then
      [ fi (Sse (Movups (XMem (smem rng), XM (Rng.int rng 8)))) ]
    else [ fi (Sse (Movss (XMem (smem rng), XM (Rng.int rng 8)))) ]
  in
  [ block "sse" (init @ List.map (fun s -> fi (Sse s)) (List.init n one) @ stores) ]

let pool_string c =
  let rng = c.rng in
  let count = 1 + Rng.int rng 24 in
  let sz = Rng.choose rng [| S8; S16; S32 |] in
  let down = Rng.bool rng in
  let src = scratch_base + 0x2000 + (if down then 0x400 else 0) + Rng.int rng 0x80 in
  let dst = scratch_base + 0x2800 + (if down then 0x400 else 0) + Rng.int rng 0x80 in
  let op =
    match Rng.int rng 4 with
    | 0 -> Movs (sz, Rep)
    | 1 -> Stos (sz, Rep)
    | 2 -> Lods (sz, No_rep)
    | _ -> Scas (sz, if Rng.bool rng then Repe else Repne)
  in
  let items =
    [
      fi (Mov (S32, R Esi, I src));
      fi (Mov (S32, R Edi, I dst));
      fi (Mov (S32, R Ecx, I count));
      fi (Mov (S32, R Eax, I (imm rng)));
    ]
    @ (if down then [ fi Std ] else [ fi Cld ])
    @ [ fi op; fi Cld; fi (Mov (S32, R Esi, I (Rng.int rng 16))) ]
  in
  [ block "string" items ]

let pool_branch c =
  let rng = c.rng in
  let l1 = fresh_label c "b" in
  let cmp =
    if Rng.bool rng then
      fi
        (Alu
           ( Cmp, S32, R (Rng.choose rng wregs),
             if Rng.bool rng then I (Rng.int rng 256)
             else R (Rng.choose rng sregs) ))
    else fi (Test (S32, R (Rng.choose rng wregs), R (Rng.choose rng sregs)))
  in
  let cc = Rng.choose rng all_conds in
  let tame () =
    fi
      (match Rng.int rng 3 with
      | 0 -> Alu (Add, S32, R (Rng.choose rng wregs), I (Rng.int rng 1024))
      | 1 -> Mov (S32, R (Rng.choose rng wregs), I (imm rng))
      | _ -> Alu (Xor, S32, R (Rng.choose rng wregs), R (Rng.choose rng sregs)))
  in
  let items =
    if Rng.bool rng then [ cmp; FJcc (cc, l1); tame (); tame (); FLabel l1 ]
    else begin
      let l2 = fresh_label c "b" in
      [
        cmp; FJcc (cc, l1); tame (); FJmp l2; FLabel l1; tame (); tame ();
        FLabel l2;
      ]
    end
  in
  [ block "branch" items ]

let pool_smc c =
  let rng = c.rng in
  let lab = fresh_label c "smc" in
  let r = Rng.choose rng wregs in
  let v0 = Rng.int rng 0x10000 and v1 = Rng.int rng 0x10000 in
  let items =
    if Rng.bool rng then
      (* patch ahead: the store rewrites the imm32 of the mov that
         executes right after it *)
      [ FPatch (lab, v1); FLabel lab; fi (Mov (S32, R r, I v0)) ]
    else [ FLabel lab; fi (Mov (S32, R r, I v0)); FPatch (lab, v1) ]
  in
  [ block "smc" items ]

(* Adjacent-pair pool (named "fusion" for the macro-op fuser it once
   stressed; kept byte-stable because its programs make up fixed corpora):
   back-to-back cmp+jcc, test+jcc, st+st (push/push), ld+op and op+st
   sequences, with the memory halves aimed at page-straddling offsets and
   at SMC patch targets. Plain differential cases: the lockstep harness
   checks each against the reference interpreter — faulting second halves
   and pairs rewritten mid-flight included. *)
let pool_fusion c =
  let rng = c.rng in
  let pair _ =
    match Rng.int rng 6 with
    | 0 ->
      (* cmp+jcc *)
      let l = fresh_label c "fu" in
      [
        fi (Alu (Cmp, S32, R (Rng.choose rng wregs), I (Rng.int rng 256)));
        FJcc (Rng.choose rng all_conds, l);
        FLabel l;
      ]
    | 1 ->
      (* test+jcc *)
      let l = fresh_label c "fu" in
      [
        fi (Test (S32, R (Rng.choose rng wregs), R (Rng.choose rng sregs)));
        FJcc (Rng.choose rng all_conds, l);
        FLabel l;
      ]
    | 2 ->
      (* push/push (st+st), balanced so esp survives the block *)
      [
        fi (Push (R (Rng.choose rng sregs)));
        fi (Push (I (imm rng)));
        fi (Pop (R (Rng.choose rng wregs)));
        fi (Pop (R (Rng.choose rng wregs)));
      ]
    | 3 ->
      (* load+op with the load straddling a data-page boundary *)
      [
        fi
          (Mov
             ( S32, R (Rng.choose rng wregs),
               M (mem_abs (scratch_base + Rng.choose rng straddle_offs)) ));
        fi
          (Alu
             ( Rng.choose rng alu_ops, S32, R (Rng.choose rng wregs),
               R (Rng.choose rng sregs) ));
      ]
    | 4 ->
      (* op+store, the store sometimes page-straddling *)
      [
        fi
          (Alu
             ( Rng.choose rng alu_ops, S32, R (Rng.choose rng wregs),
               I (imm rng) ));
        fi
          (Mov
             ( S32,
               (if Rng.bool rng then M (smem rng)
                else M (mem_abs (scratch_base + Rng.choose rng straddle_offs))),
               R (Rng.choose rng sregs) ));
      ]
    | _ ->
      (* SMC aimed at the second half of a cmp+mov pair: the patch
         rewrites the mov's immediate, invalidating its translation *)
      let lab = fresh_label c "fusmc" in
      [
        fi (Alu (Cmp, S32, R (Rng.choose rng wregs), I 1));
        FLabel lab;
        fi (Mov (S32, R (Rng.choose rng wregs), I (Rng.int rng 0x10000)));
        FPatch (lab, Rng.int rng 0x10000);
      ]
  in
  let n = 2 + Rng.int rng 3 in
  [ block "fusion" (List.concat (List.init n pair)) ]

let pool_syscall c =
  let rng = c.rng in
  let items =
    match Rng.int rng 4 with
    | 0 ->
      [
        fi (Mov (S32, R Eax, I 200));
        fi (Mov (S32, R Ebx, I (1 + Rng.int rng 8)));
        fi (Int_n 0x80);
      ]
    | 1 ->
      [
        fi (Mov (S32, R Eax, I 158));
        fi (Mov (S32, R Ebx, I (1 + Rng.int rng 4)));
        fi (Int_n 0x80);
      ]
    | 2 ->
      [
        fi (Mov (S32, R Eax, I 4));
        fi (Mov (S32, R Ebx, I 1));
        fi (Mov (S32, R Ecx, I (scratch_base + 0x1000)));
        fi (Mov (S32, R Edx, I (Rng.int rng 17)));
        fi (Int_n 0x80);
      ]
    | _ -> [ fi (Mov (S32, R Eax, I (300 + Rng.int rng 100))); fi (Int_n 0x80) ]
  in
  [ block "syscall" items ]

(* Guest-thread cells and stacks live in the top kilobyte of the data
   section, above every scratch offset the other pools can generate:
   futex/tid cells at +0x3800, worker stacks growing down from +0x3C00,
   +0x3E00, +0x4000 (worker bodies push nothing, so a slot is ample).
   Worker slots rotate mod 3; every spawning atom joins its worker
   before the atom ends, so at most one fuzz worker is ever live. *)
let tcell w = Asm.default_data_base + 0x3800 + (4 * w)
let ttid w = Asm.default_data_base + 0x3810 + (4 * w)
let tstack w = Asm.default_data_base + 0x3C00 + (0x200 * w)

let spawn_items ~entry ~stack ~arg =
  [
    FMovlab (Ebx, entry);
    fi (Mov (S32, R Ecx, I stack));
    fi (Mov (S32, R Edx, I arg));
    fi (Mov (S32, R Eax, I 120));
    fi (Int_n 0x80);
  ]

let join_items ~tid_mem =
  [
    fi (Mov (S32, R Ebx, M tid_mem));
    fi (Mov (S32, R Eax, I 7));
    fi (Int_n 0x80);
  ]

let pool_threads c =
  let rng = c.rng in
  let w = c.next_worker mod 3 in
  c.next_worker <- c.next_worker + 1;
  let items =
    match Rng.int rng 5 with
    | 0 ->
      (* spawn a compute worker (optionally yielding) and join it *)
      let wl = fresh_label c "twork" and sl = fresh_label c "tskip" in
      let code = Rng.int rng 64 in
      let yieldy = Rng.bool rng in
      [ FJmp sl; FLabel wl ]
      @ [
          fi (Imul_rri (Eax, R Eax, 1103515245));
          fi (Alu (Add, S32, R Eax, I 12345));
          fi (Mov (S32, M (mem_abs (tcell w)), R Eax));
        ]
      @ (if yieldy then [ fi (Mov (S32, R Eax, I 159)); fi (Int_n 0x80) ]
         else [])
      @ [
          fi (Mov (S32, R Eax, I 1));
          fi (Mov (S32, R Ebx, I code));
          fi (Int_n 0x80);
          FLabel sl;
        ]
      @ spawn_items ~entry:wl ~stack:(tstack w) ~arg:(Rng.int rng 256)
      @ [ fi (Mov (S32, M (mem_abs (ttid w)), R Eax)) ]
      @ join_items ~tid_mem:(mem_abs (ttid w))
    | 1 ->
      (* futex handshake: worker loops check-then-wait on a cell the
         main thread raises and wakes; deadlock-free on any schedule *)
      let wl = fresh_label c "twork"
      and lp = fresh_label c "tloop"
      and dn = fresh_label c "tdone"
      and sl = fresh_label c "tskip" in
      let code = Rng.int rng 64 in
      [
        fi (Mov (S32, M (mem_abs (tcell w)), I 0));
        FJmp sl;
        FLabel wl;
        FLabel lp;
        fi (Mov (S32, R Eax, M (mem_abs (tcell w))));
        fi (Test (S32, R Eax, R Eax));
        FJcc (Ne, dn);
        fi (Mov (S32, R Eax, I 240));
        fi (Mov (S32, R Ebx, I (tcell w)));
        fi (Mov (S32, R Ecx, I 0));
        fi (Mov (S32, R Edx, I 0));
        fi (Int_n 0x80);
        FJmp lp;
        FLabel dn;
        fi (Mov (S32, R Eax, I 1));
        fi (Mov (S32, R Ebx, I code));
        fi (Int_n 0x80);
        FLabel sl;
      ]
      @ spawn_items ~entry:wl ~stack:(tstack w) ~arg:0
      @ [
          fi (Mov (S32, M (mem_abs (ttid w)), R Eax));
          fi (Mov (S32, M (mem_abs (tcell w)), I 1));
          fi (Mov (S32, R Eax, I 240));
          fi (Mov (S32, R Ebx, I (tcell w)));
          fi (Mov (S32, R Ecx, I 1));
          fi (Mov (S32, R Edx, I 8));
          fi (Int_n 0x80);
        ]
      @ join_items ~tid_mem:(mem_abs (ttid w))
    | 2 ->
      (* non-blocking futex error paths: value mismatch, wake with no
         waiters *)
      let v = 1 + Rng.int rng 1000 in
      [
        fi (Mov (S32, M (mem_abs (tcell w)), I v));
        fi (Mov (S32, R Eax, I 240));
        fi (Mov (S32, R Ebx, I (tcell w)));
        fi (Mov (S32, R Ecx, I 0));
        fi (Mov (S32, R Edx, I (v + 1)));
        fi (Int_n 0x80);
        fi (Mov (S32, R Eax, I 240));
        fi (Mov (S32, R Ebx, I (tcell w)));
        fi (Mov (S32, R Ecx, I 1));
        fi (Mov (S32, R Edx, I (1 + Rng.int rng 4)));
        fi (Int_n 0x80);
      ]
    | 3 ->
      (* join error paths: self-join and unknown tid *)
      let bogus = 1000 + Rng.int rng 1000 in
      [
        fi (Mov (S32, R Ebx, I 0));
        fi (Mov (S32, R Eax, I 7));
        fi (Int_n 0x80);
        fi (Mov (S32, R Ebx, I bogus));
        fi (Mov (S32, R Eax, I 7));
        fi (Int_n 0x80);
      ]
    | _ -> [ fi (Mov (S32, R Eax, I 159)); fi (Int_n 0x80) ]
  in
  [ block "threads" items ]

(* Terminal pool: both vehicles must agree on the architectural fault. *)
let pool_fault c =
  let rng = c.rng in
  let items =
    match Rng.int rng 3 with
    | 0 -> [ fi (Alu (Xor, S32, R Ecx, R Ecx)); fi (Div (S32, R Ecx)) ]
    | 1 -> [ fi Ud2 ]
    | _ -> [ fi (Mov (S32, R Eax, M (mem_abs 0x30000000))) ]
  in
  [ block "fault" items ]

(* Pool table: (name, base weight, engine-event buckets the pool targets).
   Steering triples the weight per still-uncovered target bucket. *)
let pool_table =
  [|
    ("alu", 10, [ "ev:commit_points"; "ev:hot_blocks" ]);
    ("mem", 8,
     [ "ev:misalign_stage1_hits"; "ev:misalign_os_faults"; "ev:misalign_avoided" ]);
    ("muldiv", 5, [ "ev:exceptions_filtered" ]);
    ("x87", 8, [ "ev:tos_checks"; "ev:tos_misses"; "ev:tag_misses" ]);
    ("x87_loop", 5, [ "ev:tos_misses" ]);
    ("mmx", 5, [ "ev:mode_checks"; "ev:mode_misses" ]);
    ("mmx_fp_flip", 5, [ "ev:mode_misses" ]);
    ("sse", 6, [ "ev:sse_checks"; "ev:sse_misses" ]);
    ("string", 5, [ "ev:misalign_os_faults" ]);
    ("branch", 8, [ "ev:chain_patches"; "ev:indirect_lookups" ]);
    ("fusion", 9, [ "ev:chain_patches"; "ev:smc_invalidations" ]);
    ("smc", 4, [ "ev:smc_invalidations"; "ev:degrade_smc_storms" ]);
    ("syscall", 6, [ "ev:commit_points"; "ev:rollforwards" ]);
    ("threads", 6,
     [ "ev:thread_spawns"; "ev:futex_waits"; "ev:thread_switches" ]);
    ("fault", 2, [ "ev:exceptions_filtered" ]);
  |]

let gen_pool c = function
  | "alu" -> pool_alu c
  | "mem" -> pool_mem c
  | "muldiv" -> pool_muldiv c
  | "x87" -> pool_x87 c
  | "x87_loop" -> pool_x87_loop c
  | "mmx" -> pool_mmx c
  | "mmx_fp_flip" -> pool_mmx_fp_flip c
  | "sse" -> pool_sse c
  | "string" -> pool_string c
  | "branch" -> pool_branch c
  | "fusion" -> pool_fusion c
  | "smc" -> pool_smc c
  | "syscall" -> pool_syscall c
  | "threads" -> pool_threads c
  | "fault" -> pool_fault c
  | p -> invalid_arg ("Fuzz.gen_pool: " ^ p)

let generate ?steer ~rng ~max_insns seed =
  let c = { rng; next_loop = 0; next_label = 0; next_worker = 0 } in
  let pro = prologue c in
  let atoms = ref [ pro ] in
  let used = ref (atom_insns pro) in
  let heat_done = ref false in
  let stop = ref false in
  let pick () =
    let weights =
      Array.map
        (fun (name, w, targets) ->
          let w =
            match steer with
            | None -> w
            | Some cov ->
              let unc =
                List.length
                  (List.filter (fun b -> not (Coverage.covered cov b)) targets)
              in
              w * (1 + (2 * unc))
          in
          (name, w))
        pool_table
    in
    let total = Array.fold_left (fun a (_, w) -> a + w) 0 weights in
    let k = ref (Rng.int rng total) in
    let chosen = ref (fst weights.(0)) in
    (try
       Array.iter
         (fun (n, w) ->
           if !k < w then begin
             chosen := n;
             raise Exit
           end
           else k := !k - w)
         weights
     with Exit -> ());
    !chosen
  in
  let guard = ref 0 in
  while (not !stop) && !used < max_insns && !guard < 200 do
    incr guard;
    let name = pick () in
    let batch = gen_pool c name in
    let batch =
      if name = "fault" then begin
        stop := true;
        batch
      end
      else if
        (not !heat_done) && c.next_loop < 60 && Rng.int rng 12 = 0
        && List.mem name [ "alu"; "mem"; "x87"; "sse"; "mmx" ]
      then begin
        (* one heat loop per program: enough trips to cross the cold
           block's heat threshold and register it *)
        heat_done := true;
        [
          Loop
            {
              pool = name; id = fresh_loop c; count = 130 + Rng.int rng 270;
              body = batch;
            };
        ]
      end
      else if c.next_loop < 60 && Rng.int rng 100 < 22 then
        [
          Loop
            {
              pool = name; id = fresh_loop c; count = 2 + Rng.int rng 7;
              body = batch;
            };
        ]
      else batch
    in
    let bn = List.fold_left (fun a x -> a + atom_insns x) 0 batch in
    if !used + bn <= max_insns + 8 then begin
      atoms := List.rev_append batch !atoms;
      used := !used + bn
    end
    else stop := true
  done;
  { seed; atoms = List.rev !atoms }

(* Decoder-surface sampler for the round-trip property and the boundary
   fuzz: any encodable instruction in canonical operand form, mirroring
   the envelope the encoder/decoder pair guarantees to round-trip. *)
let gen_insn rng =
  let reg () = Rng.choose rng [| Eax; Ecx; Edx; Ebx; Esp; Ebp; Esi; Edi |] in
  let reg_noesp () = Rng.choose rng [| Eax; Ecx; Edx; Ebx; Ebp; Esi; Edi |] in
  let size () = Rng.choose rng [| S8; S16; S32 |] in
  let disp () =
    match Rng.int rng 3 with
    | 0 -> 0
    | 1 -> Word.mask32 (Rng.int rng 256 - 128)
    | _ -> Word.mask32 (Rng.int rng 200001 - 100000)
  in
  let mem () =
    {
      base = (if Rng.bool rng then Some (reg ()) else None);
      index =
        (if Rng.bool rng then Some (reg_noesp (), Rng.choose rng [| 1; 2; 4; 8 |])
         else None);
      disp = disp ();
    }
  in
  let operand_rm () = if Rng.bool rng then R (reg ()) else M (mem ()) in
  let target () = Word.mask32 (0x400000 + Rng.int rng 0x100000) in
  let cond () = Rng.choose rng all_conds in
  let amount () =
    if Rng.bool rng then Amt_imm (1 + Rng.int rng 31) else Amt_cl
  in
  match Rng.int rng 26 with
  | 0 | 1 -> (
    let op = Rng.choose rng alu_ops and s = size () in
    match Rng.int rng 3 with
    | 0 -> Alu (op, s, operand_rm (), R (reg ()))
    | 1 -> Alu (op, s, R (reg ()), M (mem ()))
    | _ -> Alu (op, s, operand_rm (), I (imm_for rng s)))
  | 2 -> (
    let s = size () in
    match Rng.int rng 3 with
    | 0 -> Mov (s, operand_rm (), R (reg ()))
    | 1 -> Mov (s, R (reg ()), I (imm_for rng s))
    | _ -> Mov (s, M (mem ()), I (imm_for rng s)))
  | 3 -> Movzx ((if Rng.bool rng then S8 else S16), reg (), operand_rm ())
  | 4 -> Movsx ((if Rng.bool rng then S8 else S16), reg (), operand_rm ())
  | 5 -> Lea (reg (), mem ())
  | 6 ->
    Shift
      (Rng.choose rng [| Shl; Shr; Sar; Rol; Ror |], size (), operand_rm (),
       amount ())
  | 7 -> Inc (size (), operand_rm ())
  | 8 -> Neg (size (), operand_rm ())
  | 9 -> Imul_rr (reg (), operand_rm ())
  | 10 -> Div (size (), operand_rm ())
  | 11 -> (
    match Rng.int rng 3 with
    | 0 -> Push (R (reg ()))
    | 1 -> Push (M (mem ()))
    | _ -> Push (I (imm_for rng S32)))
  | 12 -> Pop (operand_rm ())
  | 13 -> Jmp (target ())
  | 14 -> Jcc (cond (), target ())
  | 15 -> Call (target ())
  | 16 -> Jmp_ind (operand_rm ())
  | 17 -> Setcc (cond (), operand_rm ())
  | 18 -> Cmovcc (cond (), reg (), operand_rm ())
  | 19 -> Movs (size (), Rng.choose rng [| No_rep; Rep; Repne |])
  | 20 -> Scas (size (), Rng.choose rng [| No_rep; Repe; Repne |])
  | 21 -> (
    match Rng.int rng 14 with
    | 0 -> Fp (Fld_st (Rng.int rng 8))
    | 1 -> Fp (Fld_m ((if Rng.bool rng then F32 else F64), mem ()))
    | 2 -> Fp Fld1
    | 3 -> Fp Fldz
    | 4 -> Fp (Fst_st (Rng.int rng 8, Rng.bool rng))
    | 5 ->
      Fp (Fst_m ((if Rng.bool rng then F32 else F64), mem (), Rng.bool rng))
    | 6 -> Fp (Fop_st0_st (Rng.choose rng fops, Rng.int rng 8))
    | 7 -> Fp (Fop_st_st0 (Rng.choose rng fops, Rng.int rng 8, Rng.bool rng))
    | 8 ->
      Fp (Fop_m (Rng.choose rng fops, (if Rng.bool rng then F32 else F64), mem ()))
    | 9 -> Fp (Fxch (Rng.int rng 8))
    | 10 -> Fp (Fcom_st (Rng.int rng 8, Rng.int rng 2))
    | 11 -> Fp Fnstsw_ax
    | 12 -> Fp Fchs
    | _ -> Fp Fsqrt)
  | 22 -> (
    match Rng.int rng 7 with
    | 0 ->
      Mmx
        (Movd_to_mm
           (Rng.int rng 8, if Rng.bool rng then R (reg ()) else M (mem ())))
    | 1 ->
      Mmx
        (Movq_to_mm
           (Rng.int rng 8, if Rng.bool rng then MM (Rng.int rng 8) else MMem (mem ())))
    | 2 ->
      Mmx
        (Padd
           ( Rng.choose rng [| 1; 2; 4; 8 |], Rng.int rng 8,
             if Rng.bool rng then MM (Rng.int rng 8) else MMem (mem ()) ))
    | 3 ->
      Mmx
        (Psub
           ( Rng.choose rng [| 1; 2; 4; 8 |], Rng.int rng 8,
             if Rng.bool rng then MM (Rng.int rng 8) else MMem (mem ()) ))
    | 4 ->
      Mmx
        (Pxor
           (Rng.int rng 8, if Rng.bool rng then MM (Rng.int rng 8) else MMem (mem ())))
    | 5 ->
      Mmx (Psll (Rng.choose rng [| 2; 4; 8 |], Rng.int rng 8, Rng.int rng 64))
    | _ -> Mmx Emms)
  | 23 -> (
    match Rng.int rng 6 with
    | 0 ->
      Sse
        (Movaps
           ( XM (Rng.int rng 8),
             if Rng.bool rng then XM (Rng.int rng 8) else XMem (mem ()) ))
    | 1 -> Sse (Movaps (XMem (mem ()), XM (Rng.int rng 8)))
    | 2 ->
      Sse
        (Sse_arith
           ( Rng.choose rng [| SAdd; SSub; SMul; SDiv; SMin; SMax |],
             Rng.choose rng
               [| Packed_single; Packed_double; Scalar_single; Scalar_double |],
             Rng.int rng 8,
             if Rng.bool rng then XM (Rng.int rng 8) else XMem (mem ()) ))
    | 3 ->
      Sse
        (Xorps
           (Rng.int rng 8, if Rng.bool rng then XM (Rng.int rng 8) else XMem (mem ())))
    | 4 ->
      Sse
        (Ucomiss
           (Rng.int rng 8, if Rng.bool rng then XM (Rng.int rng 8) else XMem (mem ())))
    | _ ->
      Sse
        (Cvtsi2ss
           (Rng.int rng 8, if Rng.bool rng then R (reg ()) else M (mem ())))
  )
  | 24 -> Rng.choose rng [| Nop; Cdq; Ret 0 |]
  | _ -> (
    let s = size () in
    Alu (Rng.choose rng alu_ops, s, operand_rm (), I (imm_for rng s)))

(* ---------------------------------------------------------------- *)
(* Running                                                           *)
(* ---------------------------------------------------------------- *)

type run_result =
  | R_ok of { commits : int; exit_code : int }
  | R_halted of Fault.t
  | R_fuel
  | R_diverged of L.divergence
  | R_crash of string

type exec = { result : run_result; engine : E.t option }

(* How a lockstep run ended; shared by [run_one] and the fork-server's
   per-input [server_run]. *)
let result_of_report (report : L.report) =
  match report.L.divergence with
  | Some d -> R_diverged d
  | None -> (
    match report.L.outcome with
    | Some (E.Exited (code, _)) ->
      R_ok { commits = report.L.commits; exit_code = code }
    | Some (E.Unhandled_fault (f, _)) -> R_halted f
    | Some E.Out_of_fuel | None -> R_fuel)

let run_one ?(config = Ia32el.Config.default) ?(fuel = 12_000_000)
    ?inject_seed ?(attach_extra = fun (_ : E.t) -> ()) p =
  let engine = ref None in
  match
    let mem = Memory.create () in
    let st0 = Asm.load ~writable_code:true (build_image p) mem in
    let attach e =
      engine := Some e;
      attach_extra e
    in
    Capsule.run ~attach
      {
        Capsule.p_config = config;
        p_fuel = fuel;
        p_max_cycles = None;
        p_snap_every = None;
        p_inject_seed = inject_seed;
        p_sabotage = None;
        p_lockstep = true;
      }
      mem st0
  with
  | r -> { result = result_of_report r.Capsule.report; engine = !engine }
  | exception ex -> { result = R_crash (Printexc.to_string ex); engine = !engine }

(* ---------------------------------------------------------------- *)
(* Findings and shrinking                                            *)
(* ---------------------------------------------------------------- *)

type classification = Diverged | Crashed | Livelocked

type finding = {
  prog : prog;
  inject_seed : int option;
  classification : classification;
  detail : string;
  window : string list;
}

let classify = function
  | R_diverged _ -> Some Diverged
  | R_crash _ -> Some Crashed
  | R_fuel -> Some Livelocked
  | R_ok _ | R_halted _ -> None

let describe = function
  | R_ok { commits; exit_code } ->
    Printf.sprintf "ok: exit %d after %d commits" exit_code commits
  | R_halted f -> "halted on agreed fault: " ^ Fault.to_string f
  | R_fuel -> "out of fuel (livelock or runaway loop)"
  | R_diverged d ->
    Printf.sprintf "diverged at commit %d: %s" d.L.commit_index
      (String.concat "; " d.L.diffs)
  | R_crash s -> "translator stack raised: " ^ s

let window_of = function R_diverged d -> d.L.window | _ -> []

let classification_name = function
  | Diverged -> "divergence"
  | Crashed -> "crash"
  | Livelocked -> "livelock"

(* Structural helpers for the shrinker. All candidate edits keep label
   uses consistent or are rejected by [labels_ok] before spending any of
   the re-run budget. *)

let rec list_replace k v = function
  | [] -> []
  | x :: tl -> if k = 0 then v :: tl else x :: list_replace (k - 1) v tl

let labels_ok p =
  let defined = Hashtbl.create 8 in
  let ok = ref true in
  let rec collect = function
    | Block b ->
      List.iter
        (function FLabel l -> Hashtbl.replace defined l () | _ -> ())
        b.items
    | Loop l -> List.iter collect l.body
  in
  List.iter collect p.atoms;
  let rec check = function
    | Block b ->
      List.iter
        (function
          | FJmp l | FJcc (_, l) | FPatch (l, _) | FMovlab (_, l) ->
            if not (Hashtbl.mem defined l) then ok := false
          | _ -> ())
        b.items
    | Loop l -> List.iter check l.body
  in
  List.iter check p.atoms;
  !ok

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rec atom_implicated window = function
  | Block b ->
    List.exists
      (function
        | FI i ->
          let s = Insn.to_string i in
          List.exists (fun l -> contains l s) window
        | _ -> false)
      b.items
  | Loop l -> List.exists (atom_implicated window) l.body

(* Every way of removing one atom (recursively); flagged true when the
   removed atom is implicated by the reproducer window, so unimplicated
   removals are attempted first. *)
let rec removals window atoms =
  List.concat
    (List.mapi
       (fun k a ->
         let drop =
           (atom_implicated window a, List.filteri (fun j _ -> j <> k) atoms)
         in
         let inner =
           match a with
           | Loop l ->
             List.map
               (fun (f, body) ->
                 (f, list_replace k (Loop { l with body }) atoms))
               (removals window l.body)
           | Block _ -> []
         in
         drop :: inner)
       atoms)

(* Loop edits: splice the body in place of the loop, or shrink the trip
   count. *)
let rec loop_tweaks atoms =
  List.concat
    (List.mapi
       (fun k a ->
         match a with
         | Block _ -> []
         | Loop l ->
           let flat =
             List.concat
               (List.mapi (fun j x -> if j = k then l.body else [ x ]) atoms)
           in
           let counts =
             List.sort_uniq compare
               (List.filter
                  (fun n -> n >= 1 && n < l.count)
                  [ 1; l.count / 2; l.count - 1 ])
           in
           (flat
           :: List.map
                (fun count -> list_replace k (Loop { l with count }) atoms)
                counts)
           @ List.map
               (fun body -> list_replace k (Loop { l with body }) atoms)
               (loop_tweaks l.body))
       atoms)

let rec item_drops atoms =
  List.concat
    (List.mapi
       (fun k a ->
         match a with
         | Block b when List.length b.items > 1 ->
           List.mapi
             (fun j _ ->
               list_replace k
                 (Block
                    { b with items = List.filteri (fun j' _ -> j' <> j) b.items })
                 atoms)
             b.items
         | Block _ -> []
         | Loop l ->
           List.map
             (fun body -> list_replace k (Loop { l with body }) atoms)
             (item_drops l.body))
       atoms)

(* One whole-program operand-simplification pass: shrink immediates to 1
   (keeping scratch-area pointers intact) and drop SIB complexity. *)
let simplify_atoms atoms =
  let changed = ref false in
  let data_lo = Asm.default_data_base and data_hi = Asm.default_data_base + 0x4000 in
  let fix_op o =
    match o with
    | I n when n <> 0 && n <> 1 && not (n >= data_lo && n < data_hi) ->
      changed := true;
      I 1
    | M m when m.index <> None ->
      changed := true;
      M { m with index = None }
    | o -> o
  in
  let fix_insn = function
    | Alu (op, s, d, src) -> Alu (op, s, d, fix_op src)
    | Mov (s, d, src) -> Mov (s, d, fix_op src)
    | Test (s, d, src) -> Test (s, d, fix_op src)
    | Push src -> Push (fix_op src)
    | i -> i
  in
  let fix_item = function FI i -> FI (fix_insn i) | it -> it in
  let rec fix_atom = function
    | Block b -> Block { b with items = List.map fix_item b.items }
    | Loop l -> Loop { l with body = List.map fix_atom l.body }
  in
  let atoms' = List.map fix_atom atoms in
  if !changed then [ atoms' ] else []

let psize p =
  let il = prog_insns p in
  (List.length il * 1000)
  + List.fold_left (fun a i -> a + String.length (Insn.to_string i)) 0 il

(* Structural minimization: drop injection seed, drop atoms (ordered by
   the lockstep reproducer window — atoms not implicated are tried
   first), flatten loops and shrink trip counts, drop single
   instructions, simplify operands. Each candidate re-runs lockstep and
   is kept only when the same failure class persists; [shrink_budget]
   bounds the number of re-runs. Deterministic. *)
let shrink_budget = 300

let shrink ?fuel ?attach_extra f =
  let runs = ref 0 in
  let try_case prog seed =
    if !runs >= shrink_budget then false
    else begin
      incr runs;
      let ex = run_one ?fuel ?inject_seed:seed ?attach_extra prog in
      classify ex.result = Some f.classification
    end
  in
  let seed = ref f.inject_seed in
  let cur = ref f.prog in
  if !seed <> None && try_case !cur None then seed := None;
  let progress = ref true in
  while !progress do
    progress := false;
    let ordered_removals =
      List.map snd
        (List.stable_sort
           (fun (a, _) (b, _) -> compare a b)
           (removals f.window !cur.atoms))
    in
    let candidates =
      ordered_removals @ loop_tweaks !cur.atoms @ item_drops !cur.atoms
      @ simplify_atoms !cur.atoms
    in
    let accept atoms =
      let p = { !cur with atoms } in
      labels_ok p && psize p < psize !cur
      && try_case p !seed
      && begin
           cur := p;
           true
         end
    in
    match List.find_opt accept candidates with
    | Some _ -> progress := true
    | None -> ()
  done;
  let p = !cur in
  let ex = run_one ?fuel ?inject_seed:!seed ?attach_extra p in
  match classify ex.result with
  | Some c when c = f.classification ->
    {
      prog = p;
      inject_seed = !seed;
      classification = c;
      detail = describe ex.result;
      window = window_of ex.result;
    }
  | _ -> { f with prog = p; inject_seed = !seed }

let pp_finding ppf f =
  Fmt.pf ppf "@[<v>%s (program seed %d%s, %d insns)@,%s@,"
    (String.uppercase_ascii (classification_name f.classification))
    f.prog.seed
    (match f.inject_seed with
    | Some s -> Printf.sprintf ", inject seed %d" s
    | None -> ", no injection")
    (insn_count f.prog) f.detail;
  if f.window <> [] then begin
    Fmt.pf ppf "reproducer window:@,";
    List.iter (fun l -> Fmt.pf ppf "  %s@," l) f.window
  end;
  Fmt.pf ppf "reproducer program:@,%a@]" pp_prog_ocaml f.prog

(* ---------------------------------------------------------------- *)
(* Campaigns                                                         *)
(* ---------------------------------------------------------------- *)

type campaign_config = {
  seed : int;
  runs : int;
  max_insns : int;
  inject_seeds : int list;
  shrink_findings : bool;
  fuel : int;
  max_findings : int;
  corpus_dir : string option;
  attach_extra : (E.t -> unit) option;
  log : string -> unit;
}

let default_campaign =
  {
    seed = 0;
    runs = 500;
    max_insns = 32;
    inject_seeds = [ 1; 2 ];
    shrink_findings = true;
    fuel = 12_000_000;
    max_findings = 5;
    corpus_dir = None;
    attach_extra = None;
    log = ignore;
  }

type campaign_result = {
  programs : int;
  executions : int;
  pools_hit : (string * int) list;
  coverage : (string * int) list;
  findings : finding list;
  corpus_saved : int;
}

let save_corpus dir (p : prog) =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file = Filename.concat dir (Printf.sprintf "prog_%d.ml" p.seed) in
    let oc = open_out file in
    let ppf = Format.formatter_of_out_channel oc in
    pp_prog_ocaml ppf p;
    Format.pp_print_newline ppf ();
    close_out oc;
    true
  with _ -> false

let campaign cfg =
  let cov = Coverage.create () in
  let pools_tbl = Hashtbl.create 16 in
  let bump name =
    match Hashtbl.find_opt pools_tbl name with
    | Some r -> incr r
    | None -> Hashtbl.add pools_tbl name (ref 1)
  in
  let findings = ref [] in
  let n_findings = ref 0 in
  let executions = ref 0 in
  let programs = ref 0 in
  let corpus_saved = ref 0 in
  (try
     for k = 0 to cfg.runs - 1 do
       let pseed = (cfg.seed * 1_000_003) + k in
       let rng = Rng.create pseed in
       let p = generate ~steer:cov ~rng ~max_insns:cfg.max_insns pseed in
       incr programs;
       List.iter bump (pools p);
       let fresh = ref 0 in
       List.iter
         (fun i ->
           List.iter
             (fun b -> if Coverage.note cov b then incr fresh)
             (static_buckets i))
         (prog_insns p);
       let run_case seed_opt =
         incr executions;
         let ex =
           run_one ~fuel:cfg.fuel ?inject_seed:seed_opt
             ?attach_extra:cfg.attach_extra p
         in
         (match ex.engine with
         | Some e ->
           (* per-program counter deltas via the one metrics snapshot the
              CLIs and JSON export also use (counter names are stable
              coverage-bucket keys) *)
           List.iter
             (fun (n, v) ->
               if v > 0 && Coverage.note cov ("ev:" ^ n) then incr fresh)
             (Obs.Metrics.counters (E.metrics e))
         | None -> ());
         match classify ex.result with
         | Some c ->
           findings :=
             {
               prog = p;
               inject_seed = seed_opt;
               classification = c;
               detail = describe ex.result;
               window = window_of ex.result;
             }
             :: !findings;
           incr n_findings;
           cfg.log
             (Printf.sprintf "program %d: %s%s" pseed (classification_name c)
                (match seed_opt with
                | Some s -> Printf.sprintf " (inject seed %d)" s
                | None -> ""));
           true
         | None -> false
       in
       let found = run_case None in
       let found =
         List.fold_left
           (fun acc s -> if acc then acc else run_case (Some s))
           found cfg.inject_seeds
       in
       (match cfg.corpus_dir with
       | Some dir when (not found) && !fresh > 0 ->
         if save_corpus dir p then incr corpus_saved
       | _ -> ());
       if !n_findings >= cfg.max_findings then raise Exit
     done
   with Exit -> ());
  let findings = List.rev !findings in
  let findings =
    if cfg.shrink_findings then
      List.map
        (fun f ->
          cfg.log
            (Printf.sprintf "shrinking %s from program %d (%d insns)..."
               (classification_name f.classification) f.prog.seed
               (insn_count f.prog));
          let f' =
            shrink ~fuel:cfg.fuel ?attach_extra:cfg.attach_extra f
          in
          cfg.log (Printf.sprintf "  ...shrunk to %d insns" (insn_count f'.prog));
          f')
        findings
    else findings
  in
  {
    programs = !programs;
    executions = !executions;
    pools_hit =
      List.sort compare
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) pools_tbl []);
    coverage = Coverage.to_list cov;
    findings;
    corpus_saved = !corpus_saved;
  }

(* ---------------------------------------------------------------- *)
(* Fork-server                                                       *)
(* ---------------------------------------------------------------- *)

(* A fork-server over one base program: build the image and the lockstep
   session once, snapshot both vehicles after startup, then serve
   mutated inputs by writing bytes into the scratch region of BOTH
   memories, running the pair and reverting. The engine snapshot is warm
   ([barrier:false]): the revert judges translations by content, keeping
   every block whose source bytes and page protections match the rewound
   memory and reviving the blocks an input's self-modifying stores
   killed once the rewind restores their bytes. Runs after the first
   skip engine creation and almost all translation; the memory side is
   the page journal, so a revert costs O(pages touched). *)

type server = {
  srv_session : L.session;
  srv_fuel : int;
  mutable srv_translations : int;
}

(* The mutable input region: the scratch area between the loop counters
   and the guest-thread cells; everything the generated pools load from.
   Mutation offsets are relative to [scratch_base]. *)
let mutation_span = 0x3700

let server_start ?(fuel = 12_000_000) p =
  let image = build_image p in
  let mem = Memory.create () in
  let st0 = Asm.load ~writable_code:true image mem in
  let srv_session = L.create ~btlib:(module Btlib.Linuxsim) mem st0 in
  {
    srv_session;
    srv_fuel = fuel;
    srv_translations = 0;
  }

let translated srv =
  let a = (L.engine srv.srv_session).E.acct in
  a.Ia32el.Account.cold_blocks + a.Ia32el.Account.hot_blocks

let apply_mutation srv muts =
  let emem = (L.engine srv.srv_session).E.mem in
  let rmem = L.reference_mem srv.srv_session in
  List.iter
    (fun (off, v) ->
      let a = scratch_base + (off mod mutation_span) in
      Memory.write8 emem a (v land 0xFF);
      Memory.write8 rmem a (v land 0xFF))
    muts

let server_run srv muts =
  L.snapshot srv.srv_session;
  let translated0 = translated srv in
  apply_mutation srv muts;
  let result =
    match L.run_in ~fuel:srv.srv_fuel srv.srv_session with
    | report -> result_of_report report
    | exception ex -> R_crash (Printexc.to_string ex)
  in
  srv.srv_translations <-
    srv.srv_translations + translated srv - translated0;
  L.revert srv.srv_session;
  result

let server_pages_restored srv = L.pages_restored srv.srv_session

let server_translations srv = srv.srv_translations
let server_engine srv = L.engine srv.srv_session

type forkserver_config = {
  fs_seed : int;
  fs_programs : int; (* base programs, one server each *)
  fs_mutations : int; (* mutated runs per base, after the base input *)
  fs_max_insns : int;
  fs_fuel : int;
  fs_max_findings : int;
  fs_log : string -> unit;
}

let default_forkserver =
  {
    fs_seed = 0;
    fs_programs = 4;
    fs_mutations = 64;
    fs_max_insns = 32;
    fs_fuel = 12_000_000;
    fs_max_findings = 5;
    fs_log = ignore;
  }

type forkserver_result = {
  fs_runs : int; (* inputs executed, base inputs included *)
  fs_bases : int;
  fs_findings : (finding * (int * int) list) list;
      (** each finding with the mutation (offset, byte) list that hit it *)
  fs_pages_restored : int;
  fs_translations : int;
}

let mutation_of_rng rng =
  List.init
    (1 + Rng.int rng 48)
    (fun _ -> (Rng.int rng mutation_span, Rng.int rng 256))

let forkserver_campaign cfg =
  let rng = Rng.create (cfg.fs_seed + 0x5EED) in
  let findings = ref [] in
  let runs = ref 0 in
  let bases = ref 0 in
  let restored = ref 0 in
  let translations = ref 0 in
  (try
     for k = 0 to cfg.fs_programs - 1 do
       let pseed = (cfg.fs_seed * 1_000_003) + k in
       let prng = Rng.create pseed in
       let p = generate ~rng:prng ~max_insns:cfg.fs_max_insns pseed in
       let srv = server_start ~fuel:cfg.fs_fuel p in
       incr bases;
       for m = 0 to cfg.fs_mutations do
         let muts = if m = 0 then [] else mutation_of_rng rng in
         let result = server_run srv muts in
         incr runs;
         (match classify result with
         | Some c ->
           findings :=
             ( {
                 prog = p;
                 inject_seed = None;
                 classification = c;
                 detail = describe result;
                 window = window_of result;
               },
               muts )
             :: !findings;
           cfg.fs_log
             (Printf.sprintf "program %d mutation %d: %s" pseed m
                (classification_name c))
         | None -> ());
         if List.length !findings >= cfg.fs_max_findings then raise Exit
       done;
       restored := !restored + server_pages_restored srv;
       translations := !translations + server_translations srv
     done
   with Exit -> ());
  {
    fs_runs = !runs;
    fs_bases = !bases;
    fs_findings = List.rev !findings;
    fs_pages_restored = !restored;
    fs_translations = !translations;
  }

(* ---------------------------------------------------------------- *)
(* CLI helpers                                                       *)
(* ---------------------------------------------------------------- *)

let parse_seed_spec s =
  let err = ref None in
  let parse_int t =
    match int_of_string_opt (String.trim t) with
    | Some n when n >= 0 -> Some n
    | _ -> None
  in
  let seeds =
    List.concat_map
      (fun seg ->
        let seg = String.trim seg in
        match String.index_opt seg '-' with
        | Some k when k > 0 ->
          let a = parse_int (String.sub seg 0 k) in
          let b = parse_int (String.sub seg (k + 1) (String.length seg - k - 1)) in
          (match (a, b) with
          | Some a, Some b when a <= b -> List.init (b - a + 1) (fun i -> a + i)
          | _ ->
            err := Some seg;
            [])
        | _ -> (
          match parse_int seg with
          | Some n -> [ n ]
          | None ->
            err := Some seg;
            []))
      (String.split_on_char ',' s)
  in
  match !err with
  | Some seg -> Error (Printf.sprintf "bad seed spec %S" seg)
  | None -> Ok (List.sort_uniq compare seeds)
