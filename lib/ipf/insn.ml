(* Itanium-like EPIC target instruction set.

   A faithful-in-shape model of the IPF application ISA subset the
   translator emits: 128 general registers with NaT bits, 128 FP registers,
   64 predicates, branch registers, qualifying predicates on every
   instruction, control speculation (ld.s / chk.s), data speculation
   (ld.a / chk.a + ALAT), compare-to-predicate, deposit/extract, parallel
   (MMX-like) ALU ops on GRs, and FP ops on the flat FP register file.

   Branch targets are either indices into the translation cache
   ({!Tcache}) or exits to the translator runtime ([Out reason]) — the
   model of "branch to a trampoline". *)

type gr = int (* 0..127; r0 reads as 0 *)
type fr = int (* 0..127; f0 = 0.0, f1 = 1.0 *)
type pr = int (* 0..63; p0 is always true *)
type br = int (* 0..7 *)

(* Functional-unit kind, which must match the bundle template slot. *)
type unit_kind = M | I | F | B

type cmp_rel = Ceq | Cne | Clt | Cle | Cgt | Cge | Cltu | Cleu | Cgtu | Cgeu

let cmp_rel_name = function
  | Ceq -> "eq" | Cne -> "ne" | Clt -> "lt" | Cle -> "le" | Cgt -> "gt"
  | Cge -> "ge" | Cltu -> "ltu" | Cleu -> "leu" | Cgtu -> "gtu" | Cgeu -> "geu"

(* Compare types: normal writes p1, p2 = rel, !rel; [Unc] also when the
   qualifying predicate is false (clears both); And/Or update only on the
   matching outcome (parallel compares). *)
type cmp_type = Cnorm | Cunc | Cand_ | Cor_

type fcmp_rel = Feq | Flt | Fle | Funord

(* Speculation flavour of a load. *)
type ld_spec = Ld_none | Ld_s | Ld_a | Ld_sa

(* Why translated code leaves the translation cache and re-enters the
   translator runtime. The machine treats these opaquely. *)
type exit_reason =
  | Dispatch of int (* ia32 target address; block not yet chained *)
  | Indirect (* ia32 target in GR Regs.r_btarget; needs lookup *)
  | Heat of int (* cold block id whose counter hit the threshold *)
  | Syscall of int (* IA-32 int n *)
  | Misalign_regen of int (* block id: stage-1 misalignment trigger *)
  | Smc of int (* block id invalidated by a code-page store *)
  | Spec_fail of int * int (* block id, check id: FP/SSE speculation miss *)
  | Guest_fault of int * int (* ia32 ip, IA-32 exception vector (e.g. 0 = #DE) *)
  | Nat_recover of int (* block id: chk.s found a deferred speculative fault *)
  | Exit_program

let exit_reason_name = function
  | Dispatch a -> Printf.sprintf "dispatch(0x%x)" a
  | Indirect -> "indirect"
  | Heat b -> Printf.sprintf "heat(%d)" b
  | Syscall n -> Printf.sprintf "syscall(%d)" n
  | Misalign_regen b -> Printf.sprintf "misalign-regen(%d)" b
  | Smc b -> Printf.sprintf "smc(%d)" b
  | Spec_fail (b, k) -> Printf.sprintf "spec-fail(%d,%d)" b k
  | Guest_fault (ip, v) -> Printf.sprintf "guest-fault(0x%x,#%d)" ip v
  | Nat_recover b -> Printf.sprintf "nat-recover(%d)" b
  | Exit_program -> "exit"

type target =
  | To of int (* bundle index in the translation cache *)
  | Out of exit_reason

type sem =
  (* integer ALU *)
  | Add of gr * gr * gr (* dst, src1, src2 *)
  | Sub of gr * gr * gr
  | Addi of gr * int * gr (* dst = imm + src *)
  | Subi of gr * int * gr (* dst = imm - src *)
  | And of gr * gr * gr
  | Or of gr * gr * gr
  | Xor of gr * gr * gr
  | Andcm of gr * gr * gr (* dst = src1 & ~src2 *)
  | Andi of gr * int * gr
  | Ori of gr * int * gr
  | Xori of gr * int * gr
  | Shl of gr * gr * gr
  | Shli of gr * gr * int
  | Shru of gr * gr * gr
  | Shrui of gr * gr * int
  | Shrs of gr * gr * gr
  | Shrsi of gr * gr * int
  | Dep of gr * gr * gr * int * int (* dst = deposit src into bse at pos,len *)
  | Depz of gr * gr * int * int (* deposit into zero *)
  | Extr of gr * gr * int * int (* signed extract pos,len *)
  | Extru of gr * gr * int * int
  | Sxt of gr * gr * int (* sign extend low [bytes] *)
  | Zxt of gr * gr * int
  | Mov of gr * gr
  | Movi of gr * int64 (* movl: long immediate *)
  | Mix of gr * gr * gr (* mix1.l-ish: helper for lane shuffles *)
  | Popcnt of gr * gr
  (* Integer division pseudo-ops. Real IPF divides through frcpa + FP
     Newton iterations; we model the whole sequence as one F-unit op with
     fp_div latency (documented deviation in DESIGN.md). *)
  | Divs of gr * gr * gr
  | Divu of gr * gr * gr
  | Rems of gr * gr * gr
  | Remu of gr * gr * gr
  | Xma of gr * gr * gr * gr (* dst = src1*src2 + src3, low 64, signed (F unit) *)
  | Xmau of gr * gr * gr * gr (* unsigned low *)
  | Xmah of gr * gr * gr * gr (* signed high 64 *)
  | Xmahu of gr * gr * gr * gr
  (* parallel (MMX-like) ops on GRs *)
  | Padd of int * gr * gr * gr (* lane bytes: 1,2,4,8 *)
  | Psub of int * gr * gr * gr
  | Pmull of int * gr * gr * gr
  | Pcmpeq of int * gr * gr * gr
  | Pshli of int * gr * gr * int
  | Pshri of int * gr * gr * int
  (* predicates *)
  | Cmp of cmp_rel * cmp_type * pr * pr * gr * gr
  | Cmpi of cmp_rel * cmp_type * pr * pr * int * gr
  | Tbit of pr * pr * gr * int (* p1,p2 = bit(src,pos), ! *)
  | Setp of pr * bool (* helper: cmp.eq p,p0 = r0,r0 style constant set *)
  | Movpr of gr * int64 (* dst = predicate file & mask (save) *)
  | Prmov of gr (* predicate file = dst (restore); barrier *)
  (* memory *)
  | Ld of int * ld_spec * gr * gr (* size, spec, dst, addr-reg *)
  | St of int * gr * gr (* size, addr-reg, src *)
  | Chk_s of gr * target (* branch to recovery if NaT *)
  | Chk_a of gr * target (* branch to recovery if ALAT entry lost *)
  | Invala
  (* FP (values are 64-bit floats; f0/f1 fixed) *)
  | Ldf of int * fr * gr (* 4 = single, 8 = double *)
  | Stf of int * gr * fr
  | Fadd of fr * fr * fr
  | Fsub of fr * fr * fr
  | Fmul of fr * fr * fr
  | Fma of fr * fr * fr * fr (* dst = a*b + c *)
  | Fdiv of fr * fr * fr (* modeled directly; costed as frcpa sequence *)
  | Fsqrt of fr * fr
  | Fneg of fr * fr
  | Fabs_ of fr * fr
  | Fmov of fr * fr
  | Frint of fr * fr (* round to nearest integer value, ties to even *)
  | Fmin of fr * fr * fr (* IA-32 MIN semantics: src2 on NaN/equal *)
  | Fmax of fr * fr * fr
  | Fcmp of fcmp_rel * pr * pr * fr * fr
  | Fcvt_xf of fr * gr (* signed int64 -> float *)
  | Fcvt_fx of gr * fr (* float -> int64, round to nearest even *)
  | Fcvt_fxt of gr * fr (* float -> int64, truncate *)
  | Fcvt_32 of fr * fr (* round double to single precision *)
  | Getf_s of gr * fr (* single-precision bit image *)
  | Getf_d of gr * fr
  | Setf_s of fr * gr
  | Setf_d of fr * gr
  (* branches *)
  | Br of target (* conditional through the qualifying predicate *)
  | Br_ind of br (* indirect within the translation cache *)
  | Mov_to_br of br * gr
  | Mov_from_br of gr * br
  (* profiling pseudo-ops (hot-counter trace selection): one-slot
     saturating counter bumps over arrays owned by the machine. Hotc
     increments its slot and, at the threshold, resets it and leaves the
     translation cache with [Heat id]; Edgec increments its slot and
     saturates silently. Neither touches guest-visible state. *)
  | Hotc of int * int * int (* counter slot, threshold, cold block id *)
  | Edgec of int (* edge-counter slot *)
  | Nop of unit_kind

(* An instruction: a semantic body optionally qualified by a predicate. *)
type t = { qp : pr option; sem : sem }

let mk ?qp sem = { qp; sem }

(* ------------------------------------------------------------------ *)
(* Metadata                                                            *)
(* ------------------------------------------------------------------ *)

(* Functional-unit kind for template placement. *)
let unit_of sem =
  match sem with
  | Ld _ | St _ | Ldf _ | Stf _ | Chk_s _ | Chk_a _ | Invala | Setf_s _
  | Setf_d _ | Getf_s _ | Getf_d _ ->
    M
  | Fadd _ | Fsub _ | Fmul _ | Fma _ | Fdiv _ | Fsqrt _ | Fneg _ | Fabs_ _
  | Fmov _ | Frint _
  | Fmin _ | Fmax _ | Fcmp _ | Fcvt_xf _ | Fcvt_fx _ | Fcvt_fxt _ | Fcvt_32 _
  | Xma _ | Xmau _ | Xmah _ | Xmahu _ | Divs _ | Divu _ | Rems _ | Remu _ ->
    F
  | Br _ | Br_ind _ -> B
  | Mov_to_br _ | Mov_from_br _ -> I
  | Nop k -> k
  | Add _ | Sub _ | Addi _ | Subi _ | And _ | Or _ | Xor _ | Andcm _ | Andi _
  | Ori _ | Xori _ | Shl _ | Shli _ | Shru _ | Shrui _ | Shrs _ | Shrsi _
  | Dep _ | Depz _ | Extr _ | Extru _ | Sxt _ | Zxt _ | Mov _ | Movi _
  | Mix _ | Popcnt _ | Padd _ | Psub _ | Pmull _ | Pcmpeq _ | Pshli _
  | Pshri _ | Cmp _ | Cmpi _ | Tbit _ | Setp _ | Movpr _ | Prmov _
  | Hotc _ | Edgec _ ->
    I

(* Resource identifiers for dependence analysis (scheduler + scoreboard). *)
type res = Rgr of int | Rfr of int | Rpr of int | Rbr of int | Rmem

let reads { qp; sem } =
  let base =
    match sem with
    | Add (_, a, b) | Sub (_, a, b) | And (_, a, b) | Or (_, a, b)
    | Xor (_, a, b) | Andcm (_, a, b) | Shl (_, a, b) | Shru (_, a, b)
    | Shrs (_, a, b) ->
      [ Rgr a; Rgr b ]
    | Addi (_, _, a) | Subi (_, _, a) | Andi (_, _, a) | Ori (_, _, a)
    | Xori (_, _, a) | Shli (_, a, _) | Shrui (_, a, _) | Shrsi (_, a, _)
    | Depz (_, a, _, _) | Extr (_, a, _, _) | Extru (_, a, _, _)
    | Sxt (_, a, _) | Zxt (_, a, _) | Mov (_, a) | Popcnt (_, a) ->
      [ Rgr a ]
    | Dep (_, a, b, _, _) | Mix (_, a, b) | Divs (_, a, b) | Divu (_, a, b)
    | Rems (_, a, b) | Remu (_, a, b) ->
      [ Rgr a; Rgr b ]
    | Movi _ -> []
    | Xma (_, a, b, c) | Xmau (_, a, b, c) | Xmah (_, a, b, c)
    | Xmahu (_, a, b, c) ->
      [ Rgr a; Rgr b; Rgr c ]
    | Padd (_, _, a, b) | Psub (_, _, a, b) | Pmull (_, _, a, b)
    | Pcmpeq (_, _, a, b) ->
      [ Rgr a; Rgr b ]
    | Pshli (_, _, a, _) | Pshri (_, _, a, _) -> [ Rgr a ]
    | Cmp (_, _, _, _, a, b) -> [ Rgr a; Rgr b ]
    | Cmpi (_, _, _, _, _, a) -> [ Rgr a ]
    | Tbit (_, _, a, _) -> [ Rgr a ]
    | Setp _ -> []
    | Movpr _ -> [] (* reads whole predicate file; modeled as barrier below *)
    | Prmov r -> [ Rgr r ]
    | Ld (_, _, _, a) -> [ Rgr a; Rmem ]
    | St (_, a, v) -> [ Rgr a; Rgr v ]
    | Chk_s (r, _) | Chk_a (r, _) -> [ Rgr r ]
    | Invala -> []
    | Ldf (_, _, a) -> [ Rgr a; Rmem ]
    | Stf (_, a, v) -> [ Rgr a; Rfr v ]
    | Fadd (_, a, b) | Fsub (_, a, b) | Fmul (_, a, b) | Fdiv (_, a, b)
    | Fmin (_, a, b) | Fmax (_, a, b) ->
      [ Rfr a; Rfr b ]
    | Fma (_, a, b, c) -> [ Rfr a; Rfr b; Rfr c ]
    | Fsqrt (_, a) | Fneg (_, a) | Fabs_ (_, a) | Fcvt_32 (_, a)
    | Fmov (_, a) | Frint (_, a) ->
      [ Rfr a ]
    | Fcmp (_, _, _, a, b) -> [ Rfr a; Rfr b ]
    | Fcvt_xf (_, a) -> [ Rgr a ]
    | Fcvt_fx (_, a) | Fcvt_fxt (_, a) -> [ Rfr a ]
    | Getf_s (_, a) | Getf_d (_, a) -> [ Rfr a ]
    | Setf_s (_, a) | Setf_d (_, a) -> [ Rgr a ]
    | Br _ -> []
    | Br_ind b -> [ Rbr b ]
    | Mov_to_br (_, a) -> [ Rgr a ]
    | Mov_from_br (_, b) -> [ Rbr b ]
    | Hotc _ | Edgec _ -> []
    | Nop _ -> []
  in
  match qp with Some p -> Rpr p :: base | None -> base

let writes { sem; _ } =
  match sem with
  | Add (d, _, _) | Sub (d, _, _) | Addi (d, _, _) | Subi (d, _, _)
  | And (d, _, _) | Or (d, _, _) | Xor (d, _, _) | Andcm (d, _, _)
  | Andi (d, _, _) | Ori (d, _, _) | Xori (d, _, _) | Shl (d, _, _)
  | Shli (d, _, _) | Shru (d, _, _) | Shrui (d, _, _) | Shrs (d, _, _)
  | Shrsi (d, _, _) | Dep (d, _, _, _, _) | Depz (d, _, _, _)
  | Extr (d, _, _, _) | Extru (d, _, _, _) | Sxt (d, _, _) | Zxt (d, _, _)
  | Mov (d, _) | Movi (d, _) | Mix (d, _, _) | Popcnt (d, _)
  | Divs (d, _, _) | Divu (d, _, _) | Rems (d, _, _) | Remu (d, _, _)
  | Xma (d, _, _, _) | Xmau (d, _, _, _) | Xmah (d, _, _, _)
  | Xmahu (d, _, _, _) | Padd (_, d, _, _) | Psub (_, d, _, _)
  | Pmull (_, d, _, _) | Pcmpeq (_, d, _, _) | Pshli (_, d, _, _)
  | Pshri (_, d, _, _) | Ld (_, _, d, _) | Fcvt_fx (d, _) | Fcvt_fxt (d, _)
  | Getf_s (d, _) | Getf_d (d, _) | Mov_from_br (d, _) | Movpr (d, _) ->
    [ Rgr d ]
  | Cmp (_, _, p1, p2, _, _) | Cmpi (_, _, p1, p2, _, _) | Tbit (p1, p2, _, _)
  | Fcmp (_, p1, p2, _, _) ->
    [ Rpr p1; Rpr p2 ]
  | Setp (p, _) -> [ Rpr p ]
  | Prmov _ -> [] (* writes whole predicate file; treated as barrier *)
  | St _ | Stf _ -> [ Rmem ]
  (* chk.s "defines" its register for dependence purposes: consumers of a
     speculative load must be ordered after the check, never between the
     ld.s and its chk.s (NaT consumption would be a machine fault) *)
  | Chk_s (r, _) | Chk_a (r, _) -> [ Rgr r ]
  | Invala -> []
  | Ldf (_, d, _) | Fadd (d, _, _) | Fsub (d, _, _) | Fmul (d, _, _)
  | Fma (d, _, _, _) | Fdiv (d, _, _) | Fsqrt (d, _) | Fneg (d, _)
  | Fabs_ (d, _) | Fmov (d, _) | Frint (d, _)
  | Fmin (d, _, _) | Fmax (d, _, _) | Fcvt_xf (d, _)
  | Fcvt_32 (d, _) | Setf_s (d, _) | Setf_d (d, _) ->
    [ Rfr d ]
  | Br _ | Br_ind _ -> []
  | Mov_to_br (b, _) -> [ Rbr b ]
  | Hotc _ | Edgec _ -> []
  | Nop _ -> []

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_target ppf = function
  | To n -> Fmt.pf ppf "@%d" n
  | Out r -> Fmt.pf ppf "out:%s" (exit_reason_name r)

let pp_sem ppf sem =
  let g n = Fmt.str "r%d" n in
  let f n = Fmt.str "f%d" n in
  let p n = Fmt.str "p%d" n in
  match sem with
  | Add (d, a, b) -> Fmt.pf ppf "add %s = %s, %s" (g d) (g a) (g b)
  | Sub (d, a, b) -> Fmt.pf ppf "sub %s = %s, %s" (g d) (g a) (g b)
  | Addi (d, i, a) -> Fmt.pf ppf "add %s = %d, %s" (g d) i (g a)
  | Subi (d, i, a) -> Fmt.pf ppf "sub %s = %d, %s" (g d) i (g a)
  | And (d, a, b) -> Fmt.pf ppf "and %s = %s, %s" (g d) (g a) (g b)
  | Or (d, a, b) -> Fmt.pf ppf "or %s = %s, %s" (g d) (g a) (g b)
  | Xor (d, a, b) -> Fmt.pf ppf "xor %s = %s, %s" (g d) (g a) (g b)
  | Andcm (d, a, b) -> Fmt.pf ppf "andcm %s = %s, %s" (g d) (g a) (g b)
  | Andi (d, i, a) -> Fmt.pf ppf "and %s = 0x%x, %s" (g d) i (g a)
  | Ori (d, i, a) -> Fmt.pf ppf "or %s = 0x%x, %s" (g d) i (g a)
  | Xori (d, i, a) -> Fmt.pf ppf "xor %s = 0x%x, %s" (g d) i (g a)
  | Shl (d, a, b) -> Fmt.pf ppf "shl %s = %s, %s" (g d) (g a) (g b)
  | Shli (d, a, n) -> Fmt.pf ppf "shl %s = %s, %d" (g d) (g a) n
  | Shru (d, a, b) -> Fmt.pf ppf "shr.u %s = %s, %s" (g d) (g a) (g b)
  | Shrui (d, a, n) -> Fmt.pf ppf "shr.u %s = %s, %d" (g d) (g a) n
  | Shrs (d, a, b) -> Fmt.pf ppf "shr %s = %s, %s" (g d) (g a) (g b)
  | Shrsi (d, a, n) -> Fmt.pf ppf "shr %s = %s, %d" (g d) (g a) n
  | Dep (d, s, b, pos, len) ->
    Fmt.pf ppf "dep %s = %s, %s, %d, %d" (g d) (g s) (g b) pos len
  | Depz (d, s, pos, len) -> Fmt.pf ppf "dep.z %s = %s, %d, %d" (g d) (g s) pos len
  | Extr (d, s, pos, len) -> Fmt.pf ppf "extr %s = %s, %d, %d" (g d) (g s) pos len
  | Extru (d, s, pos, len) ->
    Fmt.pf ppf "extr.u %s = %s, %d, %d" (g d) (g s) pos len
  | Sxt (d, s, n) -> Fmt.pf ppf "sxt%d %s = %s" n (g d) (g s)
  | Zxt (d, s, n) -> Fmt.pf ppf "zxt%d %s = %s" n (g d) (g s)
  | Mov (d, s) -> Fmt.pf ppf "mov %s = %s" (g d) (g s)
  | Movi (d, v) -> Fmt.pf ppf "movl %s = 0x%Lx" (g d) v
  | Mix (d, a, b) -> Fmt.pf ppf "mix %s = %s, %s" (g d) (g a) (g b)
  | Popcnt (d, s) -> Fmt.pf ppf "popcnt %s = %s" (g d) (g s)
  | Divs (d, a, b) -> Fmt.pf ppf "div %s = %s, %s" (g d) (g a) (g b)
  | Divu (d, a, b) -> Fmt.pf ppf "div.u %s = %s, %s" (g d) (g a) (g b)
  | Rems (d, a, b) -> Fmt.pf ppf "rem %s = %s, %s" (g d) (g a) (g b)
  | Remu (d, a, b) -> Fmt.pf ppf "rem.u %s = %s, %s" (g d) (g a) (g b)
  | Xma (d, a, b, c) -> Fmt.pf ppf "xma.l %s = %s, %s, %s" (g d) (g a) (g b) (g c)
  | Xmau (d, a, b, c) -> Fmt.pf ppf "xma.lu %s = %s, %s, %s" (g d) (g a) (g b) (g c)
  | Xmah (d, a, b, c) -> Fmt.pf ppf "xma.h %s = %s, %s, %s" (g d) (g a) (g b) (g c)
  | Xmahu (d, a, b, c) ->
    Fmt.pf ppf "xma.hu %s = %s, %s, %s" (g d) (g a) (g b) (g c)
  | Padd (w, d, a, b) -> Fmt.pf ppf "padd%d %s = %s, %s" w (g d) (g a) (g b)
  | Psub (w, d, a, b) -> Fmt.pf ppf "psub%d %s = %s, %s" w (g d) (g a) (g b)
  | Pmull (w, d, a, b) -> Fmt.pf ppf "pmpy%d %s = %s, %s" w (g d) (g a) (g b)
  | Pcmpeq (w, d, a, b) -> Fmt.pf ppf "pcmp%d.eq %s = %s, %s" w (g d) (g a) (g b)
  | Pshli (w, d, a, n) -> Fmt.pf ppf "pshl%d %s = %s, %d" w (g d) (g a) n
  | Pshri (w, d, a, n) -> Fmt.pf ppf "pshr%d.u %s = %s, %d" w (g d) (g a) n
  | Cmp (rel, _, p1, p2, a, b) ->
    Fmt.pf ppf "cmp.%s %s, %s = %s, %s" (cmp_rel_name rel) (p p1) (p p2) (g a) (g b)
  | Cmpi (rel, _, p1, p2, i, a) ->
    Fmt.pf ppf "cmp.%s %s, %s = %d, %s" (cmp_rel_name rel) (p p1) (p p2) i (g a)
  | Tbit (p1, p2, a, pos) ->
    Fmt.pf ppf "tbit %s, %s = %s, %d" (p p1) (p p2) (g a) pos
  | Setp (pr, v) -> Fmt.pf ppf "setp %s = %b" (p pr) v
  | Movpr (d, mask) -> Fmt.pf ppf "mov %s = pr & 0x%Lx" (g d) mask
  | Prmov r -> Fmt.pf ppf "mov pr = %s" (g r)
  | Ld (n, spec, d, a) ->
    let s =
      match spec with Ld_none -> "" | Ld_s -> ".s" | Ld_a -> ".a" | Ld_sa -> ".sa"
    in
    Fmt.pf ppf "ld%d%s %s = [%s]" n s (g d) (g a)
  | St (n, a, v) -> Fmt.pf ppf "st%d [%s] = %s" n (g a) (g v)
  | Chk_s (r, t) -> Fmt.pf ppf "chk.s %s, %a" (g r) pp_target t
  | Chk_a (r, t) -> Fmt.pf ppf "chk.a %s, %a" (g r) pp_target t
  | Invala -> Fmt.string ppf "invala"
  | Ldf (n, d, a) -> Fmt.pf ppf "ldf%s %s = [%s]" (if n = 4 then "s" else "d") (f d) (g a)
  | Stf (n, a, v) -> Fmt.pf ppf "stf%s [%s] = %s" (if n = 4 then "s" else "d") (g a) (f v)
  | Fadd (d, a, b) -> Fmt.pf ppf "fadd %s = %s, %s" (f d) (f a) (f b)
  | Fsub (d, a, b) -> Fmt.pf ppf "fsub %s = %s, %s" (f d) (f a) (f b)
  | Fmul (d, a, b) -> Fmt.pf ppf "fmpy %s = %s, %s" (f d) (f a) (f b)
  | Fma (d, a, b, c) -> Fmt.pf ppf "fma %s = %s, %s, %s" (f d) (f a) (f b) (f c)
  | Fdiv (d, a, b) -> Fmt.pf ppf "fdiv %s = %s, %s" (f d) (f a) (f b)
  | Fsqrt (d, a) -> Fmt.pf ppf "fsqrt %s = %s" (f d) (f a)
  | Fneg (d, a) -> Fmt.pf ppf "fneg %s = %s" (f d) (f a)
  | Fabs_ (d, a) -> Fmt.pf ppf "fabs %s = %s" (f d) (f a)
  | Fmov (d, a) -> Fmt.pf ppf "fmov %s = %s" (f d) (f a)
  | Frint (d, a) -> Fmt.pf ppf "frint %s = %s" (f d) (f a)
  | Fmin (d, a, b) -> Fmt.pf ppf "fmin %s = %s, %s" (f d) (f a) (f b)
  | Fmax (d, a, b) -> Fmt.pf ppf "fmax %s = %s, %s" (f d) (f a) (f b)
  | Fcmp (rel, p1, p2, a, b) ->
    let r = match rel with Feq -> "eq" | Flt -> "lt" | Fle -> "le" | Funord -> "unord" in
    Fmt.pf ppf "fcmp.%s %s, %s = %s, %s" r (p p1) (p p2) (f a) (f b)
  | Fcvt_xf (d, a) -> Fmt.pf ppf "fcvt.xf %s = %s" (f d) (g a)
  | Fcvt_fx (d, a) -> Fmt.pf ppf "fcvt.fx %s = %s" (g d) (f a)
  | Fcvt_fxt (d, a) -> Fmt.pf ppf "fcvt.fx.trunc %s = %s" (g d) (f a)
  | Fcvt_32 (d, a) -> Fmt.pf ppf "fnorm.s %s = %s" (f d) (f a)
  | Getf_s (d, a) -> Fmt.pf ppf "getf.s %s = %s" (g d) (f a)
  | Getf_d (d, a) -> Fmt.pf ppf "getf.d %s = %s" (g d) (f a)
  | Setf_s (d, a) -> Fmt.pf ppf "setf.s %s = %s" (f d) (g a)
  | Setf_d (d, a) -> Fmt.pf ppf "setf.d %s = %s" (f d) (g a)
  | Br t -> Fmt.pf ppf "br %a" pp_target t
  | Br_ind b -> Fmt.pf ppf "br b%d" b
  | Mov_to_br (b, a) -> Fmt.pf ppf "mov b%d = %s" b (g a)
  | Mov_from_br (d, b) -> Fmt.pf ppf "mov %s = b%d" (g d) b
  | Hotc (s, t, b) -> Fmt.pf ppf "hotc [%d] thresh=%d blk=%d" s t b
  | Edgec s -> Fmt.pf ppf "edgec [%d]" s
  | Nop M -> Fmt.string ppf "nop.m"
  | Nop I -> Fmt.string ppf "nop.i"
  | Nop F -> Fmt.string ppf "nop.f"
  | Nop B -> Fmt.string ppf "nop.b"

let pp ppf { qp; sem } =
  (match qp with Some p -> Fmt.pf ppf "(p%d) " p | None -> ());
  pp_sem ppf sem

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* Register substitution (used by the hot translator's renamer)        *)
(* ------------------------------------------------------------------ *)

(* Apply register maps to every operand. [g]/[f]/[p] map GRs, FRs and
   predicates respectively. *)
let map_regs ~g ~f ~p { qp; sem } =
  let sem =
    match sem with
    | Add (d, a, b) -> Add (g d, g a, g b)
    | Sub (d, a, b) -> Sub (g d, g a, g b)
    | Addi (d, i, a) -> Addi (g d, i, g a)
    | Subi (d, i, a) -> Subi (g d, i, g a)
    | And (d, a, b) -> And (g d, g a, g b)
    | Or (d, a, b) -> Or (g d, g a, g b)
    | Xor (d, a, b) -> Xor (g d, g a, g b)
    | Andcm (d, a, b) -> Andcm (g d, g a, g b)
    | Andi (d, i, a) -> Andi (g d, i, g a)
    | Ori (d, i, a) -> Ori (g d, i, g a)
    | Xori (d, i, a) -> Xori (g d, i, g a)
    | Shl (d, a, b) -> Shl (g d, g a, g b)
    | Shli (d, a, n) -> Shli (g d, g a, n)
    | Shru (d, a, b) -> Shru (g d, g a, g b)
    | Shrui (d, a, n) -> Shrui (g d, g a, n)
    | Shrs (d, a, b) -> Shrs (g d, g a, g b)
    | Shrsi (d, a, n) -> Shrsi (g d, g a, n)
    | Dep (d, s, b, pos, len) -> Dep (g d, g s, g b, pos, len)
    | Depz (d, s, pos, len) -> Depz (g d, g s, pos, len)
    | Extr (d, s, pos, len) -> Extr (g d, g s, pos, len)
    | Extru (d, s, pos, len) -> Extru (g d, g s, pos, len)
    | Sxt (d, s, n) -> Sxt (g d, g s, n)
    | Zxt (d, s, n) -> Zxt (g d, g s, n)
    | Mov (d, s) -> Mov (g d, g s)
    | Movi (d, v) -> Movi (g d, v)
    | Mix (d, a, b) -> Mix (g d, g a, g b)
    | Popcnt (d, s) -> Popcnt (g d, g s)
    | Divs (d, a, b) -> Divs (g d, g a, g b)
    | Divu (d, a, b) -> Divu (g d, g a, g b)
    | Rems (d, a, b) -> Rems (g d, g a, g b)
    | Remu (d, a, b) -> Remu (g d, g a, g b)
    | Xma (d, a, b, c) -> Xma (g d, g a, g b, g c)
    | Xmau (d, a, b, c) -> Xmau (g d, g a, g b, g c)
    | Xmah (d, a, b, c) -> Xmah (g d, g a, g b, g c)
    | Xmahu (d, a, b, c) -> Xmahu (g d, g a, g b, g c)
    | Padd (w, d, a, b) -> Padd (w, g d, g a, g b)
    | Psub (w, d, a, b) -> Psub (w, g d, g a, g b)
    | Pmull (w, d, a, b) -> Pmull (w, g d, g a, g b)
    | Pcmpeq (w, d, a, b) -> Pcmpeq (w, g d, g a, g b)
    | Pshli (w, d, a, n) -> Pshli (w, g d, g a, n)
    | Pshri (w, d, a, n) -> Pshri (w, g d, g a, n)
    | Cmp (rel, ct, p1, p2, a, b) -> Cmp (rel, ct, p p1, p p2, g a, g b)
    | Cmpi (rel, ct, p1, p2, i, a) -> Cmpi (rel, ct, p p1, p p2, i, g a)
    | Tbit (p1, p2, a, pos) -> Tbit (p p1, p p2, g a, pos)
    | Setp (pr, v) -> Setp (p pr, v)
    | Movpr (d, mask) -> Movpr (g d, mask)
    | Prmov r -> Prmov (g r)
    | Ld (n, spec, d, a) -> Ld (n, spec, g d, g a)
    | St (n, a, v) -> St (n, g a, g v)
    | Chk_s (r, t) -> Chk_s (g r, t)
    | Chk_a (r, t) -> Chk_a (g r, t)
    | Invala -> Invala
    | Ldf (n, d, a) -> Ldf (n, f d, g a)
    | Stf (n, a, v) -> Stf (n, g a, f v)
    | Fadd (d, a, b) -> Fadd (f d, f a, f b)
    | Fsub (d, a, b) -> Fsub (f d, f a, f b)
    | Fmul (d, a, b) -> Fmul (f d, f a, f b)
    | Fma (d, a, b, c) -> Fma (f d, f a, f b, f c)
    | Fdiv (d, a, b) -> Fdiv (f d, f a, f b)
    | Fsqrt (d, a) -> Fsqrt (f d, f a)
    | Fneg (d, a) -> Fneg (f d, f a)
    | Fabs_ (d, a) -> Fabs_ (f d, f a)
    | Fmov (d, a) -> Fmov (f d, f a)
    | Frint (d, a) -> Frint (f d, f a)
    | Fmin (d, a, b) -> Fmin (f d, f a, f b)
    | Fmax (d, a, b) -> Fmax (f d, f a, f b)
    | Fcmp (rel, p1, p2, a, b) -> Fcmp (rel, p p1, p p2, f a, f b)
    | Fcvt_xf (d, a) -> Fcvt_xf (f d, g a)
    | Fcvt_fx (d, a) -> Fcvt_fx (g d, f a)
    | Fcvt_fxt (d, a) -> Fcvt_fxt (g d, f a)
    | Fcvt_32 (d, a) -> Fcvt_32 (f d, f a)
    | Getf_s (d, a) -> Getf_s (g d, f a)
    | Getf_d (d, a) -> Getf_d (g d, f a)
    | Setf_s (d, a) -> Setf_s (f d, g a)
    | Setf_d (d, a) -> Setf_d (f d, g a)
    | Br t -> Br t
    | Br_ind b -> Br_ind b
    | Mov_to_br (b, a) -> Mov_to_br (b, g a)
    | Mov_from_br (d, b) -> Mov_from_br (g d, b)
    | Hotc (s, t, b) -> Hotc (s, t, b)
    | Edgec s -> Edgec s
    | Nop k -> Nop k
  in
  { qp = Option.map p qp; sem }
