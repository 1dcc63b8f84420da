(** Instruction set of the EPIC (Itanium-like) target machine.

    This is the vocabulary the translator emits and the {!Machine}
    executes: predicated three-operand RISC operations over 128 general
    registers (with NaT bits), 128 floating registers, 64 predicates and
    8 branch registers, plus control speculation ([ld.s]/[chk.s]), data
    speculation ([ld.a]/[chk.a]) and the translator's own exit branches.

    Deviations from real IPF (all documented in DESIGN.md): integer
    division is a pseudo-op costed as the [frcpa] + Newton sequence,
    [Movi] models [movl] as one double-width slot, and branch targets are
    translation-cache bundle indices rather than addresses. *)

type gr = int
(** General register number, [0..127]; [r0] reads as zero. *)

type fr = int
(** Floating register number, [0..127]; [f0] = 0.0 and [f1] = 1.0. *)

type pr = int
(** Predicate register number, [0..63]; [p0] is always true. *)

type br = int
(** Branch register number, [0..7]. *)

(** Functional-unit kind, used for bundle template placement. *)
type unit_kind = M | I | F | B

(** Integer compare relations ([u] = unsigned). *)
type cmp_rel = Ceq | Cne | Clt | Cle | Cgt | Cge | Cltu | Cleu | Cgtu | Cgeu

(** Compare types: normal (sets both predicates), unconditional (also
    clears when qualified false), parallel and/or. *)
type cmp_type = Cnorm | Cunc | Cand_ | Cor_

(** Floating compare relations; [Funord] is true iff either operand is
    NaN. *)
type fcmp_rel = Feq | Flt | Fle | Funord

(** Load speculation flavour: none, control ([ld.s]), data ([ld.a]), or
    both ([ld.sa]). *)
type ld_spec = Ld_none | Ld_s | Ld_a | Ld_sa

(** Why translated code leaves the translation cache and re-enters the
    translator runtime. The machine treats these opaquely and reports
    them through {!Machine.stop}. *)
type exit_reason =
  | Dispatch of int  (** IA-32 target address; block not yet chained *)
  | Indirect  (** IA-32 target in [Regs.r_btarget]; needs a lookup *)
  | Heat of int  (** cold block id whose use counter hit the threshold *)
  | Syscall of int  (** IA-32 [int n] *)
  | Misalign_regen of int  (** block id: stage-1 misalignment trigger *)
  | Smc of int  (** block id invalidated by a code-page store *)
  | Spec_fail of int * int
      (** block id, check id: FP/MMX/SSE speculation miss at a block head *)
  | Guest_fault of int * int
      (** IA-32 ip, IA-32 exception vector (e.g. 0 = [#DE]) *)
  | Nat_recover of int
      (** block id: a [chk.s] found a deferred speculative-load fault;
          the engine restores the commit point and rolls forward so the
          fault is re-raised precisely *)
  | Exit_program

val exit_reason_name : exit_reason -> string

(** A branch target: a bundle index inside the translation cache, or an
    exit to the translator runtime. *)
type target = To of int | Out of exit_reason

(** Instruction semantics. Conventions: destination first; immediate
    forms take the immediate before the source ([Addi (d, imm, s)] is
    [d = imm + s]). *)
type sem =
  | Add of gr * gr * gr
  | Sub of gr * gr * gr
  | Addi of gr * int * gr
  | Subi of gr * int * gr  (** [d = imm - s] *)
  | And of gr * gr * gr
  | Or of gr * gr * gr
  | Xor of gr * gr * gr
  | Andcm of gr * gr * gr  (** [d = s1 land lnot s2] *)
  | Andi of gr * int * gr
  | Ori of gr * int * gr
  | Xori of gr * int * gr
  | Shl of gr * gr * gr
  | Shli of gr * gr * int
  | Shru of gr * gr * gr
  | Shrui of gr * gr * int
  | Shrs of gr * gr * gr
  | Shrsi of gr * gr * int
  | Dep of gr * gr * gr * int * int
      (** [Dep (d, src, bse, pos, len)]: deposit [src] into [bse] *)
  | Depz of gr * gr * int * int  (** deposit into zero *)
  | Extr of gr * gr * int * int  (** signed bit-field extract [pos,len] *)
  | Extru of gr * gr * int * int  (** unsigned extract *)
  | Sxt of gr * gr * int  (** sign-extend the low [bytes] *)
  | Zxt of gr * gr * int  (** zero-extend the low [bytes] *)
  | Mov of gr * gr
  | Movi of gr * int64  (** [movl]: long immediate, double slot weight *)
  | Mix of gr * gr * gr  (** lane-shuffle helper *)
  | Popcnt of gr * gr
  | Divs of gr * gr * gr
      (** division pseudo-ops, costed as the FP reciprocal sequence *)
  | Divu of gr * gr * gr
  | Rems of gr * gr * gr
  | Remu of gr * gr * gr
  | Xma of gr * gr * gr * gr  (** [d = s1*s2 + s3], low 64, signed (F) *)
  | Xmau of gr * gr * gr * gr
  | Xmah of gr * gr * gr * gr  (** signed high 64 bits *)
  | Xmahu of gr * gr * gr * gr
  | Padd of int * gr * gr * gr  (** parallel add; lane bytes 1/2/4/8 *)
  | Psub of int * gr * gr * gr
  | Pmull of int * gr * gr * gr
  | Pcmpeq of int * gr * gr * gr
  | Pshli of int * gr * gr * int
  | Pshri of int * gr * gr * int
  | Cmp of cmp_rel * cmp_type * pr * pr * gr * gr
      (** [Cmp (rel, ty, p1, p2, a, b)]: [p1 = a rel b], [p2 = not p1] *)
  | Cmpi of cmp_rel * cmp_type * pr * pr * int * gr
  | Tbit of pr * pr * gr * int  (** [p1 = bit pos of src], [p2 = not] *)
  | Setp of pr * bool  (** set a predicate to a constant *)
  | Movpr of gr * int64  (** save the predicate file under a mask *)
  | Prmov of gr  (** restore the predicate file; scheduling barrier *)
  | Ld of int * ld_spec * gr * gr  (** [Ld (size, spec, dst, addr)] *)
  | St of int * gr * gr  (** [St (size, addr, src)] *)
  | Chk_s of gr * target  (** branch to recovery if the GR's NaT is set *)
  | Chk_a of gr * target  (** branch to recovery if the ALAT entry died *)
  | Invala  (** flush the ALAT *)
  | Ldf of int * fr * gr  (** FP load; size 4 = single, 8 = double *)
  | Stf of int * gr * fr
  | Fadd of fr * fr * fr
  | Fsub of fr * fr * fr
  | Fmul of fr * fr * fr
  | Fma of fr * fr * fr * fr  (** [d = a*b + c] *)
  | Fdiv of fr * fr * fr
  | Fsqrt of fr * fr
  | Fneg of fr * fr
  | Fabs_ of fr * fr
  | Fmov of fr * fr
  | Frint of fr * fr  (** round to integral value, ties to even *)
  | Fmin of fr * fr * fr  (** IA-32 MIN semantics: src2 on NaN/equal *)
  | Fmax of fr * fr * fr
  | Fcmp of fcmp_rel * pr * pr * fr * fr
  | Fcvt_xf of fr * gr  (** signed int64 to float *)
  | Fcvt_fx of gr * fr  (** float to int64, round to nearest even *)
  | Fcvt_fxt of gr * fr  (** float to int64, truncate *)
  | Fcvt_32 of fr * fr  (** round double to single precision *)
  | Getf_s of gr * fr  (** single-precision bit image of an FR *)
  | Getf_d of gr * fr
  | Setf_s of fr * gr
  | Setf_d of fr * gr
  | Br of target  (** branch, conditional via the qualifying predicate *)
  | Br_ind of br  (** indirect branch within the translation cache *)
  | Mov_to_br of br * gr
  | Mov_from_br of gr * br
  | Hotc of int * int * int
      (** [Hotc (slot, threshold, block_id)]: single-slot saturating hot
          counter over the machine-owned table — increments the slot and,
          at the threshold, resets it and leaves with [Heat block_id] *)
  | Edgec of int
      (** [Edgec slot]: saturating taken-edge counter bump (predicated on
          the branch condition); never branches *)
  | Nop of unit_kind

type t = { qp : pr option; sem : sem }
(** An instruction: semantics optionally qualified by a predicate. *)

val mk : ?qp:pr -> sem -> t

val unit_of : sem -> unit_kind
(** Functional unit that executes the instruction ([I]-kind ALU
    instructions also fit [M] slots; see {!Bundle.make}). *)

(** A resource read or written, for dependence analysis. *)
type res = Rgr of int | Rfr of int | Rpr of int | Rbr of int | Rmem

val reads : t -> res list
(** Resources the instruction reads, including its qualifying predicate. *)

val writes : t -> res list
(** Resources written. [Chk_s]/[Chk_a] report their register so
    dependence analysis orders consumers of a speculative load after its
    check. *)

val to_string : t -> string

val map_regs : g:(gr -> gr) -> f:(fr -> fr) -> p:(pr -> pr) -> t -> t
(** Rename every register operand (used by the hot-phase renamer). *)
