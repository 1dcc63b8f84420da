(** Instruction templates: lowering of single IA-32 instructions to EPIC
    IL (paper §2, "template-based" cold translation).

    The same templates serve both phases. A {!ctx} packages everything a
    template needs — an emission sink, register allocators, control-flow
    hooks, the FP-stack map, SSE format state, the EFLAGS plan and the
    misalignment policy — so the cold driver ({!Cold}) instantiates it
    over a {!Cgen} buffer with per-instruction stops, while the hot
    driver ({!Hot}) instantiates it over its region builder with renaming
    and scheduling downstream.

    EFLAGS discipline: the driver sets {!ctx.plan} before each
    instruction. [Plan_set] materializes the listed flags into canonic
    flag registers; [Plan_fuse] computes the consumer's condition
    predicate directly from the producer's operands (compare+branch
    fusion) and stores it in [ctx.fused_pred]; [Plan_none] skips flag
    work entirely. Either way a {!producer} record is left in
    [ctx.last_producer] so the hot phase's lazy-flags machinery can
    materialize flags later. *)

open Ia32.Insn
module I = Ipf.Insn

(** Misalignment policy for one memory access (paper §4.5). *)
type ma_policy =
  | Ma_plain  (** straight access; misalignment faults to the OS path *)
  | Ma_detect  (** stage 1: detect and branch out to regenerate *)
  | Ma_avoid of int  (** avoidance (byte-split) at granularity [g] *)
  | Ma_avoid_record of int * int
      (** stage 2: avoidance plus a profile-slot increment *)

(** EFLAGS plan for one IA-32 instruction, decided by the driver from the
    liveness analysis and the fusion peephole. *)
type flag_plan =
  | Plan_none
  | Plan_set of flag list
  | Plan_fuse of cond * flag list
      (** compute the consumer's condition predicate + set the extras *)

type producer = {
  p_op :
    [ `Add | `Sub | `Logic | `Shl | `Shr | `Sar | `Rol | `Ror | `Mul of int ];
  p_size : size;
  p_a : int;  (** first operand (snapshot register) *)
  p_b : int;  (** second operand *)
  p_res : int;  (** result *)
  p_full : int;  (** unmasked 64-bit result (add/sub); else [p_res] *)
  p_guard : int option;  (** flag updates predicated (CL shifts) *)
  p_cin : bool;  (** a carry/borrow-in participated (ADC/SBB) *)
}
(** Enough information to materialize any EFLAGS bit of the producing
    instruction after the fact (lazy flags). *)

type ctx = {
  emit : I.t -> unit;
  emit_stop : unit -> unit;
  new_label : unit -> int;
  bind : int -> unit;
  local : int -> I.target;
  fresh : unit -> int;  (** fresh scratch GR *)
  ffresh : unit -> int;  (** fresh scratch FR *)
  pfresh : unit -> int;  (** fresh scratch predicate *)
  ea : ctx -> mem -> int;
      (** effective-address computation (the hot version adds CSE) *)
  goto : ctx -> int -> unit;  (** unconditional exit to an IA-32 target *)
  goto_if : ctx -> pr:int -> int -> unit;
  indirect : ctx -> unit;  (** exit via the indirect-target register *)
  syscall : ctx -> int -> unit;
  guest_fault : ctx -> ?pr:int -> int -> unit  (** IA-32 vector *);
  misalign_out : ctx -> pr:int -> unit  (** stage-1 regeneration *);
  fp : Fpmap.t;
  xmm_fmt : int array;  (** static format per XMM register; -1 untouched *)
  xmm_entry : int array;  (** entry format requirement; -1 = none *)
  mutable uses_mmx : bool;
  mutable mmx_exit_tag : int;  (** TAG mask at exit (EMMS sets 0) *)
  mutable mmx_written : int;  (** MMX registers written by the block *)
  mutable cur_ip : int;
  mutable next_ip : int;
  mutable plan : flag_plan;
  mutable fused_pred : (int * int) option;  (** (p_cond, p_not) *)
  mutable last_producer : producer option;
  mutable access_idx : int;  (** running memory-access index *)
  misalign_policy : int -> int -> ma_policy;  (** access idx, width *)
  ma_pred_cache : (int * int, int * int) Hashtbl.t;
      (** misalignment predicates per (address GR, width) *)
}

(** {1 Emission helpers} *)

val emit : ctx -> I.sem -> unit
val emitp : ctx -> int -> I.sem -> unit
(** Emit under a qualifying predicate. *)

val stop : ctx -> unit
(** Place a group stop after the last emitted instruction. *)

val default_ea : ctx -> mem -> int
(** Compute an effective address into a GR (base + scaled index +
    displacement, masked to 32 bits). *)

(** {1 EFLAGS} *)

val set_flag : ctx -> producer -> flag -> unit

val cond_pred : ctx -> cond -> int * int
(** Predicate pair for an IA-32 condition: the fused pair if the driver
    planned fusion (consumed), otherwise computed from canonic flags. *)

val emit_insn : ctx -> insn -> unit
(** Lower one IA-32 instruction according to the current plan. *)

(** {1 Speculation checks (paper §4.3/4.4)}

    Check ids appear in [Spec_fail] exits so the engine knows which
    recovery to run. *)

val check_tos : int
val check_tag : int
val check_mode_fp : int
val check_mode_mmx : int
val check_park : int

val r_fpcc : int
(** GR holding the x87 condition codes C0-C3 (FCOM results). *)

val emit_fp_entry_check : ctx -> block_id:int -> unit
(** Block-head check that the runtime TOS (and TAG when the map needs
    valid/empty slots) match the translation-time speculation. *)

val emit_mode_check : ctx -> block_id:int -> mmx:bool -> unit
(** Block-head check of the FP/MMX staleness masks (aliasing, §4.4). *)

val emit_park_check : ctx -> block_id:int -> unit
(** Block-head check for MMX blocks that the physical x87/MMX file is at
    its canonic parking ({!Regs.r_park} = 0): MMX register accesses are
    absolute, so an outstanding TOS-recovery rotation must be undone
    before the block may run. *)

val emit_sse_entry_check : ctx -> block_id:int -> unit
(** Block-head check of speculated XMM register formats. *)

val emit_fp_exit_update : ?qp:int -> ctx -> unit
(** Exit update of the runtime TOS/TAG/staleness registers from the
    block's static map. Idempotent (TOS is set absolutely), and
    predicated by [qp] on conditional exits so a fall-through does not
    apply it twice. *)

val emit_sse_exit_update : ?qp:int -> ctx -> unit
