(** Full architectural IA-32 state: the state the translator must be able to
    reconstruct precisely at any exception point (paper §4). *)

type t = {
  regs : int array;
  mutable eip : int;
  mutable cf : bool;
  mutable pf : bool;
  mutable af : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable of_ : bool;
  mutable df : bool;
  fpu : Fpu.t;
  xmm_lo : int64 array;
  xmm_hi : int64 array;
  mem : Memory.t;
  mutable icache : Icache.t;
      (** interpreter decode cache — {!copy} gives the copy a fresh one.
          States over the same memory may share one: entries validate
          against that memory's page generations. *)
}

val create : Memory.t -> t

val get32 : t -> Insn.reg -> int
val set32 : t -> Insn.reg -> int -> unit
val get16 : t -> Insn.reg -> int
val set16 : t -> Insn.reg -> int -> unit

(** 8-bit access uses x86 numbering: registers of index 4-7 denote
    ah/ch/dh/bh. *)
val get8 : t -> Insn.reg -> int

val get_reg : Insn.size -> t -> Insn.reg -> int
val set_reg : Insn.size -> t -> Insn.reg -> int -> unit

(** EFLAGS image as pushed by [pushfd] (bit 1 always set). *)
val eflags_word : t -> int

val set_eflags_word : t -> int -> unit

val eval_cond : t -> Insn.cond -> bool

(** Effective address of a memory operand under the current registers. *)
val ea : t -> Insn.mem -> int

val get_xmm : t -> int -> int64 * int64
val set_xmm : t -> int -> int64 * int64 -> unit

(** Copy shares the memory (registers and FPU are duplicated). *)
val copy : t -> t

val restore_into : src:t -> dst:t -> unit
(** Overwrite [dst]'s registers, EIP, flags, FPU and XMM state in place
    from [src], leaving [dst]'s memory reference and decode cache alone
    (cache entries validate against page generations, so a warm cache
    stays correct across a snapshot revert). Existing references to
    [dst] remain valid — the point of restoring in place. *)
