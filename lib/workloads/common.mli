(** Shared helpers for authoring synthetic guest workloads in the
    assembler DSL. All workloads use the linuxsim system-call
    convention.

    Because the real SPEC CPU2000 / Sysmark binaries cannot be run here
    (no licensed sources, no IA-32 hardware), each workload is a small
    IA-32 kernel shaped like the benchmark it stands in for — same
    dominant instruction mix, memory behaviour and control structure —
    as documented per benchmark in DESIGN.md. *)

val a32 : Ia32.Insn.insn -> Ia32.Asm.item

val kernel_work : int -> Ia32.Asm.item list
(** Spend [n] cycles in the (natively executing) OS kernel — Sysmark's
    kernel/driver component. Preserves registers. *)

val idle : int -> Ia32.Asm.item list
(** Spend [n] cycles idle — Sysmark's think time. *)

val counted : string -> Ia32.Insn.reg -> int -> Ia32.Asm.item list -> Ia32.Asm.item list
(** [counted name reg n body]: loop [body] with [reg] running n..1. *)

val counted_mem : string -> string -> int -> Ia32.Asm.item list -> Ia32.Asm.item list
(** Counted loop with the counter in memory at label [ctr_label],
    keeping all registers free for the body. *)

type t = {
  name : string;
  build : scale:int -> wide:bool -> Ia32.Asm.image;
      (** [scale] stretches the run length; [wide] selects the
          LP64-flavoured variant the native baseline runs (bigger data,
          64-bit-native idioms) *)
  paper_score : int option;
      (** the paper's EL-vs-native percentage for this benchmark
          (Figure 5/8), when it reports one *)
}
(** A synthetic workload. *)

val build_image : Ia32.Asm.item list -> Ia32.Asm.item list -> Ia32.Asm.image
(** Wrap code with the [start] label and an [exit(0)] epilogue, then
    assemble. *)

val lcg_next : Ia32.Asm.item list
(** One step of the classic LCG in EAX (pseudo-random input data). *)
