(** Cost-model parameters for the EPIC machine and the translator runtime.

    Absolute values are not calibrated against real Itanium 2 silicon;
    they are chosen so the {e relationships} the paper's evaluation
    depends on hold: wide in-order issue rewards scheduling quality,
    cross-register-file moves are expensive, OS-handled misalignment
    costs thousands of cycles, and translation overhead is charged per
    translated instruction with hot translation roughly 20x cold
    translation per IA-32 instruction (paper §2). *)

type t = {
  issue_slots : int;  (** slots issued per cycle (2 bundles x 3) *)
  taken_branch_penalty : int;
  indirect_branch_penalty : int;
  alu_latency : int;
  mul_latency : int;  (** [xma] and parallel multiplies *)
  load_latency : int;  (** L1 hit, integer side *)
  fp_load_latency : int;
  fp_latency : int;  (** fadd/fmul/fma *)
  fp_div_latency : int;  (** modeled [frcpa] + Newton iterations *)
  fp_sqrt_latency : int;
  xfer_latency : int;
      (** [getf]/[setf]: GR-FR moves, expensive on IPF and the reason
          MMX-on-FR aliasing needs mode speculation *)
  os_misalign_cost : int;
      (** OS-handled misaligned access (paper: thousands of cycles) *)
  interp_per_insn : int;  (** interpretation cost per IA-32 instruction *)
  cold_translate_per_insn : int;  (** per IA-32 instruction *)
  hot_translate_per_insn : int;  (** roughly 20x cold, per the paper *)
  dispatch_cost : int;  (** block-cache lookup + patching on a miss *)
  indirect_lookup_cost : int;  (** fast-lookup-table hit in hot code *)
  exception_filter_cost : int;  (** per delivered IA-32 exception *)
  syscall_cost : int;  (** native execution of an IA-32 system service *)
  context_switch_cost : int;  (** scheduler overhead per guest-thread switch *)
}

val default : t
