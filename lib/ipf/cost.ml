(* Cost-model parameters for the EPIC machine and the translator runtime.

   Absolute values are not calibrated against real Itanium 2 silicon; they
   are chosen so the *relationships* the paper's evaluation depends on hold:
   wide in-order issue rewards scheduling quality, cross-register-file moves
   are expensive, OS-handled misalignment costs thousands of cycles, and
   translation overhead is charged per translated instruction with hot
   translation ~20x cold translation per IA-32 instruction. *)

type t = {
  issue_slots : int; (* slots issued per cycle (2 bundles x 3) *)
  taken_branch_penalty : int;
  indirect_branch_penalty : int;
  alu_latency : int;
  mul_latency : int; (* xma and parallel multiplies *)
  load_latency : int; (* L1 hit, int side *)
  fp_load_latency : int;
  fp_latency : int; (* fadd/fmul/fma *)
  fp_div_latency : int; (* modeled frcpa + Newton iterations *)
  fp_sqrt_latency : int;
  xfer_latency : int; (* getf/setf: GR <-> FR moves — expensive on IPF *)
  os_misalign_cost : int; (* OS-handled misaligned access (paper: ~1000s) *)
  (* translator runtime costs, in cycles *)
  interp_per_insn : int; (* interpretation cost per IA-32 instruction *)
  cold_translate_per_insn : int; (* per IA-32 instruction *)
  hot_translate_per_insn : int; (* ~20x cold, per paper *)
  dispatch_cost : int; (* block-cache lookup + patching on a miss path *)
  indirect_lookup_cost : int; (* fast lookup table hit in translated code *)
  exception_filter_cost : int; (* per delivered IA-32 exception *)
  syscall_cost : int; (* native execution of an IA-32 system service *)
  context_switch_cost : int; (* scheduler overhead per guest-thread switch *)
}

let default =
  {
    issue_slots = 6;
    taken_branch_penalty = 1;
    indirect_branch_penalty = 3;
    alu_latency = 1;
    mul_latency = 4;
    load_latency = 2;
    fp_load_latency = 6;
    fp_latency = 4;
    fp_div_latency = 24;
    fp_sqrt_latency = 24;
    xfer_latency = 5;
    os_misalign_cost = 2500;
    interp_per_insn = 45;
    cold_translate_per_insn = 40;
    hot_translate_per_insn = 800;
    dispatch_cost = 60;
    indirect_lookup_cost = 12;
    exception_filter_cost = 4000;
    syscall_cost = 150;
    context_switch_cost = 120;
  }
