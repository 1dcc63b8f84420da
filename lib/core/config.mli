(** Translator configuration.

    Every paper-relevant design choice is a switch here so the ablation
    benches ([bench/main.exe ablations]) can turn it off and measure the
    difference, and so the baseline models ({!Workloads.Baselines}) can
    derive their configurations from the translator's own. Besides the
    switches it holds only the knobs a caller sets: [heat_threshold] and
    [session_candidates] (the native model), [tcache_limit] (tests force
    flushes with it) and [quantum] ([--quantum]). Fixed tuning constants
    live in the one module that reads them: the trace shape in {!Hot},
    the cold neighbourhood in {!Discover}, the degradation ladder in
    {!Engine}. Host-speed mechanisms are not switches: translated code
    always runs on {!Ipf.Exec}, the engine's IA-32 decode cache is always
    on, and heat detection is always the hash-indexed [Hotc]/[Edgec]
    counter uops. *)

(** How first-phase (not-yet-hot) code runs. *)
type first_phase =
  | Instrumented_cold
      (** the paper's design: translate cold code with instrumentation *)
  | Interpret_first
      (** the FX!32-style alternative: interpret until hot *)

type t = {
  two_phase : bool;  (** false = cold-only translator *)
  first_phase : first_phase;
  heat_threshold : int;
      (** cold-block executions before the block registers as an
          optimization candidate *)
  session_candidates : int;
      (** registrations that trigger a hot-translation session *)
  enable_predication : bool;  (** if-convert small diamonds *)
  enable_unroll : bool;  (** unroll tight self-loop traces *)
  tcache_limit : int;
      (** bundles before the translation cache is flushed wholesale (the
          paper's fixed-size cache, flushed when full) *)
  fp_stack_speculation : bool;  (** block-head TOS/TAG checks (§4.3) *)
  mmx_mode_speculation : bool;  (** FP/MMX staleness checks (§4.4) *)
  sse_format_speculation : bool;  (** XMM format checks *)
  misalign_avoidance : bool;  (** the 3-stage machinery (§4.5) *)
  enable_scheduling : bool;
      (** false = emit hot IL in order, cold-style *)
  enable_control_spec : bool;
      (** hoist loads above exit branches with [ld.s]/[chk.s]; a deferred
          fault that never reaches its check is filtered (§4.2) *)
  enable_flag_elim : bool;
      (** EFLAGS liveness elimination + compare/branch fusion *)
  enable_cse : bool;  (** effective-address CSE in hot code *)
  quantum : int;
      (** virtual cycles per guest-thread scheduling slice; rescheduling
          happens only at syscall commit points, so preemption is
          deterministic. [<= 0] disables preemption (threads run until
          they block or yield) *)
}

val default : t
(** The paper's two-phase design with its production thresholds. *)

val cold_only : t
(** No second phase at all (baseline for the two-phase ablation). *)
