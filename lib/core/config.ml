(* Translator configuration. Every paper-relevant design choice is a switch
   here so the ablation benches can turn it off and measure the difference;
   the rest are the few knobs a caller actually sets (the baseline models,
   tests forcing flushes, [--quantum]). Fixed tuning constants live in the
   one module that reads them: trace shape in Hot, the cold neighbourhood
   in Discover, the degradation ladder in Engine. Host-speed mechanisms
   are not switches: translated code always runs on Ipf.Exec, the engine
   always caches decoded IA-32 instructions for the code it interprets,
   and always detects heat with hash-indexed counter uops (DESIGN.md §15). *)

type first_phase =
  | Instrumented_cold (* the paper's design: translate cold code with
                         instrumentation *)
  | Interpret_first (* the FX!32-style alternative: interpret until hot *)

type t = {
  (* two-phase control *)
  two_phase : bool; (* false = cold-only translator *)
  first_phase : first_phase;
  heat_threshold : int; (* cold-block executions before registration *)
  session_candidates : int; (* registrations that trigger a hot session *)
  enable_predication : bool;
  enable_unroll : bool;
  (* cold code *)
  tcache_limit : int;
      (* bundles before the translation cache is flushed wholesale (the
         paper's fixed-size cache, default 64MB, flushed when full) *)
  (* speculation *)
  fp_stack_speculation : bool;
  mmx_mode_speculation : bool;
  sse_format_speculation : bool;
  (* misalignment machinery *)
  misalign_avoidance : bool;
  (* scheduling *)
  enable_scheduling : bool; (* false = emit hot IL in order, cold-style *)
  enable_control_spec : bool;
      (* hoist loads above exit branches with ld.s/chk.s; deferred faults
         that never reach their check are filtered (paper §4.2) *)
  enable_flag_elim : bool;
  enable_cse : bool;
  (* guest threads *)
  quantum : int;
      (* virtual cycles per scheduling slice; rescheduling happens only at
         syscall commit points, so this is deterministic. <= 0 disables
         preemption (threads run until they block or yield) *)
}

let default =
  {
    two_phase = true;
    first_phase = Instrumented_cold;
    heat_threshold = 120;
    session_candidates = 6;
    enable_predication = true;
    enable_unroll = true;
    tcache_limit = 4_000_000;
    fp_stack_speculation = true;
    mmx_mode_speculation = true;
    sse_format_speculation = true;
    misalign_avoidance = true;
    enable_scheduling = true;
    enable_control_spec = true;
    enable_flag_elim = true;
    enable_cse = true;
    quantum = 20_000;
  }

(* Cold-only translator (no hot phase at all). *)
let cold_only = { default with two_phase = false }
