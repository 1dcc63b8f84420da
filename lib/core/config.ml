(* Translator configuration. Every paper-relevant design choice is a switch
   here so the ablation benches can turn it off and measure the difference.
   Host-speed mechanisms are not switches: translated code always runs on
   Ipf.Exec, the engine always caches decoded IA-32 instructions for the
   code it interprets, and always detects heat with hash-indexed counter
   uops (DESIGN.md §15). *)

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
  max_trace_blocks : int; (* hyper-block length limit, in basic blocks *)
  max_trace_insns : int;
  enable_predication : bool;
  predication_max_side : int; (* max IA-32 insns per if-converted side *)
  enable_unroll : bool;
  unroll_factor : int;
  unroll_max_insns : int; (* only unroll loop bodies up to this size *)
  (* cold code *)
  neighborhood_blocks : int; (* 1-20 blocks analysed around the entry *)
  tcache_limit : int;
      (* bundles before the translation cache is flushed wholesale (the
         paper's fixed-size cache, default 64MB, flushed when full) *)
  (* commit points *)
  enable_commit : bool; (* false = no precise-state machinery in hot code
                           (used by the native-compiler model) *)
  flags_preserved_at_exit : bool; (* false = EFLAGS need not be live at
                                     block exits (native-compiler model) *)
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
  (* graceful degradation (resilience subsystem): bound the retranslation
     churn a single entry / source page can cause before the engine stops
     translating it and falls back to interpretation *)
  retrans_avoid_limit : int;
      (* per-entry invalidation-driven retranslations before the entry is
         escalated to full (stage-2 + stage-3) avoidance *)
  retrans_interp_limit : int;
      (* per-entry retranslations before the entry goes interpret-only *)
  smc_storm_window : int; (* dispatch-count window for storm detection *)
  smc_storm_limit : int;
      (* SMC invalidation events on one source page within the window
         before the whole page goes interpret-only *)
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
    max_trace_blocks = 8;
    max_trace_insns = 48;
    enable_predication = true;
    predication_max_side = 4;
    enable_unroll = true;
    unroll_factor = 2;
    unroll_max_insns = 10;
    neighborhood_blocks = 16;
    tcache_limit = 4_000_000;
    enable_commit = true;
    flags_preserved_at_exit = true;
    fp_stack_speculation = true;
    mmx_mode_speculation = true;
    sse_format_speculation = true;
    misalign_avoidance = true;
    enable_scheduling = true;
    enable_control_spec = true;
    enable_flag_elim = true;
    enable_cse = true;
    retrans_avoid_limit = 6;
    retrans_interp_limit = 12;
    smc_storm_window = 512;
    smc_storm_limit = 16;
    quantum = 20_000;
  }

(* Cold-only translator (no hot phase at all). *)
let cold_only = { default with two_phase = false }
