(* Cycle accounting and translator statistics — the measurement
   infrastructure behind the paper's Figures 6 and 7 and the §2/§5 scalar
   statistics (blocks translated, heating rate, speculation success,
   commit-point density, misalignment events). *)

(* Buckets for machine-executed cycles (indexes into Machine.buckets).
   Cold is 0, the machine's bucket for bundles nobody marked: cold
   translations, stubs and the rest need no marking. *)
let bucket_cold = 0
let bucket_hot = 1

type t = {
  (* engine-side cycle charges *)
  mutable overhead_cycles : int; (* translation, dispatch, lookup, faults *)
  mutable other_cycles : int; (* native syscalls / kernel time *)
  mutable idle_cycles : int;
  mutable interp_cycles : int; (* interpret-first mode: first-phase time *)
  (* translation statistics *)
  mutable cold_blocks : int;
  mutable cold_insns : int; (* IA-32 instructions cold-translated *)
  mutable cold_regens : int; (* stage-2 misalignment regenerations *)
  mutable hot_blocks : int;
  mutable hot_insns : int;
  mutable hot_discards : int; (* stage-3 late-misalignment discards *)
  mutable heat_triggers : int;
  mutable heated_blocks : int; (* distinct cold blocks that registered *)
  mutable commit_points : int;
  mutable hot_target_insns : int; (* native instructions emitted hot *)
  mutable dispatches : int;
  mutable chain_patches : int;
  mutable indirect_lookups : int;
  mutable indirect_misses : int;
  (* speculation checks *)
  mutable tos_checks : int;
  mutable tos_misses : int;
  mutable tag_misses : int;
  mutable mode_checks : int;
  mutable mode_misses : int;
  mutable sse_checks : int;
  mutable sse_misses : int;
  (* misalignment *)
  mutable misalign_stage1_hits : int;
  mutable misalign_os_faults : int; (* handled through the expensive path *)
  mutable misalign_avoided : int; (* avoidance sequences emitted (static) *)
  (* exceptions *)
  mutable exceptions_filtered : int;
  mutable rollforwards : int;
  mutable smc_invalidations : int;
  mutable cache_flushes : int; (* wholesale translation-cache flushes *)
  (* graceful degradation (resilience subsystem) *)
  mutable degrade_interp_entries : int; (* entries gone interpret-only *)
  mutable degrade_smc_storms : int; (* source pages degraded by SMC storms *)
  (* guest threads *)
  mutable thread_spawns : int;
  mutable thread_joins : int; (* join calls that completed (Ret) *)
  mutable thread_yields : int;
  mutable futex_waits : int;
  mutable futex_wakes : int;
  mutable thread_switches : int; (* scheduler context switches *)
}

let create () =
  {
    overhead_cycles = 0;
    other_cycles = 0;
    idle_cycles = 0;
    interp_cycles = 0;
    cold_blocks = 0;
    cold_insns = 0;
    cold_regens = 0;
    hot_blocks = 0;
    hot_insns = 0;
    hot_discards = 0;
    heat_triggers = 0;
    heated_blocks = 0;
    commit_points = 0;
    hot_target_insns = 0;
    dispatches = 0;
    chain_patches = 0;
    indirect_lookups = 0;
    indirect_misses = 0;
    tos_checks = 0;
    tos_misses = 0;
    tag_misses = 0;
    mode_checks = 0;
    mode_misses = 0;
    sse_checks = 0;
    sse_misses = 0;
    misalign_stage1_hits = 0;
    misalign_os_faults = 0;
    misalign_avoided = 0;
    exceptions_filtered = 0;
    rollforwards = 0;
    smc_invalidations = 0;
    cache_flushes = 0;
    degrade_interp_entries = 0;
    degrade_smc_storms = 0;
    thread_spawns = 0;
    thread_joins = 0;
    thread_yields = 0;
    futex_waits = 0;
    futex_wakes = 0;
    thread_switches = 0;
  }

(* Event-counter view for coverage consumers (the fuzzer's steering map):
   every statistic that marks an engine *event* rather than a cycle charge,
   as (name, value) pairs. Names are stable identifiers. *)
let counters t =
  [
    ("cold_blocks", t.cold_blocks);
    ("cold_regens", t.cold_regens);
    ("hot_blocks", t.hot_blocks);
    ("hot_discards", t.hot_discards);
    ("heat_triggers", t.heat_triggers);
    ("heated_blocks", t.heated_blocks);
    ("commit_points", t.commit_points);
    ("dispatches", t.dispatches);
    ("chain_patches", t.chain_patches);
    ("indirect_lookups", t.indirect_lookups);
    ("indirect_misses", t.indirect_misses);
    ("tos_checks", t.tos_checks);
    ("tos_misses", t.tos_misses);
    ("tag_misses", t.tag_misses);
    ("mode_checks", t.mode_checks);
    ("mode_misses", t.mode_misses);
    ("sse_checks", t.sse_checks);
    ("sse_misses", t.sse_misses);
    ("misalign_stage1_hits", t.misalign_stage1_hits);
    ("misalign_os_faults", t.misalign_os_faults);
    ("misalign_avoided", t.misalign_avoided);
    ("exceptions_filtered", t.exceptions_filtered);
    ("rollforwards", t.rollforwards);
    ("smc_invalidations", t.smc_invalidations);
    ("cache_flushes", t.cache_flushes);
    ("degrade_interp_entries", t.degrade_interp_entries);
    ("degrade_smc_storms", t.degrade_smc_storms);
    ("thread_spawns", t.thread_spawns);
    ("thread_joins", t.thread_joins);
    ("thread_yields", t.thread_yields);
    ("futex_waits", t.futex_waits);
    ("futex_wakes", t.futex_wakes);
    ("thread_switches", t.thread_switches);
  ]

(* Every field of [t], in declaration order. The drift-guard test checks
   this list against the record's physical layout (via [Obj.size]) and
   that [counters] plus [non_event_fields] partition it, so a counter
   added to the record but forgotten here — or in [counters] — fails
   `dune runtest` instead of silently vanishing from fuzzer steering. *)
let all_fields t =
  [
    ("overhead_cycles", t.overhead_cycles);
    ("other_cycles", t.other_cycles);
    ("idle_cycles", t.idle_cycles);
    ("interp_cycles", t.interp_cycles);
    ("cold_blocks", t.cold_blocks);
    ("cold_insns", t.cold_insns);
    ("cold_regens", t.cold_regens);
    ("hot_blocks", t.hot_blocks);
    ("hot_insns", t.hot_insns);
    ("hot_discards", t.hot_discards);
    ("heat_triggers", t.heat_triggers);
    ("heated_blocks", t.heated_blocks);
    ("commit_points", t.commit_points);
    ("hot_target_insns", t.hot_target_insns);
    ("dispatches", t.dispatches);
    ("chain_patches", t.chain_patches);
    ("indirect_lookups", t.indirect_lookups);
    ("indirect_misses", t.indirect_misses);
    ("tos_checks", t.tos_checks);
    ("tos_misses", t.tos_misses);
    ("tag_misses", t.tag_misses);
    ("mode_checks", t.mode_checks);
    ("mode_misses", t.mode_misses);
    ("sse_checks", t.sse_checks);
    ("sse_misses", t.sse_misses);
    ("misalign_stage1_hits", t.misalign_stage1_hits);
    ("misalign_os_faults", t.misalign_os_faults);
    ("misalign_avoided", t.misalign_avoided);
    ("exceptions_filtered", t.exceptions_filtered);
    ("rollforwards", t.rollforwards);
    ("smc_invalidations", t.smc_invalidations);
    ("cache_flushes", t.cache_flushes);
    ("degrade_interp_entries", t.degrade_interp_entries);
    ("degrade_smc_storms", t.degrade_smc_storms);
    ("thread_spawns", t.thread_spawns);
    ("thread_joins", t.thread_joins);
    ("thread_yields", t.thread_yields);
    ("futex_waits", t.futex_waits);
    ("futex_wakes", t.futex_wakes);
    ("thread_switches", t.thread_switches);
  ]

(* Fields that are cycle charges or volume tallies, not event marks —
   deliberately excluded from [counters]. *)
let non_event_fields =
  [
    "overhead_cycles";
    "other_cycles";
    "idle_cycles";
    "interp_cycles";
    "cold_insns";
    "hot_insns";
    "hot_target_insns";
  ]

type distribution = {
  hot : int;
  cold : int;
  overhead : int;
  other : int;
  idle : int;
  total : int;
}

(* Final execution-time distribution, given the machine's per-bucket
   counters. *)
let distribution t (machine : Ipf.Machine.t) =
  (* interpreted first-phase time counts as "cold" (it plays the cold-code
     role in the FX!32-style configuration) *)
  let cold = machine.Ipf.Machine.buckets.(bucket_cold) + t.interp_cycles in
  let hot = machine.Ipf.Machine.buckets.(bucket_hot) in
  let total = cold + hot + t.overhead_cycles + t.other_cycles + t.idle_cycles in
  {
    hot;
    cold;
    overhead = t.overhead_cycles;
    other = t.other_cycles;
    idle = t.idle_cycles;
    total;
  }

let pp_distribution ppf d =
  let pct x = if d.total = 0 then 0.0 else 100.0 *. Float.of_int x /. Float.of_int d.total in
  Fmt.pf ppf
    "hot %.1f%%  cold %.1f%%  overhead %.1f%%  other %.1f%%  idle %.1f%%  (total %d cycles)"
    (pct d.hot) (pct d.cold) (pct d.overhead) (pct d.other) (pct d.idle) d.total

(* Snapshot support: [copy] clones the counter record, [blit] writes a
   clone's values back into a live record in place — the engine reverts
   its accounting to a checkpoint without replacing the record object
   (closures and the cold-translation env hold references to it). *)
let copy t = { t with overhead_cycles = t.overhead_cycles }

(* Fieldwise difference [a - b], for capturing what a bounded stretch of
   engine work charged: snapshot before, subtract after. Record literal on
   purpose — adding a field to [t] without updating this breaks the build. *)
let sub a b =
  {
    overhead_cycles = a.overhead_cycles - b.overhead_cycles;
    other_cycles = a.other_cycles - b.other_cycles;
    idle_cycles = a.idle_cycles - b.idle_cycles;
    interp_cycles = a.interp_cycles - b.interp_cycles;
    cold_blocks = a.cold_blocks - b.cold_blocks;
    cold_insns = a.cold_insns - b.cold_insns;
    cold_regens = a.cold_regens - b.cold_regens;
    hot_blocks = a.hot_blocks - b.hot_blocks;
    hot_insns = a.hot_insns - b.hot_insns;
    hot_discards = a.hot_discards - b.hot_discards;
    heat_triggers = a.heat_triggers - b.heat_triggers;
    heated_blocks = a.heated_blocks - b.heated_blocks;
    commit_points = a.commit_points - b.commit_points;
    hot_target_insns = a.hot_target_insns - b.hot_target_insns;
    dispatches = a.dispatches - b.dispatches;
    chain_patches = a.chain_patches - b.chain_patches;
    indirect_lookups = a.indirect_lookups - b.indirect_lookups;
    indirect_misses = a.indirect_misses - b.indirect_misses;
    tos_checks = a.tos_checks - b.tos_checks;
    tos_misses = a.tos_misses - b.tos_misses;
    tag_misses = a.tag_misses - b.tag_misses;
    mode_checks = a.mode_checks - b.mode_checks;
    mode_misses = a.mode_misses - b.mode_misses;
    sse_checks = a.sse_checks - b.sse_checks;
    sse_misses = a.sse_misses - b.sse_misses;
    misalign_stage1_hits = a.misalign_stage1_hits - b.misalign_stage1_hits;
    misalign_os_faults = a.misalign_os_faults - b.misalign_os_faults;
    misalign_avoided = a.misalign_avoided - b.misalign_avoided;
    exceptions_filtered = a.exceptions_filtered - b.exceptions_filtered;
    rollforwards = a.rollforwards - b.rollforwards;
    smc_invalidations = a.smc_invalidations - b.smc_invalidations;
    cache_flushes = a.cache_flushes - b.cache_flushes;
    degrade_interp_entries = a.degrade_interp_entries - b.degrade_interp_entries;
    degrade_smc_storms = a.degrade_smc_storms - b.degrade_smc_storms;
    thread_spawns = a.thread_spawns - b.thread_spawns;
    thread_joins = a.thread_joins - b.thread_joins;
    thread_yields = a.thread_yields - b.thread_yields;
    futex_waits = a.futex_waits - b.futex_waits;
    futex_wakes = a.futex_wakes - b.futex_wakes;
    thread_switches = a.thread_switches - b.thread_switches;
  }

let blit ~src ~dst =
  dst.overhead_cycles <- src.overhead_cycles;
  dst.other_cycles <- src.other_cycles;
  dst.idle_cycles <- src.idle_cycles;
  dst.interp_cycles <- src.interp_cycles;
  dst.cold_blocks <- src.cold_blocks;
  dst.cold_insns <- src.cold_insns;
  dst.cold_regens <- src.cold_regens;
  dst.hot_blocks <- src.hot_blocks;
  dst.hot_insns <- src.hot_insns;
  dst.hot_discards <- src.hot_discards;
  dst.heat_triggers <- src.heat_triggers;
  dst.heated_blocks <- src.heated_blocks;
  dst.commit_points <- src.commit_points;
  dst.hot_target_insns <- src.hot_target_insns;
  dst.dispatches <- src.dispatches;
  dst.chain_patches <- src.chain_patches;
  dst.indirect_lookups <- src.indirect_lookups;
  dst.indirect_misses <- src.indirect_misses;
  dst.tos_checks <- src.tos_checks;
  dst.tos_misses <- src.tos_misses;
  dst.tag_misses <- src.tag_misses;
  dst.mode_checks <- src.mode_checks;
  dst.mode_misses <- src.mode_misses;
  dst.sse_checks <- src.sse_checks;
  dst.sse_misses <- src.sse_misses;
  dst.misalign_stage1_hits <- src.misalign_stage1_hits;
  dst.misalign_os_faults <- src.misalign_os_faults;
  dst.misalign_avoided <- src.misalign_avoided;
  dst.exceptions_filtered <- src.exceptions_filtered;
  dst.rollforwards <- src.rollforwards;
  dst.smc_invalidations <- src.smc_invalidations;
  dst.cache_flushes <- src.cache_flushes;
  dst.degrade_interp_entries <- src.degrade_interp_entries;
  dst.degrade_smc_storms <- src.degrade_smc_storms;
  dst.thread_spawns <- src.thread_spawns;
  dst.thread_joins <- src.thread_joins;
  dst.thread_yields <- src.thread_yields;
  dst.futex_waits <- src.futex_waits;
  dst.futex_wakes <- src.futex_wakes;
  dst.thread_switches <- src.thread_switches

(* Accumulate a delta produced by [sub] into a live record: replaying the
   accounting of work that was skipped (e.g. a translation served from the
   persistent cache must charge exactly what translating it live would).
   dst + d == dst - (0 - d), so [sub]'s compile-checked field coverage
   carries over. *)
let add_into ~dst d = blit ~src:(sub dst (sub (create ()) d)) ~dst
