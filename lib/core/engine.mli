(** The IA-32 EL engine: the runtime that owns the translation cache,
    dispatches between translated blocks, reacts to every exit reason
    and machine fault, and drives both translation phases.

    Responsibilities (paper §2):
    - dispatch and block chaining (patching exit branches into direct
      block-to-block branches), plus the fast lookup path for indirect
      branches;
    - the heat machinery: cold-block use counters trigger registration,
      enough registrations start a hot-translation session;
    - precise exceptions: reconstruction at the state register (cold) or
      the covering commit point plus interpreter roll-forward (hot),
      filtering of speculative faults, delivery to guest handlers;
    - the three-stage misalignment machinery's runtime side
      (stage-1 regeneration exits, stage-3 discards, OS-priced traps);
    - FP/MMX/SSE speculation-miss recoveries;
    - self-modifying code: write-watch on source pages, invalidation,
      precise restart when a block modifies itself;
    - system services through the BTLib, with kernel/idle time folded
      into the accounting. *)

type outcome =
  | Exited of int * Ia32.State.t  (** exit code, final precise state *)
  | Unhandled_fault of Ia32.Fault.t * Ia32.State.t
  | Out_of_fuel

(** Commit events: the points where the engine materialises a full precise
    IA-32 state and the guest's behaviour becomes observable. The lockstep
    differential vehicle ({!Lockstep}) compares the engine against the
    reference interpreter exactly here. *)
type commit_event =
  | Commit_syscall of int  (** about to perform the OS's syscall *)
  | Commit_fault of Ia32.Fault.t  (** precise architectural fault *)
  | Commit_exit of int

type t = {
  config : Config.t;
  mem : Ia32.Memory.t;
  tcache : Ipf.Tcache.t;
  cache : Block.cache;
  acct : Account.t;
  machine : Ipf.Machine.t;
  exec : Ipf.Exec.t;  (** block programs over [machine] *)
  vos : Btlib.Vos.t;
  btlib : (module Btlib.Btos.S);
  cold_env : Cold.env;
  mutable candidates : int list;  (** registered cold block ids *)
  stage2_entries : (int, unit) Hashtbl.t;
      (** entries to (re)generate with stage-2 avoidance *)
  avoid_entries : (int, unit) Hashtbl.t;
      (** entries whose hot regeneration uses full avoidance (stage 3) *)
  mutable smc_pending : Block.t list;
  mutable running_block : Block.t option;
      (** the block the machine entered, while it runs or waits to
          resume in it (a heat session); [None] once the machine has
          left it for the runtime, so a runtime store into
          translated code (a system call's recv, an exception frame)
          kills its block like any other write *)
  if_counts : (int, int ref) Hashtbl.t;  (** interpret-first profile *)
  if_taken : (int, int ref) Hashtbl.t;
  mutable fuel : int;
  mutable on_commit : (commit_event -> Ia32.State.t -> unit) option;
      (** observer called with the precise state at every commit event *)
  mutable on_dispatch : (int -> unit) option;
      (** called with the target EIP at every slow-path dispatch; only the
          chaos primitives below are safe to call from it *)
  interp_only : (int, unit) Hashtbl.t;
      (** entries demoted to interpret-only by the degradation ladder *)
  interp_only_pages : (int, unit) Hashtbl.t;
      (** source pages degraded wholesale by SMC-storm detection *)
  retrans_counts : (int, int) Hashtbl.t;
      (** per-entry invalidation-driven retranslation counts *)
  smc_page_hits : (int, int * int) Hashtbl.t;
      (** per-page SMC-storm window: window start (in dispatches), hits *)
  icache : Ia32.Icache.t;
      (** decode cache every engine-side interpretation shares *)
  mutable snapshots : epoch list;
      (** open snapshot epochs, innermost first; see {!snapshot} *)
  mutable spare_tables : tables list;
      (** machine-table copies of reverted or committed epochs, refilled
          by the next {!snapshot} instead of allocating *)
  mutable snap_next_id : int;
  mutable max_cycles : int option;
      (** runaway-guest watchdog: when set, a structured [Bt_error]
          (component ["watchdog"]) is raised once the virtual clock
          passes this value. Checked at every dispatch and, via bounded
          machine-run chunks, even inside fully chained translated loops
          that never re-enter the dispatcher. *)
  mutable snap_every : int option;
      (** auto-snapshot cadence: when set to [Some n], every [n]-th
          syscall commit takes a barrier {!snapshot} at the commit point
          (after the syscall's effects, before the thread continues).
          The continuing run is bit-identical to a replay from any of
          these snapshots: the barrier flush forces the continuation to
          re-enter cold, exactly as a revert-and-rerun would. *)
  mutable commits_seen : int;
      (** syscall commits observed by the auto-snapshot cadence *)
  mutable trace : Obs.Trace.t option;
      (** structured event trace; attach with {!attach_trace}. Recording
          only — never perturbs cycle counts or [Account] totals *)
  mutable profile : Obs.Profile.t option;
      (** per-block cycle attribution; attach with {!attach_profile} *)
  mutable sampler : Obs.Sample.t option;
      (** virtual-cycle sampling profiler; attach with {!attach_sample} *)
  mutable hists : Obs.Hist.set option;
      (** latency/size histograms; attach with {!attach_hists} *)
  mutable timers : Obs.Timers.t option;
      (** host-side phase wall-timers; attach with {!attach_timers} *)
  mutable translate_filter :
    (phase:Obs.Trace.phase ->
    entry:int ->
    entry_tos:int ->
    flag:bool ->
    live:(unit -> Block.t option) ->
    Block.t option)
    option;
      (** Interposes on every translation request (persistent-cache hook).
          The filter is total: it either installs an equivalent block
          itself or calls [live] (the normal translator, with all its side
          effects) exactly once and returns its result. Behaviour must be
          indistinguishable from [live] — observables, cycle charges and
          [Account] totals included; only host work may differ. [flag] is
          the stage-2 marker for cold requests, the avoidance marker for
          hot ones. Cold [live] never returns [None] (it raises on
          failure); a hot [None] means the trace was declined and the cold
          block stays. *)
}

and epoch
(** Everything one {!snapshot} captured besides guest memory (which the
    [Ia32.Memory.Journal] epoch pushed alongside it holds). *)

and tables
(** One epoch's copies of the machine's fixed-size tables: registers,
    timing arrays, hot and edge counters and the dcache model. *)

exception Smc_abort
(** Internal: the block the machine is executing — entered from the
    dispatcher or through a chain — modified its own source bytes;
    unwind to the engine for precise restart. *)

val create :
  ?config:Config.t ->
  ?cost:Ipf.Cost.t ->
  ?dcache:Ipf.Dcache.t ->
  btlib:(module Btlib.Btos.S) ->
  Ia32.Memory.t ->
  t
(** Create an engine over guest memory. Performs the BTOS version
    handshake with the BTLib ({!Btlib.Btos.init}) and installs the
    write-watch used for SMC detection.
    @raise Btlib.Btos.Version_mismatch when the handshake fails. *)

val run : ?fuel:int -> t -> Ia32.State.t -> outcome
(** Execute the guest from a precise IA-32 state until it exits, dies on
    an unhandled fault, or exhausts [fuel] (simulated machine slots). *)

(** {2 Snapshots}

    Copy-on-write checkpoints of the whole execution — guest memory
    through the page journal (O(pages touched)), plus the translator's
    accounting, machine timing state, dcache model, OS checkpoint and
    policy tables. Only legal at engine rest: before {!run} or after it
    returned. Epochs nest.

    An epoch's copies of the machine's fixed-size tables (registers,
    timing arrays, the 4096-slot hot and edge counters, the dcache
    model) are recycled: {!revert} and {!commit_snapshot} hand them to
    the next {!snapshot}, which refills them in place with
    write-barrier-free copies. Only a closed epoch's copies are
    recycled, so two open epochs never share one. *)

val snapshot : ?barrier:bool -> t -> int
(** Open a snapshot epoch; returns its id. With [barrier:true] (default
    false) the translation cache is flushed first, so the original run
    continues cold from the snapshot point exactly as a replay from the
    snapshot will — the post-snapshot execution is bit-identical between
    the two (crash capsules record barrier snapshots). An engine that
    has neither run nor translated (clock 0, empty tcache) is already at
    the barrier: nothing is flushed and no flush is counted. With
    [barrier:false] translations stay warm and {!revert} judges them by
    content, which is what lets a fork-server keep translated code
    across thousands of mutated runs: while the epoch is open every
    block killed (SMC, hot supersession, misalignment regeneration,
    degradation) is logged with a copy of its bundles. Emits a
    [Snapshot] trace event carrying the absolute trace index, the
    time-travel anchor. *)

val revert : t -> int list
(** Pop the innermost epoch and rewind everything to it. Returns the
    page numbers the epoch had touched.

    A warm revert then applies one rule — a block is valid iff the
    source bytes and page protections it was translated from
    ({!Block.span_matches}) equal the rewound memory — in this order:
    live blocks whose source covers a rewound page stay or are
    invalidated; the epoch's killed blocks are revived in place, newest
    id first, where their span matches and no live block holds their
    entry, unless the epoch flushed the translation cache; the watch
    set returns to the snapshot's; and the pages of every kept, revived
    or epoch-made live block are watched again. Cold blocks killed in a
    warm epoch, or dropped or left dead here, go dormant: a later
    dispatch miss wakes one whose span matches ({!Block.wake}) instead
    of translating. Architectural state and
    every counter are exact; only the translation overhead the next run
    pays differs from a cold replay. A barrier revert flushes instead
    and hands out the epoch's block ids again, so a replay is
    bit-identical to the original run and translates its blocks under
    the same ids.
    @raise Invalid_argument when no epoch is open. *)

val commit_snapshot : t -> unit
(** Pop the innermost epoch keeping all changes (folds the page journal
    and the kill log into the parent epoch, if any).
    @raise Invalid_argument when no epoch is open. *)

val snapshot_depth : t -> int

val pages_restored : t -> int
(** Cumulative pages restored by {!revert} over the engine's lifetime —
    what the O(pages touched) test asserts on. *)

val epoch_id : epoch -> int
val epoch_trace_index : epoch -> int

val epoch_for_event : t -> int -> int option
(** [epoch_for_event t idx] is the id of the innermost open epoch whose
    snapshot was taken at or before absolute trace event index [idx] —
    i.e. the snapshot that can rewind the run to just before that traced
    event. *)

(** {2 Graceful degradation}

    The degradation ladder bounds how much retranslation churn one entry
    or source page can cause: repeated invalidation-driven retranslations
    escalate an entry to stage-2 then stage-3 misalignment avoidance and
    finally to interpret-only; an SMC storm (too many invalidation events
    on one source page within a dispatch window) degrades the whole page
    to interpretation. Under attack the engine loses throughput but keeps
    making forward progress. *)

val interp_only_at : t -> int -> bool
(** [interp_only_at t eip] is true when the degradation ladder has demoted
    [eip] (or its source page) to interpretation. *)

val blacklist_entry : t -> int -> unit
(** Force an entry onto the last rung: interpret-only from now on. *)

val degrade_page_to_interp : t -> int -> bool
(** Degrade a whole source page (page number, not address) to
    interpretation. Returns true when the currently running block had to
    be deferred, i.e. a caller inside translated code must abort. *)

(** {2 Chaos primitives}

    Semantics-preserving perturbations for the deterministic fault
    injector ({!Harness.Inject}): each forces a slow recovery path
    without changing the architectural state the guest observes. Only
    safe at dispatch boundaries (the [on_dispatch] hook), never while the
    machine is mid-block. *)

val force_tos_rotation : t -> by:int -> unit
(** Rotate the physical FP stack so the next block-head TOS check misses.
    Architecture-preserving: every ST(i) keeps its value. No-op unless
    FP-stack speculation is enabled. *)

val force_sse_scramble : t -> unit
(** Rewrite every XMM register to the packed-double container format
    (bit-exact), defeating SSE format speculation at the next checked
    block head. No-op unless SSE format speculation is enabled. *)

val spurious_smc_invalidate : t -> max:int -> int
(** Invalidate up to [max] live blocks as if their source pages had been
    written. Returns the number invalidated. *)

val force_cache_flush : t -> unit
(** Force a wholesale translation-cache flush (eviction storm). *)

val distribution : t -> Account.distribution
(** Final execution-time distribution (Figures 6/7). *)

val clock : t -> int
(** Total virtual time so far (guest + overhead + kernel + idle cycles)
    — the same clock the watchdog and trace timestamps use. *)

val current_tid : t -> int
(** Tid of the currently scheduled guest thread (0 when single-threaded).
    Inside an [on_commit] observer this is the committing thread: the
    scheduler switches only after the syscall completes. *)

val capture : t -> Ia32.State.t
(** Snapshot the current architectural state (block-boundary
    precision). *)

(** {2 Observability}

    All hooks only record — they never charge cycles or alter control
    flow, so cycle counts and [Account] totals are bit-identical with or
    without them attached. *)

val attach_trace : t -> Obs.Trace.t -> unit
(** Attach a trace: installs the engine's virtual clock as the trace
    timestamp source and wires the tcache and Vos emitters to the same
    buffer. *)

val attach_profile : t -> Obs.Profile.t -> unit
(** Attach a profile: installs a machine charge probe that mirrors every
    executed cycle onto the guest block owning the current bundle (same
    [find_by_bundle] lookup as the cold/hot bucket split). The probe slot
    is shared with the sampler — both may be attached at once. *)

val attach_sample : t -> Obs.Sample.t -> unit
(** Attach a virtual-cycle sampler: the shared charge probe polls the
    deterministic clock and, at every crossed interval boundary, folds a
    sample (tid, last committed EIP, owning block entry, translation
    phase, degradation state). Engine commit points (dispatch, syscall
    completion, interpreter block boundaries) also poll, so overhead/
    kernel/idle time is attributed too. Recording only: observables —
    cycles included — are bit-identical with or without it. *)

val attach_hists : t -> Obs.Hist.set -> unit
(** Attach latency/size histograms: syscall latency, futex wait, trace
    length, tcache probe depth, translation cost per block (all in
    deterministic virtual units) and snapshot/revert cost (host
    microseconds). Recording only. *)

val attach_timers : t -> Obs.Timers.t -> unit
(** Attach host-side phase wall-timers (translate / execute / snapshot;
    the CLI records persist-I/O spans into the same set around
    Persist load/save). Informational: wall times are host-dependent. *)

val trace : t -> Obs.Trace.t option
val profile : t -> Obs.Profile.t option
val sampler : t -> Obs.Sample.t option
val hists : t -> Obs.Hist.set option
val timers : t -> Obs.Timers.t option

val live_blocks : t -> int
(** Number of live blocks in the block cache. *)

val metrics : t -> Obs.Metrics.t
(** Snapshot everything measurable into the stable ["ia32el-metrics/2"]
    schema: cycle distribution, [Account] counters, instruction volume,
    machine stats, tcache/dcache occupancy, Vos totals, per-thread
    counters (multithreaded guests only), and — when attached — trace,
    top-10 profile, histogram ("hist"), sampler ("sample") and host
    wall-timer ("host_timers") sections. Sections for detached observers
    are omitted, so a detached /2 snapshot differs from /1 only in the
    schema string. *)
