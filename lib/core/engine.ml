(* The IA-32 EL engine (BTGeneric runtime): dispatch, block chaining, the
   heat-session trigger, system-call delegation through BTLib, SMC
   detection, misalignment handling, speculation-miss recoveries, and
   precise exception delivery with interpreter roll-forward. *)


module M = Ipf.Machine
module I = Ipf.Insn

type outcome =
  | Exited of int * Ia32.State.t (* code, final precise state *)
  | Unhandled_fault of Ia32.Fault.t * Ia32.State.t
  | Out_of_fuel

(* Commit events: the points where the engine materialises a full precise
   IA-32 state and the guest's behaviour becomes observable. The lockstep
   differential vehicle compares the engine against the reference
   interpreter exactly here. *)
type commit_event =
  | Commit_syscall of int (* the OS's syscall vector *)
  | Commit_fault of Ia32.Fault.t (* precise architectural fault *)
  | Commit_exit of int

type t = {
  config : Config.t;
  mem : Ia32.Memory.t;
  tcache : Ipf.Tcache.t;
  cache : Block.cache;
  acct : Account.t;
  machine : M.t;
  exec : Ipf.Exec.t; (* block programs over [machine] *)
  vos : Btlib.Vos.t;
  btlib : (module Btlib.Btos.S);
  cold_env : Cold.env;
  (* heat machinery *)
  mutable candidates : int list; (* registered cold block ids *)
  (* entries that must be (re)generated with stage-2 avoidance *)
  stage2_entries : (int, unit) Hashtbl.t;
  (* entries whose hot regeneration must use full avoidance (stage 3) *)
  avoid_entries : (int, unit) Hashtbl.t;
  (* SMC bookkeeping *)
  mutable smc_pending : Block.t list; (* invalidate at next engine entry *)
  mutable running_block : Block.t option;
  (* interpret-first mode profile *)
  if_counts : (int, int ref) Hashtbl.t;
  if_taken : (int, int ref) Hashtbl.t;
  mutable fuel : int;
  (* resilience subsystem ------------------------------------------------ *)
  (* observer called with the precise state at every commit event (the
     lockstep differential vehicle hangs off this) *)
  mutable on_commit : (commit_event -> Ia32.State.t -> unit) option;
  (* called with the target EIP at every slow-path dispatch (the chaos
     injector hangs off this; only the chaos primitives below are safe to
     call from it) *)
  mutable on_dispatch : (int -> unit) option;
  (* graceful-degradation ladder: entries/pages demoted to interpretation *)
  interp_only : (int, unit) Hashtbl.t;
  interp_only_pages : (int, unit) Hashtbl.t;
  retrans_counts : (int, int) Hashtbl.t; (* entry -> churn count *)
  smc_page_hits : (int, int * int) Hashtbl.t; (* page -> window start, hits *)
  icache : Ia32.Icache.t; (* shared by every state the engine interprets *)
  (* snapshot / rewind ---------------------------------------------------- *)
  mutable snapshots : epoch list; (* innermost first *)
  mutable spare_tables : tables list; (* of reverted or committed epochs *)
  mutable snap_next_id : int;
  mutable max_cycles : int option; (* watchdog: Bt_error past this clock *)
  mutable snap_every : int option; (* auto-snapshot every N syscall commits *)
  mutable commits_seen : int;
  (* observability ------------------------------------------------------- *)
  (* Both hooks only record — they never charge cycles or alter control
     flow, so cycle counts and Account totals are bit-identical with or
     without them attached. *)
  mutable trace : Obs.Trace.t option;
  mutable profile : Obs.Profile.t option;
  mutable sampler : Obs.Sample.t option;
  mutable hists : Obs.Hist.set option;
  mutable timers : Obs.Timers.t option;
  (* persistence ---------------------------------------------------------- *)
  (* Interposes on every translation request. [live] runs the normal
     translator (with all its side effects: arena slots, tcache append,
     registration, Account charges); a filter may instead install an
     equivalent block from a persistent store — but must leave behaviour
     indistinguishable from [live], observables included. [flag] is the
     stage2 marker for cold requests and the avoid marker for hot ones. *)
  mutable translate_filter :
    (phase:Obs.Trace.phase ->
    entry:int ->
    entry_tos:int ->
    flag:bool ->
    live:(unit -> Block.t option) ->
    Block.t option)
    option;
}

(* Everything the engine must rewind besides guest memory (which the page
   journal handles): accounting, the machine's registers and timing state,
   the dcache model, the OS checkpoint, and the guest-address-keyed policy
   tables. Captured eagerly — all of it is small and flat next to the
   address space. *)
and epoch = {
  e_id : int;
  e_barrier : bool;
  e_acct : Account.t;
  e_stats : M.stats;
  e_tables : tables;
  e_alat : (int, int * int) Hashtbl.t;
  e_ip : int;
  e_slot : int;
  e_last_exit : int * int;
  e_vos : Btlib.Vos.checkpoint;
  e_watched : int list;
  e_candidates : int list;
  e_stage2 : (int, unit) Hashtbl.t;
  e_avoid : (int, unit) Hashtbl.t;
  e_interp_only : (int, unit) Hashtbl.t;
  e_interp_only_pages : (int, unit) Hashtbl.t;
  e_retrans : (int, int) Hashtbl.t;
  e_smc_hits : (int, int * int) Hashtbl.t;
  e_if_counts : (int, int ref) Hashtbl.t;
  e_if_taken : (int, int ref) Hashtbl.t;
  e_fuel : int;
  e_next_id : int; (* block ids a barrier revert hands out again *)
  e_trace_index : int; (* absolute trace-stream index at the push *)
  (* warm epochs: blocks killed in the epoch, revived on revert if their
     source is valid again; a flush in the epoch recycles the indices
     their code refers to, so it empties the log for good *)
  e_killed : Block.killed list ref;
  mutable e_flushed : bool;
}

(* Copies of the machine's fixed-size tables: the registers, the timing
   arrays, the hot and edge counters and the dcache model. An epoch's
   copies are handed back to [spare_tables] when it is reverted or
   committed, and the next snapshot refills them, so opening an epoch
   allocates none of these arrays. Only closed epochs hand theirs back,
   so one set never backs two open epochs. *)
and tables = {
  tb_buckets : int array;
  tb_gr : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  tb_nat : bool array;
  tb_fr : float array;
  tb_fnat : bool array;
  tb_pr : bool array;
  tb_br : int array;
  tb_ready : int array;
  tb_fready : int array;
  tb_hotc : int array;
  tb_edgec : int array;
  tb_dcache : Ipf.Dcache.checkpoint;
}

exception Smc_abort

(* Inside a warm epoch a killed block's code goes on the epoch's kill
   log, so a revert that makes its source valid again can put it back
   instead of retranslating, and a cold one goes dormant, so a dispatch
   miss that finds its source back (an input rewriting the same bytes
   again) can wake it. *)
let keeper t =
  match t.snapshots with
  | e :: _ when not (e.e_barrier || e.e_flushed) ->
    Some
      (fun k ->
        e.e_killed := k :: !(e.e_killed);
        Block.retire t.cache k)
  | _ -> None

let kill t b = Block.invalidate ?keep:(keeper t) t.cache t.tcache b

(* Register a hot translation and attribute its bundles' cycles to the
   hot bucket; every other bundle stays in the machine's bucket 0, cold
   (a flush puts them all back). *)
let register_hot t (b : Block.t) =
  Block.register t.cache b;
  M.set_bucket t.machine ~start:b.Block.tstart ~len:b.Block.tlen
    Account.bucket_hot

(* Whether the machine is executing [b]'s code right now. Chained
   execution moves from block to block without coming back to the
   engine, so [running_block] only says that the machine is running (and
   which block it entered); the group Exec is running says where. *)
let executing t b =
  t.running_block <> None
  &&
  let i = Ipf.Exec.running_bundle t.exec in
  i >= b.Block.tstart && i < b.Block.tstart + b.Block.tlen

(* The executing block cannot be overwritten under the machine: mark it
   dead and leave it on [smc_pending] until the machine has left it. It
   is logged like any kill. *)
let defer t b =
  (match keeper t with Some f -> f (Block.keep t.tcache b) | None -> ());
  b.Block.live <- false;
  t.smc_pending <- b :: t.smc_pending

let charge_overhead t c = t.acct.Account.overhead_cycles <- t.acct.Account.overhead_cycles + c
let charge_other t c = t.acct.Account.other_cycles <- t.acct.Account.other_cycles + c

let cost t = t.machine.M.cost

(* total virtual time, for the Getclock syscall *)
let now t =
  t.machine.M.stats.M.cycles + t.acct.Account.overhead_cycles
  + t.acct.Account.other_cycles + t.acct.Account.idle_cycles

(* ---- graceful degradation ---------------------------------------------- *)

(* The degradation ladder bounds how much retranslation churn one entry or
   source page can cause: stage-2 avoidance -> stage-3 avoidance ->
   interpret-only. Under an SMC (or injected invalidation) storm the engine
   loses throughput but keeps making forward progress instead of
   retranslating the same code forever. *)

let interp_only_at t eip =
  Hashtbl.mem t.interp_only eip
  || Hashtbl.mem t.interp_only_pages (eip lsr Ia32.Memory.page_bits)

(* Last rung: stop translating [entry] at all; the dispatcher interprets
   it from now on. *)
let blacklist_entry t entry =
  if not (Hashtbl.mem t.interp_only entry) then begin
    Hashtbl.replace t.interp_only entry ();
    t.acct.Account.degrade_interp_entries <-
      t.acct.Account.degrade_interp_entries + 1;
    (match t.trace with
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Trace.Degrade { kind = "interp_entry"; key = entry })
    | None -> ());
    match Block.find_entry t.cache entry with
    | Some b -> kill t b
    | None -> ()
  end

(* Count an invalidation-driven retranslation of [entry] and escalate:
   beyond [retrans_avoid_limit] the entry is regenerated with full
   misalignment avoidance (the conservative translation), beyond
   [retrans_interp_limit] it goes interpret-only. *)
let note_retranslation t entry =
  let n =
    1
    + (match Hashtbl.find_opt t.retrans_counts entry with
      | Some n -> n
      | None -> 0)
  in
  Hashtbl.replace t.retrans_counts entry n;
  if n >= t.config.Config.retrans_interp_limit then blacklist_entry t entry
  else if n >= t.config.Config.retrans_avoid_limit then begin
    Hashtbl.replace t.stage2_entries entry ();
    Hashtbl.replace t.avoid_entries entry ()
  end

(* Degrade a whole source page to interpretation: invalidate every live
   block on it, deferring the currently running block to [smc_pending]
   exactly like a direct self-modification. Returns true when the running
   block was deferred, i.e. a caller inside translated code must abort the
   machine. *)
let degrade_page_to_interp t page =
  if Hashtbl.mem t.interp_only_pages page then false
  else begin
    Hashtbl.replace t.interp_only_pages page ();
    t.acct.Account.degrade_smc_storms <- t.acct.Account.degrade_smc_storms + 1;
    (match t.trace with
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Trace.Degrade { kind = "smc_storm_page"; key = page })
    | None -> ());
    let self = ref false in
    List.iter
      (fun b ->
        if executing t b then begin
          defer t b;
          self := true
        end
        else kill t b)
      (Block.live_blocks_on_page t.cache page);
    !self
  end

(* SMC-storm detection: count invalidation events per source page within a
   dispatch window; a page that keeps invalidating is degraded wholesale.
   Returns true when the running block had to be deferred. *)
let note_smc_invalidation t page =
  let here = t.acct.Account.dispatches in
  let start, count =
    match Hashtbl.find_opt t.smc_page_hits page with
    | Some (start, count) when here - start <= t.config.Config.smc_storm_window
      ->
      (start, count + 1)
    | _ -> (here, 1)
  in
  Hashtbl.replace t.smc_page_hits page (start, count);
  if count >= t.config.Config.smc_storm_limit then degrade_page_to_interp t page
  else false

let create ?(config = Config.default) ?cost:(mcost = Ipf.Cost.default) ?dcache
    ~btlib mem =
  let module L = (val btlib : Btlib.Btos.S) in
  (* load-time version handshake between BTGeneric and BTLib (paper §3) *)
  let btlib = Btlib.Btos.init (module L) in
  let tcache = Ipf.Tcache.create () in
  let cache = Block.create_cache () in
  let acct = Account.create () in
  let machine = M.create ~cost:mcost ?dcache mem tcache in
  let vos = Btlib.Vos.create mem in
  (* map the profile arena *)
  Ia32.Memory.map mem ~addr:Block.arena_base ~len:Block.arena_size
    ~prot:Ia32.Memory.prot_rw;
  let t =
    {
      config;
      mem;
      tcache;
      cache;
      acct;
      machine;
      exec = Ipf.Exec.create machine;
      vos;
      btlib;
      cold_env = { Cold.config; tcache; cache; mem; acct };
      candidates = [];
      stage2_entries = Hashtbl.create 16;
      avoid_entries = Hashtbl.create 16;
      smc_pending = [];
      running_block = None;
      if_counts = Hashtbl.create 64;
      if_taken = Hashtbl.create 64;
      fuel = max_int;
      on_commit = None;
      on_dispatch = None;
      interp_only = Hashtbl.create 16;
      interp_only_pages = Hashtbl.create 8;
      retrans_counts = Hashtbl.create 16;
      smc_page_hits = Hashtbl.create 16;
      icache = Ia32.Icache.create ();
      snapshots = [];
      spare_tables = [];
      snap_next_id = 0;
      max_cycles = None;
      snap_every = None;
      commits_seen = 0;
      trace = None;
      profile = None;
      sampler = None;
      hists = None;
      timers = None;
      translate_filter = None;
    }
  in
  (* Profile-arena traffic is translator instrumentation, not guest
     memory: keep it out of the dcache model so a block's cycles do not
     depend on which arena slots it was handed (required for installing
     persisted blocks at their recorded addresses in any order). *)
  machine.M.dc_skip_lo <- Block.arena_base;
  machine.M.dc_skip_hi <- Block.arena_base + Block.arena_size;
  vos.Btlib.Vos.clock <- (fun _ -> now t);
  vos.Btlib.Vos.quantum <- config.Config.quantum;
  (* SMC detection: watch writes to translated-from pages *)
  Ia32.Memory.set_write_watch mem
    (Some
       (fun addr _w ->
         let victims = Block.blocks_touching cache addr in
         if victims <> [] then begin
           t.acct.Account.smc_invalidations <-
             t.acct.Account.smc_invalidations + List.length victims;
           (match t.trace with
           | Some tr ->
             Obs.Trace.emit tr
               (Obs.Trace.Smc_invalidation
                  { addr; victims = List.length victims })
           | None -> ());
           let self = ref false in
           List.iter
             (fun b ->
               note_retranslation t b.Block.entry;
               if executing t b then begin
                 (* the executing block modified itself: abort the machine
                    and restart from the precise state *)
                 defer t b;
                 self := true
               end
               else kill t b)
             victims;
           (* storm bookkeeping may additionally defer the running block
              (page degraded under our feet) — abort in that case too *)
           let stormed =
             note_smc_invalidation t (addr lsr Ia32.Memory.page_bits)
           in
           if !self || stormed then raise Smc_abort
         end));
  t

(* Finish the kills deferred while their block was executing: chained
   predecessors must not reach the stale code. *)
let flush_smc_pending t =
  List.iter (Block.overwrite t.tcache) t.smc_pending;
  t.smc_pending <- []

(* ---- translation ------------------------------------------------------- *)

let hot_profile t =
  let m = t.machine in
  {
    Hot.use_count =
      (fun entry ->
        match Block.find_entry t.cache entry with
        | Some _ -> m.M.hotc.(M.counter_slot entry)
        | None -> (
          match Hashtbl.find_opt t.if_counts entry with
          | Some r -> !r
          | None -> 0));
    Hot.taken_count =
      (fun entry ->
        match Block.find_entry t.cache entry with
        | Some _ -> m.M.edgec.(M.counter_slot entry)
        | None -> (
          match Hashtbl.find_opt t.if_taken entry with
          | Some r -> !r
          | None -> 0));
    Hot.misaligned =
      (fun entry idx ->
        Hashtbl.mem t.avoid_entries entry
        ||
        match Block.find_entry t.cache entry with
        | Some b when idx < b.Block.n_accesses ->
          Ia32.Memory.read32 t.mem (b.Block.ma_base + (4 * idx)) <> 0
        | _ -> false);
  }

(* Wholesale translation-cache flush (paper §2: the translation cache is
   a fixed-size resource; when it fills, everything is dropped and
   retranslation starts over). Bundle indices embedded anywhere become
   invalid, so every block structure, chain, candidate and profile slot
   goes with it. Guest-address-keyed policy knowledge (stage-2/stage-3
   misalignment entries, interpret-first counts) survives. *)
let flush_translations t =
  t.acct.Account.cache_flushes <- t.acct.Account.cache_flushes + 1;
  (* zero the recycled profile arena so stale counters cannot heat fresh
     blocks instantly *)
  let used = Block.arena_high t.cache - Block.arena_base in
  for k = 0 to (used / 4) - 1 do
    Ia32.Memory.write32 t.mem (Block.arena_base + (4 * k)) 0
  done;
  let m = t.machine in
  Array.fill m.M.hotc 0 (Array.length m.M.hotc) 0;
  Array.fill m.M.edgec 0 (Array.length m.M.edgec) 0;
  Hashtbl.reset t.cache.Block.by_entry;
  Hashtbl.reset t.cache.Block.by_id;
  Hashtbl.reset t.cache.Block.bundle_owner;
  M.clear_buckets m;
  Hashtbl.reset t.cache.Block.by_page;
  Hashtbl.reset t.cache.Block.dormant;
  t.cache.Block.arena_next <- Block.arena_base;
  t.cache.Block.pins <- [];
  Ipf.Tcache.clear t.tcache;
  List.iter
    (fun e ->
      e.e_flushed <- true;
      e.e_killed := [])
    t.snapshots;
  t.candidates <- [];
  t.smc_pending <- [];
  t.running_block <- None

(* ---- snapshot / revert --------------------------------------------------

   A snapshot epoch layers the Memory page journal (O(pages touched)
   copy-on-write with revert that preserves decode-cache warmth) with an
   eager capture of everything else the translator accumulated: Account
   counters, the machine's registers, timing arrays and dcache model, the
   OS checkpoint (thread table, futex queues, brk, output) and the
   guest-address-keyed policy tables.

   Two flavours:

   - [barrier:true] flushes the translation cache first, so the original
     run continues cold from the snapshot point exactly as a later replay
     will — the post-snapshot execution is bit-identical between them
     (the crash-capsule property). Revert flushes again and restores,
     block ids included.

   - [barrier:false] keeps translations warm: revert judges every block
     by content ([revalidate]), keeping those whose source still matches
     and reviving the ones the epoch killed whose source matches again,
     so a fork-server keeps its translated code across thousands of
     runs. Timing is still deterministic per input (all counters, the
     dcache and the ALAT are restored), just not comparable to a cold
     run.

   Only legal at engine rest: before [run], or after it returned. *)

(* Host-side timing for snapshot/revert: wall span into the Snapshot
   phase timer, per-op host microseconds into the snapshot_cost
   histogram. One match when detached; never touches virtual time. *)
let timed_snapshot_op t f =
  match (t.timers, t.hists) with
  | None, None -> f ()
  | timers, hists ->
    let t0 = Sys.time () in
    let r = f () in
    let dt = Sys.time () -. t0 in
    (match timers with
    | Some tm -> Obs.Timers.add tm Obs.Timers.Snapshot dt
    | None -> ());
    (match hists with
    | Some h -> Obs.Hist.record h.Obs.Hist.snapshot_cost (int_of_float (dt *. 1e6))
    | None -> ());
    r

(* Typed copies: a store into an int or bool array needs no write
   barrier, where [Array.blit] into a major-heap array pays one per
   element. (A float array blit is a plain memory copy.) Both arrays
   come from one machine, so the lengths are checked once. *)
let copy_ints (src : int array) (dst : int array) =
  assert (Array.length dst = Array.length src);
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let copy_bools (src : bool array) (dst : bool array) =
  assert (Array.length dst = Array.length src);
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let fresh_tables (m : M.t) =
  let gr =
    Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
      (Bigarray.Array1.dim m.M.gr)
  in
  Bigarray.Array1.blit m.M.gr gr;
  {
    tb_buckets = Array.copy m.M.buckets;
    tb_gr = gr;
    tb_nat = Array.copy m.M.nat;
    tb_fr = Array.copy m.M.fr;
    tb_fnat = Array.copy m.M.fnat;
    tb_pr = Array.copy m.M.pr;
    tb_br = Array.copy m.M.br;
    tb_ready = Array.copy m.M.ready;
    tb_fready = Array.copy m.M.fready;
    tb_hotc = Array.copy m.M.hotc;
    tb_edgec = Array.copy m.M.edgec;
    tb_dcache = Ipf.Dcache.checkpoint m.M.dcache;
  }

(* Copy the machine's tables into a spare set, or into a fresh one. *)
let capture_tables t =
  let m = t.machine in
  match t.spare_tables with
  | [] -> fresh_tables m
  | tb :: rest ->
    t.spare_tables <- rest;
    copy_ints m.M.buckets tb.tb_buckets;
    Bigarray.Array1.blit m.M.gr tb.tb_gr;
    copy_bools m.M.nat tb.tb_nat;
    Array.blit m.M.fr 0 tb.tb_fr 0 (Array.length m.M.fr);
    copy_bools m.M.fnat tb.tb_fnat;
    copy_bools m.M.pr tb.tb_pr;
    copy_ints m.M.br tb.tb_br;
    copy_ints m.M.ready tb.tb_ready;
    copy_ints m.M.fready tb.tb_fready;
    copy_ints m.M.hotc tb.tb_hotc;
    copy_ints m.M.edgec tb.tb_edgec;
    Ipf.Dcache.checkpoint_into m.M.dcache tb.tb_dcache;
    tb

let restore_tables t tb =
  let m = t.machine in
  copy_ints tb.tb_buckets m.M.buckets;
  Bigarray.Array1.blit tb.tb_gr m.M.gr;
  copy_bools tb.tb_nat m.M.nat;
  Array.blit tb.tb_fr 0 m.M.fr 0 (Array.length m.M.fr);
  copy_bools tb.tb_fnat m.M.fnat;
  copy_bools tb.tb_pr m.M.pr;
  copy_ints tb.tb_br m.M.br;
  copy_ints tb.tb_ready m.M.ready;
  copy_ints tb.tb_fready m.M.fready;
  copy_ints tb.tb_hotc m.M.hotc;
  copy_ints tb.tb_edgec m.M.edgec;
  Ipf.Dcache.restore m.M.dcache tb.tb_dcache

let snapshot_impl ~barrier t =
  flush_smc_pending t;
  t.running_block <- None;
  (* an engine that has neither run nor translated is already at the
     barrier: flushing its empty cache would count a flush no replay
     from here makes *)
  if barrier && not (now t = 0 && Ipf.Tcache.length t.tcache = 0) then
    flush_translations t;
  (* journal AFTER the flush so its arena zeroing is base state, not a
     journaled change *)
  Ia32.Memory.Journal.push t.mem;
  let m = t.machine in
  let copy_refs h = Hashtbl.fold (fun k r acc -> Hashtbl.replace acc k (ref !r); acc)
      h (Hashtbl.create (Hashtbl.length h)) in
  let id = t.snap_next_id in
  t.snap_next_id <- id + 1;
  let trace_index =
    match t.trace with Some tr -> Obs.Trace.absolute_index tr | None -> 0
  in
  let e =
    {
      e_id = id;
      e_barrier = barrier;
      e_acct = Account.copy t.acct;
      e_stats = { m.M.stats with M.cycles = m.M.stats.M.cycles };
      e_tables = capture_tables t;
      e_alat = Hashtbl.copy m.M.alat;
      e_ip = m.M.ip;
      e_slot = m.M.slot;
      e_last_exit = m.M.last_exit;
      e_vos = Btlib.Vos.checkpoint t.vos;
      e_watched = Ia32.Memory.watched_pages t.mem;
      e_candidates = t.candidates;
      e_stage2 = Hashtbl.copy t.stage2_entries;
      e_avoid = Hashtbl.copy t.avoid_entries;
      e_interp_only = Hashtbl.copy t.interp_only;
      e_interp_only_pages = Hashtbl.copy t.interp_only_pages;
      e_retrans = Hashtbl.copy t.retrans_counts;
      e_smc_hits = Hashtbl.copy t.smc_page_hits;
      e_if_counts = copy_refs t.if_counts;
      e_if_taken = copy_refs t.if_taken;
      e_fuel = t.fuel;
      e_next_id = t.cache.Block.next_id;
      e_trace_index = trace_index;
      e_killed = ref [];
      e_flushed = false;
    }
  in
  t.snapshots <- e :: t.snapshots;
  (match t.trace with
  | Some tr ->
    Obs.Trace.emit tr (Obs.Trace.Snapshot { epoch = id; event_index = trace_index })
  | None -> ());
  id

let snapshot ?(barrier = false) t =
  timed_snapshot_op t (fun () -> snapshot_impl ~barrier t)

let snapshot_depth t = List.length t.snapshots
let pages_restored t = Ia32.Memory.Journal.pages_restored t.mem
let epoch_id e = e.e_id
let epoch_trace_index e = e.e_trace_index

(* Nearest open epoch at or before an absolute trace event index — the
   time-travel query: "which snapshot can rewind to before this event?" *)
let epoch_for_event t idx =
  let rec find = function
    | [] -> None
    | e :: rest -> if e.e_trace_index <= idx then Some e.e_id else find rest
  in
  find t.snapshots

let restore_table ~src ~dst =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

(* Warm revert by content, once memory is rewound: a block is valid iff
   its source span matches memory. Live blocks whose span covers a
   rewound page (one of theirs, or the page after, whose protection the
   span records) stay or die by that rule; then the epoch's killed
   blocks come back, newest first, where their span matches and no live
   block (a superseding hot trace, a stage-2 regeneration, a block kept
   above) holds their entry — unless a flush recycled the bundle indices
   their code refers to. What dies here or stays dead goes to the
   enclosing warm epoch's kill log, and cold translations among it go
   dormant, for a later dispatch miss to wake. *)
let revalidate t e touched =
  let by_id a b = compare a.Block.id b.Block.id in
  let dropped = ref [] in
  let drop k = dropped := k :: !dropped in
  List.concat_map
    (fun no ->
      Block.live_blocks_on_page t.cache no
      @ Block.live_blocks_on_page t.cache (no - 1))
    touched
  |> List.sort_uniq by_id
  |> List.iter (fun b ->
         if not (Block.span_matches t.mem b.Block.span) then
           Block.invalidate ~keep:drop t.cache t.tcache b);
  let killed =
    if e.e_flushed then []
    else
      List.sort
        (fun a b -> by_id b.Block.k_block a.Block.k_block)
        !(e.e_killed)
  in
  let dead =
    List.filter
      (fun k ->
        let b = k.Block.k_block in
        not
          ((not b.Block.live)
          && Block.find_entry t.cache b.Block.entry = None
          && Block.span_matches t.mem b.Block.span
          &&
          (Block.revive t.cache t.tcache k;
           true)))
      killed
    @ !dropped
  in
  match keeper t with
  | Some f -> List.iter f dead
  | None -> List.iter (Block.retire t.cache) dead

let revert_impl t =
  match t.snapshots with
  | [] -> invalid_arg "Engine.revert: no snapshot epoch open"
  | e :: rest ->
    flush_smc_pending t;
    t.snapshots <- rest;
    t.running_block <- None;
    (* barrier epochs captured an empty translation cache: flush before
       the journal rewind so the arena zeroing is journaled into the
       epoch being discarded, not its parent. No block outlives the
       flush, so the ids the epoch handed out are free again: a replay
       translates its blocks under the same ids as the original run. *)
    if e.e_barrier then begin
      flush_translations t;
      t.cache.Block.next_id <- e.e_next_id
    end;
    let touched = Ia32.Memory.Journal.revert t.mem in
    if not e.e_barrier then revalidate t e touched;
    Ia32.Memory.set_watched_pages t.mem e.e_watched;
    (* every live block's source stays under the SMC watch: kept and
       revived blocks, and those made or woken in the epoch *)
    Hashtbl.iter
      (fun _ b -> if b.Block.live then Block.watch t.mem b)
      t.cache.Block.by_entry;
    Account.blit ~src:e.e_acct ~dst:t.acct;
    let m = t.machine in
    let s = m.M.stats and es = e.e_stats in
    s.M.cycles <- es.M.cycles;
    s.M.groups <- es.M.groups;
    s.M.slots_retired <- es.M.slots_retired;
    s.M.loads <- es.M.loads;
    s.M.stores <- es.M.stores;
    s.M.taken_branches <- es.M.taken_branches;
    s.M.dcache_stall <- es.M.dcache_stall;
    s.M.spec_checks <- es.M.spec_checks;
    restore_tables t e.e_tables;
    t.spare_tables <- e.e_tables :: t.spare_tables;
    restore_table ~src:e.e_alat ~dst:m.M.alat;
    m.M.ip <- e.e_ip;
    m.M.slot <- e.e_slot;
    m.M.last_exit <- e.e_last_exit;
    Btlib.Vos.restore t.vos e.e_vos;
    t.candidates <-
      List.filter
        (fun id ->
          match Block.find_by_id t.cache id with
          | Some b -> b.Block.live
          | None -> false)
        e.e_candidates;
    restore_table ~src:e.e_stage2 ~dst:t.stage2_entries;
    restore_table ~src:e.e_avoid ~dst:t.avoid_entries;
    restore_table ~src:e.e_interp_only ~dst:t.interp_only;
    restore_table ~src:e.e_interp_only_pages ~dst:t.interp_only_pages;
    restore_table ~src:e.e_retrans ~dst:t.retrans_counts;
    restore_table ~src:e.e_smc_hits ~dst:t.smc_page_hits;
    Hashtbl.reset t.if_counts;
    Hashtbl.iter (fun k r -> Hashtbl.replace t.if_counts k (ref !r)) e.e_if_counts;
    Hashtbl.reset t.if_taken;
    Hashtbl.iter (fun k r -> Hashtbl.replace t.if_taken k (ref !r)) e.e_if_taken;
    t.fuel <- e.e_fuel;
    touched

let revert t = timed_snapshot_op t (fun () -> revert_impl t)

let commit_snapshot t =
  match t.snapshots with
  | [] -> invalid_arg "Engine.commit_snapshot: no snapshot epoch open"
  | e :: rest ->
    t.snapshots <- rest;
    t.spare_tables <- e.e_tables :: t.spare_tables;
    (* the child's kills happened inside the parent's epoch too *)
    (match rest with
    | p :: _ when not (p.e_barrier || p.e_flushed) ->
      p.e_killed := !(e.e_killed) @ !(p.e_killed)
    | _ -> ());
    Ia32.Memory.Journal.commit t.mem

(* ---- runaway-guest watchdog ---------------------------------------------

   With [max_cycles] set, the engine bounds each machine-run call to
   [watchdog_chunk] retired slots so even a fully chained translated loop
   (which never re-enters the dispatcher) returns to the runtime within a
   bounded number of cycles, where the clock is checked. A trip raises a
   structured [Bt_error] (component "watchdog") the driver turns into a
   crash capsule. The early group flush at a chunk boundary can perturb
   grouped-issue timing by a few cycles relative to an unbounded run, so
   the watchdog is off unless requested — replays must use the same
   [max_cycles] setting as the recording run. *)

let watchdog_chunk = 65536

let check_watchdog ?eip t =
  match t.max_cycles with
  | Some limit when now t > limit ->
    Bt_error.fail ?eip ~component:"watchdog"
      ~detail:(Printf.sprintf "cycles=%d limit=%d" (now t) limit)
      "guest exceeded --max-cycles"
  | _ -> ()

(* ---- chaos primitives --------------------------------------------------
   Semantics-preserving perturbations for the deterministic fault injector
   (Harness.Inject). Each one forces a slow path the guest's own behaviour
   might never exercise, without changing the architectural state the
   translated code observes. They are only safe at dispatch boundaries
   (the [on_dispatch] hook), never while the machine is mid-block. *)

(* Rotate the physical FP stack so every block-head TOS check misses and
   the engine must recover via [Reconstruct.rotate_tos]. The rotation is
   architecture-preserving (ST(i) maps to the same value before and
   after); it only invalidates the translator's TOS speculation. *)
let force_tos_rotation t ~by =
  if t.config.Config.fp_stack_speculation then begin
    let tos = M.get32 t.machine Regs.r_tos in
    Reconstruct.rotate_tos t.machine ~expected:((tos + by) land 7)
  end

(* The architectural x87 top: the runtime TOS minus any outstanding
   recovery rotation. Translation-time speculation must be expressed in
   architectural terms, or a block trained right after a rotation bakes
   the parking bias into its static FP map. *)
let arch_tos t =
  (M.get32 t.machine Regs.r_tos - M.get32 t.machine Regs.r_park) land 7

(* Identity snapshot of the here-and-now state, expressed against canonic
   parking: any outstanding recovery rotation is undone first, so the
   runtime TOS read below is the architectural top again. *)
let here_snapshot t =
  Reconstruct.canonicalize t.machine;
  Block.identity_snapshot ~entry_tos:(M.get32 t.machine Regs.r_tos)

(* Rewrite every XMM register to the packed-double container format: a
   bit-exact change of representation that defeats the translator's SSE
   format speculation at the next format-checked block head. *)
let force_sse_scramble t =
  if t.config.Config.sse_format_speculation then
    ignore
      (Reconstruct.convert_sse_formats t.machine
         ~required:(Array.make 8 Regs.fmt_pd))

(* Invalidate up to [max] live blocks as if their source pages had been
   written: exercises the retranslation, storm-detection and degradation
   paths without any guest store. Returns the number invalidated. *)
let spurious_smc_invalidate t ~max =
  let victims =
    Hashtbl.fold (fun _ b acc -> if b.Block.live then b :: acc else acc)
      t.cache.Block.by_id []
    |> List.sort (fun a b -> compare a.Block.id b.Block.id)
  in
  let n = ref 0 in
  List.iter
    (fun b ->
      if !n < max then begin
        incr n;
        t.acct.Account.smc_invalidations <-
          t.acct.Account.smc_invalidations + 1;
        (match t.trace with
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Trace.Smc_invalidation { addr = b.Block.entry; victims = 1 })
        | None -> ());
        note_retranslation t b.Block.entry;
        kill t b;
        ignore
          (note_smc_invalidation t (b.Block.entry lsr Ia32.Memory.page_bits))
      end)
    victims;
  !n

(* Force a wholesale translation-cache flush (eviction storm). *)
let force_cache_flush t = flush_translations t

let tcache_full t =
  Ipf.Tcache.length t.tcache > t.config.Config.tcache_limit
  || Ipf.Tcache.over_capacity t.tcache

(* Wall-time a translation burst into the Translate phase timer; one
   branch when detached. *)
let timed_translate t f =
  match t.timers with
  | None -> f ()
  | Some tm -> Obs.Timers.time tm Obs.Timers.Translate f

let translate_cold t entry =
  if tcache_full t then flush_translations t;
  let stage2 = Hashtbl.mem t.stage2_entries entry in
  let entry_tos = arch_tos t in
  (* a dormant translation of the same source made under the same
     assumptions is what the translator would produce: wake it *)
  match Block.wake t.cache t.tcache t.mem ~entry ~entry_tos ~stage2 with
  | Some b -> b
  | None ->
    (match t.trace with
    | Some tr ->
      Obs.Trace.emit tr (Obs.Trace.Trans_begin { phase = Obs.Trace.Cold; entry })
    | None -> ());
    let b =
      timed_translate t @@ fun () ->
      match t.translate_filter with
      | None -> Cold.translate t.cold_env ~entry ~entry_tos ~stage2
      | Some f -> (
        let live () = Some (Cold.translate t.cold_env ~entry ~entry_tos ~stage2) in
        match f ~phase:Obs.Trace.Cold ~entry ~entry_tos ~flag:stage2 ~live with
        | Some b -> b
        | None ->
          (* the filter is total: it either installs or runs [live], and
             cold [live] never declines (it raises on failure) *)
          Bt_error.fail ~component:"engine" ~eip:entry
            "translate filter dropped a cold translation")
    in
    let cycles =
      Array.length b.Block.insns * (cost t).Ipf.Cost.cold_translate_per_insn
    in
    charge_overhead t cycles;
    (match t.profile with
    | Some p -> Obs.Profile.note_translate p ~entry ~cycles
    | None -> ());
    (match t.hists with
    | Some h -> Obs.Hist.record h.Obs.Hist.translate_block cycles
    | None -> ());
    (match t.trace with
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Trace.Trans_end
           {
             phase = Obs.Trace.Cold;
             entry;
             insns = Array.length b.Block.insns;
             cycles;
           })
    | None -> ());
    b

(* Chain the exit branch that just fired into the fresh target block. *)
let chain t target block =
  let bundle, slot = t.machine.M.last_exit in
  if bundle >= Ipf.Tcache.length t.tcache then ()
  else
  let b = Ipf.Tcache.get t.tcache bundle in
  match b.Ipf.Bundle.slots.(slot).I.sem with
  | I.Br (I.Out (I.Dispatch a)) when a = target ->
    Ipf.Tcache.patch_slot t.tcache ~idx:bundle ~slot
      { b.Ipf.Bundle.slots.(slot) with I.sem = I.Br (I.To block.Block.tstart) };
    t.acct.Account.chain_patches <- t.acct.Account.chain_patches + 1
  | _ -> ()

(* ---- heat sessions ----------------------------------------------------- *)

(* Returns true when the caller must re-dispatch instead of resuming the
   machine: either the running block was replaced by its hot version, or
   a cache flush invalidated every bundle index the machine holds. *)
let run_hot_session t =
  let flushes0 = t.acct.Account.cache_flushes in
  if tcache_full t then flush_translations t;
  let profile = hot_profile t in
  let entry_tos = arch_tos t in
  let replaced_current = ref false in
  List.iter
    (fun id ->
      match Block.find_by_id t.cache id with
      | Some b when b.Block.live && b.Block.kind = Block.Cold -> (
        (match t.trace with
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Trace.Trans_begin
               { phase = Obs.Trace.Hot; entry = b.Block.entry })
        | None -> ());
        let avoid = Hashtbl.mem t.avoid_entries b.Block.entry in
        let live () =
          Hot.translate t.cold_env ~entry:b.Block.entry ~entry_tos ~profile
            ~avoid
        in
        match
          timed_translate t @@ fun () ->
          match t.translate_filter with
          | None -> live ()
          | Some f ->
            f ~phase:Obs.Trace.Hot ~entry:b.Block.entry ~entry_tos
              ~flag:avoid ~live
        with
        | Some hot_block ->
          let cycles =
            Array.length hot_block.Block.insns
            * (cost t).Ipf.Cost.hot_translate_per_insn
          in
          charge_overhead t cycles;
          (match t.profile with
          | Some p ->
            Obs.Profile.note_translate p ~entry:b.Block.entry ~cycles
          | None -> ());
          (match t.hists with
          | Some h ->
            Obs.Hist.record h.Obs.Hist.translate_block cycles;
            Obs.Hist.record h.Obs.Hist.trace_length
              (Array.length hot_block.Block.insns)
          | None -> ());
          (match t.trace with
          | Some tr ->
            Obs.Trace.emit tr
              (Obs.Trace.Trans_end
                 {
                   phase = Obs.Trace.Hot;
                   entry = b.Block.entry;
                   insns = Array.length hot_block.Block.insns;
                   cycles;
                 })
          | None -> ());
          t.acct.Account.hot_insns <-
            t.acct.Account.hot_insns + Array.length hot_block.Block.insns;
          (* the cold block is superseded *)
          kill t b;
          register_hot t hot_block;
          (match t.running_block with
          | Some cur when cur.Block.id = b.Block.id -> replaced_current := true
          | _ -> ())
        | None -> ())
      | _ -> ())
    t.candidates;
  t.candidates <- [];
  !replaced_current || t.acct.Account.cache_flushes > flushes0

(* Returns the IA-32 address to dispatch to when resuming the machine in
   place is no longer possible (hot replacement or cache flush). *)
let on_heat t id =
  t.acct.Account.heat_triggers <- t.acct.Account.heat_triggers + 1;
  match Block.find_by_id t.cache id with
  | None -> None
  | Some b ->
    (* the Hotc uop already reset its hashed slot, so the trigger can
       fire again *)
    if b.Block.registered = 0 then
      t.acct.Account.heated_blocks <- t.acct.Account.heated_blocks + 1;
    b.Block.registered <- b.Block.registered + 1;
    (match t.trace with
    | Some tr ->
      Obs.Trace.emit tr
        (Obs.Trace.Heat_trigger
           { entry = b.Block.entry; registered = b.Block.registered })
    | None -> ());
    if not (List.mem id t.candidates) then t.candidates <- id :: t.candidates;
    charge_overhead t 50;
    (* "when enough blocks have registered or one block has registered
       twice, an optimization session starts" *)
    if
      List.length t.candidates >= t.config.Config.session_candidates
      || b.Block.registered >= 2
    then if run_hot_session t then Some b.Block.entry else None
    else None

(* ---- precise state helpers --------------------------------------------- *)

(* Reconstruct the precise state for a machine-level event inside [block].
   Cold blocks: the state register + per-IP snapshot. Hot blocks: restore
   the commit point covering the faulting bundle, then the caller
   roll-forwards with the interpreter. *)
let reconstruct_at t block ~bundle =
  match block.Block.kind with
  | Block.Cold ->
    let ip = M.get32 t.machine Regs.r_state in
    let snapshot =
      match Hashtbl.find_opt block.Block.fp_recovery ip with
      | Some s -> s
      | None -> Block.identity_snapshot ~entry_tos:block.Block.entry_tos
    in
    Reconstruct.extract t.machine ~eip:ip ~snapshot
  | Block.Hot ->
    let off = bundle - block.Block.tstart in
    let cm_idx =
      if off >= 0 && off < Array.length block.Block.bundle_commit then
        block.Block.bundle_commit.(off)
      else 0
    in
    let cm = block.Block.commit_maps.(cm_idx) in
    t.acct.Account.rollforwards <- t.acct.Account.rollforwards + 1;
    Reconstruct.apply_commit t.machine cm

(* Interpret forward from [st] until leaving [lo,hi) or a fault/syscall, or
   at most [max_steps]. Returns the stop condition. *)
(* Install the engine's decode cache on any state it is about to drive
   through the interpreter. Such states are fresh from [Reconstruct.extract],
   one per interpreted block; they all read [t.mem], so they share the
   engine's decode cache (entries validate against that memory's page
   generations) rather than each starting cold. *)
let sync_icache t (st : Ia32.State.t) = st.Ia32.State.icache <- t.icache

let rollforward t st ~lo ~hi ~max_steps =
  (* the interpreter writes guest memory directly: clear [running_block] so
     a store onto a translated page invalidates normally instead of raising
     Smc_abort outside [Ipf.Exec.run] *)
  t.running_block <- None;
  sync_icache t st;
  let steps = ref 0 in
  let rec go () =
    if !steps >= max_steps then `Boundary
    else if st.Ia32.State.eip < lo || st.Ia32.State.eip >= hi then `Boundary
    else begin
      match Ia32.Interp.step st with
      | Ia32.Interp.Normal ->
        incr steps;
        charge_overhead t 10;
        (* roll-forward always starts at a block entry, so [lo] is the
           entry to bill the recovery to *)
        (match t.profile with
        | Some p -> Obs.Profile.note_recovery p ~entry:lo ~cycles:10
        | None -> ());
        go ()
      | Ia32.Interp.Syscall n ->
        incr steps;
        `Syscall n
      | Ia32.Interp.Faulted f -> `Fault f
    end
  in
  go ()

(* ---- exception delivery ------------------------------------------------ *)

let deliver_fault t st fault k =
  let module L = (val t.btlib : Btlib.Btos.S) in
  (match t.on_commit with
  | Some f -> f (Commit_fault fault) st
  | None -> ());
  charge_overhead t (cost t).Ipf.Cost.exception_filter_cost;
  t.acct.Account.exceptions_filtered <- t.acct.Account.exceptions_filtered + 1;
  (match t.trace with
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Trace.Fault_delivered
         { fault = Ia32.Fault.to_string fault; eip = st.Ia32.State.eip })
  | None -> ());
  match L.deliver_exception t.vos st fault with
  | Btlib.Vos.Resumed ->
    Reconstruct.inject t.machine st;
    k st.Ia32.State.eip
  | Btlib.Vos.Unhandled f -> Unhandled_fault (f, st)

(* ---- syscalls ---------------------------------------------------------- *)

(* Schedule and dispatch the next runnable guest thread. The outgoing
   thread's state must already be parked in the Vos thread table. All
   per-thread IPF contexts share one machine and one tcache: switching is
   a Reconstruct.inject of the incoming thread's architectural state, so
   cross-thread SMC shootdown rides the existing page-generation checks. *)
let resume_next t k =
  let prev = Btlib.Vos.current t.vos in
  match Btlib.Vos.reschedule t.vos ~now:(now t) with
  | Btlib.Vos.Run th ->
    if th.Btlib.Vos.tid <> prev then begin
      t.acct.Account.thread_switches <- t.acct.Account.thread_switches + 1;
      charge_overhead t (cost t).Ipf.Cost.context_switch_cost
    end;
    let st = th.Btlib.Vos.state in
    (match Btlib.Vos.take_wake th with
    | Some v ->
      (* the value this thread's blocking syscall owes it (join result,
         futex wake), encoded exactly once, at resume *)
      let module L = (val t.btlib : Btlib.Btos.S) in
      L.encode_result st v
    | None -> ());
    Reconstruct.inject t.machine st;
    k st.Ia32.State.eip
  | Btlib.Vos.Deadlock ->
    Bt_error.fail ~component:"engine" "deadlock: all guest threads blocked"

let count_thread_call t (call : Btlib.Syscall.call) =
  let a = t.acct in
  match call with
  | Btlib.Syscall.Spawn _ ->
    a.Account.thread_spawns <- a.Account.thread_spawns + 1
  | Btlib.Syscall.Join _ -> a.Account.thread_joins <- a.Account.thread_joins + 1
  | Btlib.Syscall.Yield ->
    a.Account.thread_yields <- a.Account.thread_yields + 1
  | Btlib.Syscall.Futex_wait _ ->
    a.Account.futex_waits <- a.Account.futex_waits + 1
  | Btlib.Syscall.Futex_wake _ ->
    a.Account.futex_wakes <- a.Account.futex_wakes + 1
  | _ -> ()

(* Auto-snapshot cadence: every [snap_every]-th syscall commit takes a
   barrier snapshot at the commit point. The barrier flush already resets
   [running_block]/[smc_pending], and the continuing thread re-enters via
   [Reconstruct.inject] + dispatch, so the original run proceeds exactly as
   a replay from the snapshot would — cold, from the committed state. *)
let maybe_auto_snapshot t st =
  match t.snap_every with
  | None -> ()
  | Some n ->
    t.commits_seen <- t.commits_seen + 1;
    if t.commits_seen mod n = 0 then begin
      (* sync the thread table with the precise committed state before
         the Vos checkpoint inside [snapshot] captures it *)
      Btlib.Vos.park t.vos st;
      ignore (snapshot ~barrier:true t)
    end

(* Sampler poll at engine commit points (dispatch, interpreter block
   boundaries, syscall completion) — catches clock advances that never
   flow through the machine's charge probe (overhead/other/idle cycles).
   One branch when detached; recording-only when attached. *)
let sample_poll t ~eip ~phase =
  match t.sampler with
  | None -> ()
  | Some s ->
    let vnow = now t in
    if Obs.Sample.due s ~now:vnow then
      Obs.Sample.record s ~now:vnow ~tid:(Btlib.Vos.current t.vos) ~eip
        ~entry:eip ~phase ~degraded:(interp_only_at t eip)

let do_syscall t st n k =
  let module L = (val t.btlib : Btlib.Btos.S) in
  if n <> L.syscall_vector then
    (* not this OS's system-call vector: the guest gets a trap *)
    deliver_fault t st Ia32.Fault.Breakpoint k
  else begin
    (match t.on_commit with
    | Some f -> f (Commit_syscall n) st
    | None -> ());
    let call = L.decode_syscall st in
    count_thread_call t call;
    charge_other t (cost t).Ipf.Cost.syscall_cost;
    let k0 = t.vos.Btlib.Vos.kernel_cycles and i0 = t.vos.Btlib.Vos.idle_cycles in
    let fin r =
      (* kernel/driver time runs natively ("other"); idle is idle *)
      let kd = t.vos.Btlib.Vos.kernel_cycles - k0
      and idl = t.vos.Btlib.Vos.idle_cycles - i0 in
      charge_other t kd;
      t.acct.Account.idle_cycles <- t.acct.Account.idle_cycles + idl;
      (match t.hists with
      | Some h ->
        Obs.Hist.record h.Obs.Hist.syscall_latency
          ((cost t).Ipf.Cost.syscall_cost + kd + idl)
      | None -> ());
      sample_poll t ~eip:st.Ia32.State.eip ~phase:"runtime";
      r
    in
    match fin (L.perform t.vos st call) with
    | Btlib.Syscall.Exited code ->
      (match t.on_commit with
      | Some f -> f (Commit_exit code) st
      | None -> ());
      (match t.trace with
      | Some tr -> Obs.Trace.emit tr (Obs.Trace.Exit_program { code })
      | None -> ());
      Exited (code, st)
    | Btlib.Syscall.Ret v ->
      L.encode_result st v;
      if Btlib.Vos.need_resched t.vos ~now:(now t) then begin
        (* quantum expired (or the thread yielded): deterministic
           preemption at the syscall commit point *)
        Btlib.Vos.park t.vos st;
        resume_next t k
      end
      else begin
        maybe_auto_snapshot t st;
        Reconstruct.inject t.machine st;
        k st.Ia32.State.eip
      end
    | Btlib.Syscall.Block ->
      (* the calling thread parked itself (join/futex wait, or a
         non-final thread exit); run someone else *)
      Btlib.Vos.park t.vos st;
      resume_next t k
  end

(* ---- main loop ---------------------------------------------------------- *)

let vector_fault = function
  | 0 -> Ia32.Fault.Divide_error
  | 6 -> Ia32.Fault.Invalid_opcode
  | 13 -> Ia32.Fault.Privileged
  | 16 -> Ia32.Fault.Fp_stack_fault
  | _ -> Ia32.Fault.Invalid_opcode

(* Start running the guest whose initial architectural state is [st]. *)
let run ?(fuel = max_int) t (st0 : Ia32.State.t) =
  t.fuel <- fuel;
  Btlib.Vos.register_main t.vos st0;
  Reconstruct.inject t.machine st0;
  let rec dispatch eip =
    (match t.trace with
    | Some tr -> Obs.Trace.emit tr (Obs.Trace.Dispatch { eip })
    | None -> ());
    t.acct.Account.dispatches <- t.acct.Account.dispatches + 1;
    charge_overhead t (cost t).Ipf.Cost.dispatch_cost;
    sample_poll t ~eip ~phase:"runtime";
    check_watchdog ~eip t;
    t.running_block <- None;
    flush_smc_pending t;
    (match t.on_dispatch with Some f -> f eip | None -> ());
    flush_smc_pending t;
    if interp_only_at t eip then interp_step_blocks eip
    else
    match Block.find_entry t.cache eip with
    | Some b -> enter b
    | None
      when t.config.Config.two_phase
           && t.config.Config.first_phase = Config.Interpret_first ->
      interpret_first eip
    | None -> (
      match translate_cold t eip with
      | b -> enter b
      | exception Cold.Cannot_translate _ ->
        (* undecodable or unfetchable entry: architectural fault *)
        let snapshot = Block.identity_snapshot ~entry_tos:0 in
        let st = Reconstruct.extract t.machine ~eip ~snapshot in
        (* Re-decode to find the precise architectural fault: a truncated
           instruction at the end of a mapped page is a fetch page fault on
           the *following* page, not #UD; only a byte sequence the decoder
           itself rejects is #UD. *)
        let fault =
          match Ia32.Decode.decode t.mem eip with
          | _ -> Ia32.Fault.Invalid_opcode (* decodable, untranslatable *)
          | exception Ia32.Fault.Fault f -> f
          | exception _ -> Ia32.Fault.Invalid_opcode
        in
        deliver_fault t st fault dispatch)
  and interpret_first eip =
    (* FX!32-style first phase: interpret basic blocks while counting
       entries and edges; when a block heats, translate it hot directly.
       The interpretation threshold is lower than the instrumented-cold
       threshold (the paper: such systems "need to move to hot code
       generation much earlier"), so the profile is less representative. *)
    let threshold = max 8 (t.config.Config.heat_threshold / 4) in
    let count =
      match Hashtbl.find_opt t.if_counts eip with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.replace t.if_counts eip r;
        r
    in
    incr count;
    if !count >= threshold then begin
      let profile = hot_profile t in
      let entry_tos = arch_tos t in
      let live () =
        Hot.translate t.cold_env ~entry:eip ~entry_tos ~profile ~avoid:false
      in
      match
        timed_translate t @@ fun () ->
        match t.translate_filter with
        | None -> live ()
        | Some f ->
          f ~phase:Obs.Trace.Hot ~entry:eip ~entry_tos ~flag:false ~live
      with
      | Some hb ->
        let cycles =
          Array.length hb.Block.insns * (cost t).Ipf.Cost.hot_translate_per_insn
        in
        charge_overhead t cycles;
        (match t.hists with
        | Some h ->
          Obs.Hist.record h.Obs.Hist.translate_block cycles;
          Obs.Hist.record h.Obs.Hist.trace_length (Array.length hb.Block.insns)
        | None -> ());
        register_hot t hb;
        enter hb
      | None -> (
        match translate_cold t eip with
        | b -> enter b
        | exception Cold.Cannot_translate _ -> interp_step_blocks eip)
    end
    else interp_step_blocks eip
  and interp_step_blocks eip =
    (* interpret one basic block, maintaining the engine-side edge profile.
       The interpreter writes guest memory directly: clear [running_block]
       so a write that lands on a translated page cannot look like the
       running block modifying itself (Smc_abort may only be raised while
       the machine is actually inside [Ipf.Exec.run]). *)
    t.running_block <- None;
    let snapshot = here_snapshot t in
    let st = Reconstruct.extract t.machine ~eip ~snapshot in
    sync_icache t st;
    let rec steps budget =
      if budget = 0 then `Continue
      else begin
        let at = st.Ia32.State.eip in
        match Ia32.Decode.decode t.mem at with
        | exception Ia32.Fault.Fault f -> `Fault f
        | exception _ -> `Fault Ia32.Fault.Invalid_opcode
        | insn, len -> (
          let fall = Ia32.Word.mask32 (at + len) in
          match Ia32.Interp.step st with
          | Ia32.Interp.Normal ->
            t.acct.Account.interp_cycles <-
              t.acct.Account.interp_cycles + (cost t).Ipf.Cost.interp_per_insn;
            t.fuel <- t.fuel - 1;
            (match insn with
            | Ia32.Insn.Jcc _ ->
              let taken = st.Ia32.State.eip <> fall in
              let r =
                match Hashtbl.find_opt t.if_taken eip with
                | Some r -> r
                | None ->
                  let r = ref 0 in
                  Hashtbl.replace t.if_taken eip r;
                  r
              in
              if taken then incr r;
              `Continue
            | _ when Ia32.Insn.is_block_end insn -> `Continue
            | _ -> steps (budget - 1))
          | Ia32.Interp.Syscall n ->
            t.acct.Account.interp_cycles <-
              t.acct.Account.interp_cycles + (cost t).Ipf.Cost.interp_per_insn;
            `Syscall n
          | Ia32.Interp.Faulted f -> `Fault f)
      end
    in
    if t.fuel <= 0 then Out_of_fuel
    else
      match steps 64 with
      | `Continue ->
        sample_poll t ~eip:st.Ia32.State.eip ~phase:"interp";
        Reconstruct.inject t.machine st;
        dispatch st.Ia32.State.eip
      | `Syscall n -> do_syscall t st n dispatch
      | `Fault f -> deliver_fault t st f dispatch
  and enter b =
    t.running_block <- Some b;
    t.machine.M.ip <- b.Block.tstart;
    t.machine.M.slot <- 0;
    continue ()
  and continue () =
    if t.fuel <= 0 then Out_of_fuel
    else begin
      (match Block.find_by_bundle t.cache t.machine.M.ip with
      | Some b -> t.running_block <- Some b
      | None -> ());
      let before = t.machine.M.stats.M.slots_retired in
      (* watchdog chunking: bound the machine call so a chained loop that
         never dispatches still returns for a clock check *)
      let mfuel =
        match t.max_cycles with
        | None -> t.fuel
        | Some _ -> min t.fuel watchdog_chunk
      in
      let exec () = Ipf.Exec.run ~fuel:mfuel t.exec in
      let stop =
        try
          match t.timers with
          | None -> exec ()
          | Some tm -> Obs.Timers.time tm Obs.Timers.Execute exec
        with Smc_abort ->
          (* self-modifying store: memory effect is committed; restart the
             current IA-32 instruction from its precise state *)
          let b =
            match Block.find_by_bundle t.cache t.machine.M.ip with
            | Some b -> b
            | None -> Option.get t.running_block
          in
          let st = reconstruct_at t b ~bundle:t.machine.M.ip in
          flush_smc_pending t;
          Reconstruct.inject t.machine st;
          M.Exited (I.Dispatch st.Ia32.State.eip)
      in
      (* The machine has returned, so no block is executing: a runtime
         store into translated code (a system call's recv, an exception
         frame) kills its block like any other write instead of raising
         Smc_abort outside [Ipf.Exec.run]. [ran] is the block the machine
         stopped in, for the exits that resume it or recover in it. *)
      let ran = t.running_block in
      t.running_block <- None;
      t.fuel <- t.fuel - (t.machine.M.stats.M.slots_retired - before) - 1;
      handle ran stop
    end
  and handle ran stop =
    (match (t.trace, stop) with
    | Some tr, M.Faulted f ->
      Obs.Trace.emit tr
        (Obs.Trace.Machine_fault
           {
             kind =
               (match f.M.kind with
               | M.F_misalign -> "misalign"
               | M.F_page -> "page"
               | M.F_nat -> "nat");
             addr = f.M.addr;
             bundle = f.M.ip;
           })
    | _ -> ());
    match stop with
    | M.Fuel ->
      if t.max_cycles = None || t.fuel <= 0 then Out_of_fuel
      else begin
        (* a watchdog chunk expired, not the caller's fuel: check the
           clock and resume the machine from where it stopped *)
        check_watchdog t;
        t.running_block <- ran;
        continue ()
      end
    | M.Exited (I.Dispatch target) -> (
      flush_smc_pending t;
      (* block boundary: safe injection point (the machine is not
         mid-block, so chaos invalidations cannot pull a running block
         out from under us) *)
      t.running_block <- None;
      (match t.on_dispatch with Some f -> f target | None -> ());
      flush_smc_pending t;
      match Block.find_entry t.cache target with
      | Some b ->
        chain t target b;
        enter b
      | None when interp_only_at t target ->
        (* degraded entry: no fast-path retranslation, go through the
           dispatcher to the interpreter *)
        dispatch target
      | None ->
        (match t.trace with
        | Some tr -> Obs.Trace.emit tr (Obs.Trace.Dispatch { eip = target })
        | None -> ());
        t.acct.Account.dispatches <- t.acct.Account.dispatches + 1;
        charge_overhead t (cost t).Ipf.Cost.dispatch_cost;
        (match translate_cold t target with
        | b ->
          chain t target b;
          enter b
        | exception Cold.Cannot_translate _ -> dispatch target))
    | M.Exited I.Indirect ->
      let target = M.get32 t.machine Regs.r_btarget in
      t.acct.Account.indirect_lookups <- t.acct.Account.indirect_lookups + 1;
      (* probe depth of the block-cache lookup this indirect performs:
         1 + the source-page chain the entry search walks *)
      (match t.hists with
      | Some h ->
        let depth =
          match
            Hashtbl.find_opt t.cache.Block.by_page
              (target lsr Ia32.Memory.page_bits)
          with
          | Some l -> 1 + List.length !l
          | None -> 1
        in
        Obs.Hist.record h.Obs.Hist.tcache_probe_depth depth
      | None -> ());
      (* the fast-lookup sequence is inline translated code in the real
         system, so a HIT is translated-code time attributed to the
         exiting block's bucket; only a MISS falls into the runtime and
         counts as overhead *)
      M.charge t.machine (cost t).Ipf.Cost.indirect_lookup_cost;
      flush_smc_pending t;
      t.running_block <- None;
      (match t.on_dispatch with Some f -> f target | None -> ());
      flush_smc_pending t;
      (match Block.find_entry t.cache target with
      | Some b -> enter b
      | None ->
        t.acct.Account.indirect_misses <- t.acct.Account.indirect_misses + 1;
        charge_overhead t (cost t).Ipf.Cost.dispatch_cost;
        dispatch target)
    | M.Exited (I.Heat id) -> (
      (* a heat session that replaces [ran] must re-dispatch *)
      t.running_block <- ran;
      match on_heat t id with
      | Some entry -> dispatch entry
      | None -> continue ())
    | M.Exited (I.Syscall n) ->
      let eip = M.get32 t.machine Regs.r_state in
      let snapshot = here_snapshot t in
      let st = Reconstruct.extract t.machine ~eip ~snapshot in
      do_syscall t st n dispatch
    | M.Exited (I.Misalign_regen id) -> (
      t.acct.Account.misalign_stage1_hits <- t.acct.Account.misalign_stage1_hits + 1;
      match Block.find_by_id t.cache id with
      | None -> dispatch (M.get32 t.machine Regs.r_state)
      | Some b ->
        let st = reconstruct_at t b ~bundle:t.machine.M.ip in
        (match t.trace with
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Trace.Recovery
               { path = "misalign_regen"; eip = st.Ia32.State.eip })
        | None -> ());
        (* regenerate as a stage-2 avoiding block from the faulting IP (and
           from the block entry, for future entries) *)
        note_retranslation t b.Block.entry;
        Hashtbl.replace t.stage2_entries b.Block.entry ();
        Hashtbl.replace t.stage2_entries st.Ia32.State.eip ();
        kill t b;
        Reconstruct.inject t.machine st;
        dispatch st.Ia32.State.eip)
    | M.Exited (I.Smc _) -> dispatch (M.get32 t.machine Regs.r_state)
    | M.Exited (I.Spec_fail (id, check)) -> (
      match Block.find_by_id t.cache id with
      | None -> dispatch (M.get32 t.machine Regs.r_state)
      | Some b ->
        charge_overhead t 40;
        (match t.profile with
        | Some p -> Obs.Profile.note_recovery p ~entry:b.Block.entry ~cycles:40
        | None -> ());
        (match t.trace with
        | Some tr ->
          let kind =
            if check = Templates.check_tos then "tos"
            else if check = Templates.check_park then "park"
            else if check = Templates.check_tag then "tag"
            else if
              check = Templates.check_mode_fp
              || check = Templates.check_mode_mmx
            then "mode"
            else "sse"
          in
          Obs.Trace.emit tr
            (Obs.Trace.Spec_miss { kind; entry = b.Block.entry })
        | None -> ());
        if check = Templates.check_tos then begin
          t.acct.Account.tos_misses <- t.acct.Account.tos_misses + 1;
          Reconstruct.rotate_tos t.machine ~expected:b.Block.entry_tos;
          enter b
        end
        else if check = Templates.check_park then begin
          (* MMX block entered with the file rotated off its canonic
             parking: undo the rotation, then the absolute accesses are
             right again *)
          t.acct.Account.tos_misses <- t.acct.Account.tos_misses + 1;
          Reconstruct.canonicalize t.machine;
          enter b
        end
        else if check = Templates.check_tag then begin
          (* TAG mismatch: run the block's source code through the
             interpreter, which raises the precise stack fault if any
             (the paper rebuilds a special fault-catching block) *)
          t.acct.Account.tag_misses <- t.acct.Account.tag_misses + 1;
          let snapshot = here_snapshot t in
          let st = Reconstruct.extract t.machine ~eip:b.Block.entry ~snapshot in
          match
            rollforward t st ~lo:b.Block.entry ~hi:b.Block.code_end
              ~max_steps:(Array.length b.Block.insns + 1)
          with
          | `Fault f -> deliver_fault t st f dispatch
          | `Syscall n -> do_syscall t st n dispatch
          | `Boundary ->
            Reconstruct.inject t.machine st;
            dispatch st.Ia32.State.eip
        end
        else if check = Templates.check_mode_fp || check = Templates.check_mode_mmx
        then begin
          t.acct.Account.mode_misses <- t.acct.Account.mode_misses + 1;
          Reconstruct.sync_mode t.machine
            ~to_mmx:(check = Templates.check_mode_mmx);
          enter b
        end
        else begin
          t.acct.Account.sse_misses <- t.acct.Account.sse_misses + 1;
          let n =
            Reconstruct.convert_sse_formats t.machine ~required:b.Block.sse_entry
          in
          charge_overhead t (20 * n);
          (match t.profile with
          | Some p when n > 0 ->
            Obs.Profile.note_recovery p ~entry:b.Block.entry ~cycles:(20 * n)
          | _ -> ());
          enter b
        end)
    | M.Exited (I.Guest_fault (ip, vec)) -> (
      match ran with
      | None -> Out_of_fuel
      | Some b when b.Block.kind = Block.Hot -> (
        (* restore the covering commit region and roll forward: the
           interpreter raises the precise architectural fault *)
        let bundle, _ = t.machine.M.last_exit in
        let st = reconstruct_at t b ~bundle in
        (match t.trace with
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Trace.Recovery
               { path = "guest_fault_rollforward"; eip = st.Ia32.State.eip })
        | None -> ());
        match
          rollforward t st ~lo:b.Block.entry ~hi:b.Block.code_end
            ~max_steps:(Array.length b.Block.insns + 2)
        with
        | `Fault fault -> deliver_fault t st fault dispatch
        | `Syscall n -> do_syscall t st n dispatch
        | `Boundary ->
          Reconstruct.inject t.machine st;
          dispatch st.Ia32.State.eip)
      | Some b ->
        let snapshot =
          match Hashtbl.find_opt b.Block.fp_recovery ip with
          | Some s -> s
          | None -> Block.identity_snapshot ~entry_tos:b.Block.entry_tos
        in
        let st = Reconstruct.extract t.machine ~eip:ip ~snapshot in
        deliver_fault t st (vector_fault vec) dispatch)
    | M.Exited (I.Nat_recover id) -> (
      (* a chk.s caught a deferred speculative-load fault: restore the
         covering commit point and roll forward so the real fault (or a
         transient one that no longer occurs) is raised precisely *)
      match Block.find_by_id t.cache id with
      | None ->
        Bt_error.fail ~component:"engine" ~block:id
          "nat-recover from unknown block"
      | Some b -> (
        let bundle = fst t.machine.M.last_exit in
        let st = reconstruct_at t b ~bundle in
        (match t.trace with
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Trace.Recovery
               { path = "nat_recover"; eip = st.Ia32.State.eip })
        | None -> ());
        match
          rollforward t st ~lo:b.Block.entry ~hi:b.Block.code_end
            ~max_steps:(Array.length b.Block.insns + 2)
        with
        | `Fault fault -> deliver_fault t st fault dispatch
        | `Syscall n -> do_syscall t st n dispatch
        | `Boundary ->
          Reconstruct.inject t.machine st;
          dispatch st.Ia32.State.eip))
    | M.Exited I.Exit_program ->
      let snapshot = here_snapshot t in
      let st =
        Reconstruct.extract t.machine
          ~eip:(M.get32 t.machine Regs.r_state)
          ~snapshot
      in
      (match t.on_commit with
      | Some f -> f (Commit_exit 0) st
      | None -> ());
      (match t.trace with
      | Some tr -> Obs.Trace.emit tr (Obs.Trace.Exit_program { code = 0 })
      | None -> ());
      Exited (0, st)
    | M.Faulted f -> (
      match Block.find_by_bundle t.cache f.M.ip with
      | None ->
        Bt_error.fail ~component:"engine"
          ~detail:(Printf.sprintf "bundle %d" f.M.ip)
          "fault outside any translated block"
      | Some b -> (
        let st = reconstruct_at t b ~bundle:f.M.ip in
        match f.M.kind with
        | M.F_nat ->
          Bt_error.fail ~component:"engine" ~eip:b.Block.entry
            ~block:b.Block.id "translator bug: NaT consumption fault"
        | M.F_misalign -> (
          (* IA-32 never faults here: emulate through the interpreter at
             the OS-handler price, and trigger regeneration with avoidance *)
          charge_overhead t (cost t).Ipf.Cost.os_misalign_cost;
          (match t.profile with
          | Some p ->
            Obs.Profile.note_recovery p ~entry:b.Block.entry
              ~cycles:(cost t).Ipf.Cost.os_misalign_cost
          | None -> ());
          t.acct.Account.misalign_os_faults <-
            t.acct.Account.misalign_os_faults + 1;
          (match t.trace with
          | Some tr ->
            Obs.Trace.emit tr
              (Obs.Trace.Recovery
                 { path = "os_misalign"; eip = st.Ia32.State.eip })
          | None -> ());
          note_retranslation t b.Block.entry;
          (if b.Block.kind = Block.Hot then begin
             (* stage 3: discard the hot block; regenerate with avoidance *)
             t.acct.Account.hot_discards <- t.acct.Account.hot_discards + 1;
             Hashtbl.replace t.avoid_entries b.Block.entry ();
             kill t b
           end
           else Hashtbl.replace t.stage2_entries b.Block.entry ());
          match
            rollforward t st ~lo:b.Block.entry ~hi:b.Block.code_end
              ~max_steps:(Array.length b.Block.insns + 2)
          with
          | `Fault fault -> deliver_fault t st fault dispatch
          | `Syscall n -> do_syscall t st n dispatch
          | `Boundary ->
            Reconstruct.inject t.machine st;
            dispatch st.Ia32.State.eip)
        | M.F_page -> (
          (match t.trace with
          | Some tr ->
            Obs.Trace.emit tr
              (Obs.Trace.Recovery
                 { path = "page_rollforward"; eip = st.Ia32.State.eip })
          | None -> ());
          (* roll forward to the precise faulting instruction; a premature
             speculative fault is nullified by simply not recurring *)
          match
            rollforward t st ~lo:b.Block.entry ~hi:b.Block.code_end
              ~max_steps:(Array.length b.Block.insns + 2)
          with
          | `Fault fault -> deliver_fault t st fault dispatch
          | `Syscall n -> do_syscall t st n dispatch
          | `Boundary ->
            Reconstruct.inject t.machine st;
            dispatch st.Ia32.State.eip)))
  in
  dispatch st0.Ia32.State.eip

(* Final time distribution for the Figure 6/7 style reports. *)
let distribution t = Account.distribution t.acct t.machine

(* Tid of the currently scheduled guest thread (0 when single-threaded). *)
let clock t = now t
let current_tid t = Btlib.Vos.current t.vos

(* Snapshot the current architectural state (block-boundary precision). *)
let capture t =
  let snapshot = here_snapshot t in
  Reconstruct.extract t.machine ~eip:(M.get32 t.machine Regs.r_state) ~snapshot

(* ---- observability ----------------------------------------------------- *)

let attach_trace t tr =
  t.trace <- Some tr;
  Obs.Trace.set_clock tr (fun () -> now t);
  Obs.Trace.set_tid_source tr (fun () -> Btlib.Vos.current t.vos);
  Ipf.Tcache.set_trace t.tcache (Some tr);
  t.vos.Btlib.Vos.trace <- Some tr

(* The machine exposes ONE charge-probe slot; the profile and the
   sampler share it. The probe mirrors every machine charge onto the
   owning guest block (same [find_by_bundle] lookup as the cold/hot
   bucket split) and, when the deterministic clock has crossed a
   sampling boundary, folds a sample keyed by last committed EIP. It
   only records — never charges or touches machine state. *)
let install_charge_probe t =
  if t.profile = None && t.sampler = None then
    t.machine.M.charge_probe <- None
  else
    t.machine.M.charge_probe <-
      Some
        (fun bundle cycles ->
          let blk = Block.find_by_bundle t.cache bundle in
          (match t.profile with
          | Some p -> (
            match blk with
            | Some b ->
              let phase =
                match b.Block.kind with
                | Block.Hot -> Obs.Profile.Hot
                | Block.Cold -> Obs.Profile.Cold
              in
              Obs.Profile.note_exec p ~entry:b.Block.entry ~phase ~cycles
            | None -> Obs.Profile.note_runtime p ~cycles)
          | None -> ());
          match t.sampler with
          | None -> ()
          | Some s ->
            let vnow = now t in
            if Obs.Sample.due s ~now:vnow then begin
              let eip = M.get32 t.machine Regs.r_state in
              let entry, phase =
                match blk with
                | Some b ->
                  ( b.Block.entry,
                    match b.Block.kind with
                    | Block.Hot -> "hot"
                    | Block.Cold -> "cold" )
                | None -> (eip, "runtime")
              in
              Obs.Sample.record s ~now:vnow ~tid:(Btlib.Vos.current t.vos)
                ~eip ~entry ~phase ~degraded:(interp_only_at t eip)
            end)

let attach_profile t p =
  t.profile <- Some p;
  install_charge_probe t

let attach_sample t s =
  t.sampler <- Some s;
  install_charge_probe t

let attach_hists t h =
  t.hists <- Some h;
  t.vos.Btlib.Vos.futex_hist <-
    Some (fun d -> Obs.Hist.record h.Obs.Hist.futex_wait d)

let attach_timers t tm =
  t.timers <- Some tm;
  (* persist-I/O spans are recorded by the CLI around Persist load/save
     via [Obs.Timers.add]; nothing to install engine-side *)
  ()

let trace t = t.trace
let profile t = t.profile
let sampler t = t.sampler
let hists t = t.hists
let timers t = t.timers

let live_blocks t =
  Hashtbl.fold
    (fun _ b n -> if b.Block.live then n + 1 else n)
    t.cache.Block.by_id 0

let metrics t =
  let m = Obs.Metrics.make ~schema:"ia32el-metrics/2" in
  let i n = Obs.Metrics.Int n in
  let d = distribution t in
  Obs.Metrics.section m "cycles"
    [
      ("total", i d.Account.total);
      ("hot", i d.Account.hot);
      ("cold", i d.Account.cold);
      ("overhead", i d.Account.overhead);
      ("other", i d.Account.other);
      ("idle", i d.Account.idle);
      ("interp", i t.acct.Account.interp_cycles);
    ];
  Obs.Metrics.section m "counters"
    (List.map (fun (k, v) -> (k, i v)) (Account.counters t.acct));
  Obs.Metrics.section m "volume"
    [
      ("cold_insns", i t.acct.Account.cold_insns);
      ("hot_insns", i t.acct.Account.hot_insns);
      ("hot_target_insns", i t.acct.Account.hot_target_insns);
    ];
  let ms = t.machine.M.stats in
  Obs.Metrics.section m "machine"
    [
      ("cycles", i ms.M.cycles);
      ("groups", i ms.M.groups);
      ("slots_retired", i ms.M.slots_retired);
      ("loads", i ms.M.loads);
      ("stores", i ms.M.stores);
      ("taken_branches", i ms.M.taken_branches);
      ("dcache_stall", i ms.M.dcache_stall);
      ("spec_checks", i ms.M.spec_checks);
    ];
  Obs.Metrics.section m "tcache"
    [
      ("bundles", i (Ipf.Tcache.length t.tcache));
      ("limit", i t.config.Config.tcache_limit);
      ("live_blocks", i (live_blocks t));
    ];
  let ds = Ipf.Dcache.stats t.machine.M.dcache in
  Obs.Metrics.section m "dcache"
    [
      ("l1_hits", i ds.Ipf.Dcache.l1_hits);
      ("l1_misses", i ds.Ipf.Dcache.l1_misses);
      ("l2_hits", i ds.Ipf.Dcache.l2_hits);
      ("l2_misses", i ds.Ipf.Dcache.l2_misses);
    ];
  Obs.Metrics.section m "vos"
    [
      ("syscalls", i t.vos.Btlib.Vos.syscalls);
      ("kernel_cycles", i t.vos.Btlib.Vos.kernel_cycles);
      ("idle_cycles", i t.vos.Btlib.Vos.idle_cycles);
      ("exceptions_delivered", i t.vos.Btlib.Vos.exceptions_delivered);
      ("transient_retries", i t.vos.Btlib.Vos.transient_retries);
    ];
  (* per-thread counters plus the aggregate; only present once the thread
     table exists, so single-threaded metrics snapshots are unchanged *)
  (if Btlib.Vos.thread_count t.vos > 1 then
     let status_name = function
       | Btlib.Vos.Runnable -> "runnable"
       | Btlib.Vos.Blocked_join _ -> "blocked_join"
       | Btlib.Vos.Blocked_futex _ -> "blocked_futex"
       | Btlib.Vos.Exited_t _ -> "exited"
       | Btlib.Vos.Reaped -> "reaped"
     in
     let rows = ref [] in
     for tid = Btlib.Vos.thread_count t.vos - 1 downto 0 do
       match Btlib.Vos.find_thread t.vos tid with
       | Some th ->
         rows :=
           ( Printf.sprintf "t%d" tid,
             Obs.Metrics.Obj
               [
                 ("cycles", i th.Btlib.Vos.t_cycles);
                 ("syscalls", i th.Btlib.Vos.t_syscalls);
                 ("status", Obs.Metrics.Str (status_name th.Btlib.Vos.status));
               ] )
           :: !rows
       | None -> ()
     done;
     Obs.Metrics.section m "threads"
       (("count", i (Btlib.Vos.thread_count t.vos))
       :: ("context_switches", i t.vos.Btlib.Vos.context_switches)
       :: !rows));
  (match t.trace with
  | Some tr ->
    Obs.Metrics.section m "trace"
      [
        ("events", i (Obs.Trace.length tr));
        ("dropped", i (Obs.Trace.dropped tr));
      ]
  | None -> ());
  (match t.profile with
  | Some p ->
    Obs.Metrics.section m "profile"
      (("runtime_cycles", i (Obs.Profile.runtime_cycles p))
      :: ("hot_exec", i (Obs.Profile.hot_exec p))
      :: ("cold_exec", i (Obs.Profile.cold_exec p))
      :: List.map
           (fun (entry, r) ->
             ( Printf.sprintf "0x%x" entry,
               Obs.Metrics.Obj
                 [
                   ("exec", i (Obs.Profile.exec_cycles r));
                   ("hot", i r.Obs.Profile.hot_cycles);
                   ("cold", i r.Obs.Profile.cold_cycles);
                   ("translate", i r.Obs.Profile.translate_cycles);
                   ("recovery", i r.Obs.Profile.recovery_cycles);
                 ] ))
           (Obs.Profile.top 10 p))
  | None -> ());
  (* ia32el-metrics/2 additions — each present only when attached, so
     detached snapshots differ from /1 in the schema string alone *)
  (match t.hists with
  | Some h -> Obs.Metrics.section m "hist" (Obs.Hist.set_to_json h)
  | None -> ());
  (match t.sampler with
  | Some s ->
    Obs.Metrics.section m "sample"
      [
        ("interval", i (Obs.Sample.interval s));
        ("samples", i (Obs.Sample.samples s));
        ("buckets", i (Obs.Sample.bucket_count s));
      ]
  | None -> ());
  (match t.timers with
  | Some tm -> Obs.Metrics.section m "host_timers" (Obs.Timers.to_json tm)
  | None -> ());
  m
