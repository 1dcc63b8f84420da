(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §3 and EXPERIMENTS.md).

   Usage:
     bench/main.exe                 run everything
     bench/main.exe fig5            one experiment
     bench/main.exe --scale 2 all   bigger workloads
     bench/main.exe virtual         write BENCH_virtual.json
     bench/main.exe perf            write BENCH_wallclock.json
   An unknown command or flag exits 2 before anything runs.
*)

module B = Workloads.Baselines
module F = Harness.Figures

let line () = Printf.printf "%s\n" (String.make 72 '-')

let header title paper =
  line ();
  Printf.printf "%s\n" title;
  Printf.printf "(paper: %s)\n" paper;
  line ()

(* ---------------- Table 1 ---------------- *)

(* Table 1 is about translation correctness: the push-eax sequence must
   keep ESP intact when the store faults. *)
let table1 () =
  header "Table 1: precise state for `push eax` with a faulting store"
    "correct code updates ESP only after the store; the incorrect\n\
     ordering would expose a decremented ESP to the handler";
  let open Ia32.Insn in
  let code =
    [
      Ia32.Asm.label "start";
      Ia32.Asm.i (Mov (S32, R Esp, I 0x30000000)); (* unmapped page *)
      Ia32.Asm.i (Mov (S32, R Eax, I 0x1234));
      Ia32.Asm.label "push";
      Ia32.Asm.i (Push (R Eax));
    ]
  in
  let image = Ia32.Asm.build ~code ~data:[] () in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let eng =
    Ia32el.Engine.create ~config:Ia32el.Config.cold_only
      ~btlib:(module Btlib.Linuxsim) mem
  in
  (match Ia32el.Engine.run ~fuel:100_000 eng st with
  | Ia32el.Engine.Unhandled_fault (Ia32.Fault.Page_fault (a, Ia32.Fault.Write), fst)
    ->
    Printf.printf "fault     : #PF write at 0x%08x\n" a;
    Printf.printf "EIP       : 0x%08x (%s)\n" fst.Ia32.State.eip
      (if fst.Ia32.State.eip = image.Ia32.Asm.lookup "push" then
         "the faulting push — precise" else "IMPRECISE");
    Printf.printf "ESP       : 0x%08x (%s)\n"
      (Ia32.State.get32 fst Esp)
      (if Ia32.State.get32 fst Esp = 0x30000000 then
         "pre-push value — the CORRECT translation of Table 1"
       else "decremented — the INCORRECT translation of Table 1");
    Printf.printf "EAX       : 0x%08x\n" (Ia32.State.get32 fst Eax)
  | _ -> Printf.printf "unexpected outcome\n");
  Printf.printf "\n"

(* ---------------- Figure 5 ---------------- *)

let fig5 ~scale () =
  header "Figure 5: SPEC CPU2000 INT, IA-32 EL relative to native Itanium"
    "gzip 86, vpr 69, gcc 51, mcf 104, crafty 39, parser 81, eon 41,\n\
     perlbmk 64, gap 62, vortex 60, bzip2 74, twolf 76 — GeoMean 65";
  Printf.printf "%-10s %12s %12s %9s %9s\n" "benchmark" "EL cycles"
    "native cyc" "score" "paper";
  let rows, geomean = F.fig5 ~scale () in
  List.iter
    (fun (r : F.fig5_row) ->
      Printf.printf "%-10s %12d %12d %8.0f%% %8s\n" r.F.name r.F.el_cycles
        r.F.native_cycles r.F.score
        (match r.F.paper with Some p -> Printf.sprintf "%d%%" p | None -> "-"))
    rows;
  Printf.printf "%-10s %12s %12s %8.0f%% %8s\n" "GeoMean" "" "" geomean "65%";
  Printf.printf "\n"

(* ---------------- Figures 6 and 7 ---------------- *)

let pp_dist (h, c, o, x, i) =
  Printf.printf "  hot      %5.1f%%\n  cold     %5.1f%%\n  overhead %5.1f%%\n" h c o;
  Printf.printf "  other    %5.1f%%\n  idle     %5.1f%%\n" x i

let fig6 ~scale () =
  header "Figure 6: execution-time distribution, translated SPEC CPU2000"
    "hot 95%, cold 3%, overhead 1%, other 1%";
  pp_dist (F.fig6 ~scale ());
  Printf.printf "\n"

let fig7 ~scale () =
  header "Figure 7: execution-time distribution, Sysmark-like workload"
    "hot 46%, cold 5%, overhead 12%, other 22%, idle 15%";
  pp_dist (F.fig7 ~scale ());
  Printf.printf "\n"

(* ---------------- Figure 8 ---------------- *)

let fig8 ~scale () =
  header "Figure 8: IA-32 EL on 1.5GHz Itanium 2 vs 1.6GHz Xeon (wall clock)"
    "CPU2000 INT 105.0%, CPU2000 FP 132.6%, Sysmark 2002 98.9%";
  Printf.printf "%-14s %10s %10s\n" "suite" "measured" "paper";
  List.iter
    (fun (r : F.fig8_row) ->
      Printf.printf "%-14s %9.1f%% %9.1f%%\n" r.F.suite r.F.ratio r.F.paper8)
    (F.fig8 ~scale ());
  Printf.printf "\n"

(* ---------------- §5 misalignment anecdote ---------------- *)

let misalign ~scale () =
  header "§5 anecdote: misalignment detection and avoidance"
    "one workload went from 1236 s to 133 s (~9.3x) with the machinery";
  let off, on_ = F.misalign_anecdote ~scale () in
  Printf.printf "machinery off : %10d cycles\n" off;
  Printf.printf "machinery on  : %10d cycles\n" on_;
  Printf.printf "speedup       : %9.1fx\n\n"
    (Float.of_int off /. Float.of_int (max 1 on_))

(* ---------------- §2/§5 scalar statistics ---------------- *)

let stats ~scale () =
  header "Scalar statistics (paper §2 and §5)"
    "cold blocks 4-5 insns; hot ~20; 5-10% of blocks heat; hot translation\n\
     ~20x cold per insn; ~1 commit point per 10 native insns; 95% of time\n\
     in hot code on SPEC; speculation checks succeed 99-100%";
  let s = F.stats ~scale () in
  Printf.printf "IA-32 insns per cold block      : %5.1f   (paper 4-5)\n"
    s.F.cold_block_insns;
  Printf.printf "IA-32 insns per hot block       : %5.1f   (paper ~20)\n"
    s.F.hot_block_insns;
  Printf.printf "cold blocks that heat           : %5.1f%%  (paper 5-10%%)\n"
    s.F.pct_blocks_heated;
  Printf.printf "hot/cold translation cost ratio : %5.1fx  (paper ~20x)\n"
    s.F.hot_cold_overhead_ratio;
  Printf.printf "native insns per commit point   : %5.1f   (paper ~10)\n"
    s.F.native_insns_per_commit;
  Printf.printf "time in hot code (SPEC)         : %5.1f%%  (paper ~95%%)\n"
    s.F.hot_time_pct;
  Printf.printf "speculation checks executed     : %d\n" s.F.spec_checks;
  Printf.printf "speculation misses              : %d\n" s.F.spec_misses;
  Printf.printf "speculation success             : %5.2f%% (paper 99-100%%)\n\n"
    s.F.spec_success

(* ---------------- hardware-circuitry comparison ---------------- *)

let circuitry ~scale () =
  header "IA-32 EL vs the IA-32 hardware circuitry on Itanium"
    "\"IA-32 EL ... can accelerate IA-32 application performance compared\n\
     to the existing hardware solution\" (paper §1)";
  Printf.printf "%-10s %12s %12s %9s\n" "benchmark" "EL cycles" "circuitry"
    "speedup";
  let speedups =
    List.map
      (fun w ->
        let el = B.run_el w ~scale in
        let hw = B.run_circuitry w ~scale in
        let sp = Float.of_int hw.B.cycles /. Float.of_int el.B.cycles in
        Printf.printf "%-10s %12d %12d %8.2fx\n" w.Workloads.Common.name
          el.B.cycles hw.B.cycles sp;
        sp)
      Workloads.Spec_int.all
  in
  let geo =
    Float.exp
      (List.fold_left (fun a x -> a +. Float.log x) 0.0 speedups
      /. Float.of_int (List.length speedups))
  in
  Printf.printf "%-10s %12s %12s %8.2fx\n\n" "GeoMean" "" "" geo

(* ---------------- ablations ---------------- *)

let ablations ~scale () =
  header "Ablations of the paper's design choices"
    "two-phase vs cold-only; instrumented-cold vs interpret-first first\n\
     phase; scheduling; EFLAGS elimination; misalignment machinery;\n\
     FP/MMX/SSE speculation";
  let subset =
    [
      Workloads.Spec_int.gzip; Workloads.Spec_int.vpr; Workloads.Spec_int.mcf;
      Workloads.Spec_int.crafty; Workloads.Spec_int.twolf;
      Workloads.Spec_fp.swim; Workloads.Spec_fp.equake;
    ]
  in
  let total config =
    List.fold_left
      (fun acc w -> acc + (B.run_el ~config w ~scale).B.cycles)
      0 subset
  in
  let base = total Ia32el.Config.default in
  let show name config =
    let t = total config in
    Printf.printf "%-34s %12d cycles  %+6.1f%%\n" name t
      (100.0 *. Float.of_int (t - base) /. Float.of_int base)
  in
  Printf.printf "%-34s %12d cycles  (baseline)\n" "full IA-32 EL" base;
  show "cold-only (no second phase)" Ia32el.Config.cold_only;
  show "interpret-first first phase"
    { Ia32el.Config.default with Ia32el.Config.first_phase = Ia32el.Config.Interpret_first };
  show "no hot-code scheduling"
    { Ia32el.Config.default with Ia32el.Config.enable_scheduling = false };
  show "no control-speculative loads"
    { Ia32el.Config.default with Ia32el.Config.enable_control_spec = false };
  show "no EFLAGS elimination"
    { Ia32el.Config.default with Ia32el.Config.enable_flag_elim = false };
  show "no address CSE"
    { Ia32el.Config.default with Ia32el.Config.enable_cse = false };
  show "no misalignment avoidance"
    { Ia32el.Config.default with Ia32el.Config.misalign_avoidance = false };
  show "no if-conversion"
    { Ia32el.Config.default with Ia32el.Config.enable_predication = false };
  show "no loop unrolling"
    { Ia32el.Config.default with Ia32el.Config.enable_unroll = false };
  show "no FP/MMX/SSE speculation checks"
    { Ia32el.Config.default with
      Ia32el.Config.fp_stack_speculation = false;
      mmx_mode_speculation = false;
      sse_format_speculation = false };
  Printf.printf "\n"

(* ---------------- deterministic virtual-cycle suite (virtual) ---------- *)

let virtual_file = "BENCH_virtual.json"

(* The perf-regression gate's artifact: every field is a deterministic
   virtual-cycle counter — a function of guest image and configuration
   only, never of the host — so CI can diff a fresh run against the
   committed baseline at tolerance 0 (`ia32el-report --diff
   --fail-on-regression`). Wall-clock numbers live in BENCH_wallclock.json
   and are deliberately absent here. *)
let virtual_report ~scale () =
  let m = Obs.Metrics.make ~schema:"ia32el-virtual/1" in
  Obs.Metrics.section m "meta" [ ("scale", Obs.Metrics.Int scale) ];
  List.iter
    (fun w ->
      let r = B.run_el w ~scale in
      let i n = Obs.Metrics.Int n in
      let fields =
        [ ("cycles", i r.B.cycles); ("exit_code", i r.B.exit_code) ]
        @ (match r.B.distribution with
          | Some d ->
            [
              ("cycles_hot", i d.Ia32el.Account.hot);
              ("cycles_cold", i d.Ia32el.Account.cold);
              ("cycles_overhead", i d.Ia32el.Account.overhead);
              ("cycles_other", i d.Ia32el.Account.other);
              ("cycles_idle", i d.Ia32el.Account.idle);
            ]
          | None -> [])
        @
        match r.B.engine with
        | Some e ->
          List.map
            (fun (k, v) -> (k, i v))
            (Obs.Metrics.counters (Ia32el.Engine.metrics e))
        | None -> []
      in
      Obs.Metrics.section m w.Workloads.Common.name fields)
    (List.filter
       (fun w ->
         w.Workloads.Common.name
         <> Workloads.Serve_echo.workload.Workloads.Common.name)
       (Workloads.Catalog.all ~threads:Workloads.Threads.default_workers));
  let oc = open_out virtual_file in
  Obs.Metrics.write m oc;
  close_out oc;
  Printf.printf "wrote %s\n" virtual_file

(* ---------------- wall-clock perf harness (perf) ---------------- *)

(* Unlike everything above (which reports *simulated* cycles), this
   measures host wall-clock cost of the simulator's layers one at a
   time: machine dispatch, guest memory, the reference interpreter with
   and without its decode cache, the lockstep tax, contended futexes,
   the fork server's snapshot/revert split and a serve session's
   per-request layers. Whole runs of the suite, the serving pool, the
   fork server and persisted tcaches are bench/e2e's. Numbers are
   host-dependent by nature: compare ratios and alternated runs, never
   absolutes from another host. *)

let wallclock_file = "BENCH_wallclock.json"

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Repeat [f] (returning a work-unit count) until [min_time] elapsed;
   units per second over the whole set of runs. *)
let rate ~min_time f =
  let units = ref 0.0 and elapsed = ref 0.0 and iters = ref 0 in
  while !elapsed < min_time || !iters < 2 do
    let t, u = wall f in
    elapsed := !elapsed +. t;
    units := !units +. u;
    incr iters
  done;
  !units /. !elapsed

let seconds_per ~min_time f =
  let elapsed = ref 0.0 and iters = ref 0 in
  while !elapsed < min_time || !iters < 2 do
    let t, _ = wall f in
    elapsed := !elapsed +. t;
    incr iters
  done;
  !elapsed /. Float.of_int !iters

(* Retired IA-32 instructions per wall second on the reference
   interpreter, decode cache on or off. *)
let interp_rate ~scale ~min_time ~cache =
  let w = Workloads.Spec_int.gzip in
  let image = w.Workloads.Common.build ~scale ~wide:false in
  rate ~min_time (fun () ->
      let mem = Ia32.Memory.create () in
      let st = Ia32.Asm.load image mem in
      Ia32.Icache.set_enabled st.Ia32.State.icache cache;
      let vos = Btlib.Vos.create mem in
      let _, insns =
        Ia32el.Refvehicle.run ~btlib:(module Btlib.Linuxsim) vos st
      in
      Float.of_int insns)

(* Host cost of [Ipf.Exec]'s per-group dispatch. Two synthetic tcaches
   hold the same 192 independent adds (ending in a branch back to the
   first), one with a stop bit after every slot and one after every 6th.
   Per slot they cost G + S and G / 6 + S, where G is the fixed cost of
   a group and S that of a slot. *)
type exec_costs = {
  group_ns : float;
  slot_ns : float;
  words_per_compiled_slot : float;
}

(* Independent adds: slot [k] writes one of six registers. *)
let add_slot k = Ipf.Insn.Add (16 + (k mod 6), 4, 5)

let synthetic_tcache ~op ~stop_every =
  let module I = Ipf.Insn in
  let tc = Ipf.Tcache.create () in
  let nb = 64 in
  for b = 0 to nb - 1 do
    let k s = (3 * b) + s in
    let slot s =
      if k s = (3 * nb) - 1 then I.mk (I.Br (I.To 0)) else I.mk (op (k s))
    in
    ignore
      (Ipf.Tcache.append tc
         {
           Ipf.Bundle.template = Ipf.Bundle.MII;
           slots = Array.init 3 slot;
           stops = Array.init 3 (fun s -> (k s + 1) mod stop_every = 0);
         })
  done;
  tc

(* A runner of [fuel] slots of a tcache from its first bundle, on a
   machine over [mem]. *)
let exec_runner ?(mem = Ia32.Memory.create ()) ~fuel tc =
  let m = Ipf.Machine.create mem tc in
  let x = Ipf.Exec.create m in
  ( m,
    fun () ->
      m.Ipf.Machine.ip <- 0;
      m.Ipf.Machine.slot <- 0;
      ignore (Ipf.Exec.run ~fuel x) )

(* Nanoseconds per unit of each runner (doing [units] units a run), runs
   alternated; the fastest run of each, as the host's other load only
   adds. *)
let best_ns ~min_time ~units runners =
  let best = Array.map (fun _ -> Float.infinity) runners in
  let elapsed = ref 0. in
  while !elapsed < min_time do
    Array.iteri
      (fun i f ->
        let t, () = wall f in
        elapsed := !elapsed +. t;
        best.(i) <- Float.min best.(i) t)
      runners
  done;
  Array.map (fun t -> 1e9 *. t /. Float.of_int units) best

(* Nanoseconds per slot of the two tcaches. *)
let ns_per_slot ~min_time =
  let fuel = 1_000_000 in
  let runner stop_every =
    snd (exec_runner ~fuel (synthetic_tcache ~op:add_slot ~stop_every))
  in
  match best_ns ~min_time ~units:fuel [| runner 1; runner 6 |] with
  | [| one; six |] -> (one, six)
  | _ -> assert false

(* Minor words one compiled slot allocates: compile the program at every
   bundle of a finished gzip run's tcache on a fresh cache. *)
let words_per_compiled_slot () =
  let r = B.run_el Workloads.Spec_int.gzip ~scale:1 in
  match r.B.engine with
  | None -> Float.nan
  | Some e ->
    let x = Ipf.Exec.create e.Ia32el.Engine.machine in
    let w0 = Gc.minor_words () in
    for b = 0 to Ipf.Tcache.length e.Ia32el.Engine.tcache - 1 do
      ignore (Ipf.Exec.compile_at x (3 * b))
    done;
    (Gc.minor_words () -. w0) /. Float.of_int (Ipf.Exec.compiled_slots x)

let exec_costs ~min_time =
  let one, six = ns_per_slot ~min_time in
  let group_ns = (one -. six) *. 6. /. 5. in
  {
    group_ns;
    slot_ns = one -. group_ns;
    words_per_compiled_slot = words_per_compiled_slot ();
  }

let print_exec_costs c =
  Printf.printf
    "machine dispatch           : %.1f ns/group, %.1f ns/slot, %.1f minor \
     words/compiled slot\n"
    c.group_ns c.slot_ns c.words_per_compiled_slot

(* Host cost of guest memory access on fixed store-heavy code. Engine:
   tcaches of the [synthetic_tcache] shape, a stop bit after every 6th
   slot, whose slots are all 4-byte stores, all 4-byte loads or all adds
   (the floor), through four address registers pointing into four
   mapped pages; ns per slot. Reference interpreter: an IA-32 loop of
   four 4-byte stores, two loads, a decrement and a branch; ns per
   step, decode cache on. *)
type guest_memory = {
  gm_store_ns : float;
  gm_load_ns : float;
  gm_add_ns : float;
  gm_step_ns : float;
}

let guest_memory_costs ~min_time =
  let module I = Ipf.Insn in
  let fuel = 1_000_000 in
  let base p = 0x10000 + (p * Ia32.Memory.page_size) + (p * 16) in
  let runner op =
    let mem = Ia32.Memory.create () in
    Ia32.Memory.map mem ~addr:0x10000 ~len:(4 * Ia32.Memory.page_size)
      ~prot:Ia32.Memory.prot_rw;
    let m, run = exec_runner ~mem ~fuel (synthetic_tcache ~op ~stop_every:6) in
    for p = 0 to 3 do
      Ipf.Machine.set m (4 + p) (Int64.of_int (base p))
    done;
    run
  in
  let engine =
    best_ns ~min_time ~units:fuel
      [|
        runner (fun k -> I.St (4, 4 + (k mod 4), 16 + (k mod 6)));
        runner (fun k -> I.Ld (4, I.Ld_none, 16 + (k mod 6), 4 + (k mod 4)));
        runner add_slot;
      |]
  in
  let image =
    let open Ia32.Insn in
    let a = Ia32.Asm.i in
    let at d = M (mem_bd Ebx d) in
    Ia32.Asm.build
      ~code:
        Ia32.Asm.
          [
            label "start";
            a (Mov (S32, R Esi, I 20_000));
            mov_ri_lab Ebx "buf";
            label "loop";
            a (Mov (S32, at 0, R Esi));
            a (Mov (S32, at 4, R Esi));
            a (Mov (S32, at 8, R Eax));
            a (Mov (S32, at 12, R Eax));
            a (Mov (S32, R Eax, at 0));
            a (Alu (Add, S32, R Eax, at 8));
            a (Dec (S32, R Esi));
            jcc Ne "loop";
            a (Mov (S32, R Eax, I 1));
            a (Mov (S32, R Ebx, I 0));
            a (Int_n 0x80);
          ]
      ~data:Ia32.Asm.[ label "buf"; space 64 ]
      ()
  in
  let steps = ref 0 in
  let interp () =
    let mem = Ia32.Memory.create () in
    let st = Ia32.Asm.load image mem in
    let _, n =
      Ia32el.Refvehicle.run ~btlib:(module Btlib.Linuxsim)
        (Btlib.Vos.create mem) st
    in
    steps := n
  in
  interp ();
  let step = best_ns ~min_time ~units:!steps [| interp |] in
  {
    gm_store_ns = engine.(0);
    gm_load_ns = engine.(1);
    gm_add_ns = engine.(2);
    gm_step_ns = step.(0);
  }

let print_guest_memory g =
  Printf.printf
    "guest memory               : %.1f ns/4-byte store, %.1f ns/4-byte load \
     (%.1f ns/add slot), %.1f ns/interpreter step\n"
    g.gm_store_ns g.gm_load_ns g.gm_add_ns g.gm_step_ns

let guest_memory_json g =
  Obs.Metrics.(
    Obj
      [
        ("store4_ns", Float g.gm_store_ns);
        ("load4_ns", Float g.gm_load_ns);
        ("add_ns", Float g.gm_add_ns);
        ("interp_step_ns", Float g.gm_step_ns);
      ])

(* Per-input layers of the fork server, in process: [bases] generated
   programs, each serving its base input and then [per_base] mutated
   ones the way [Fuzz.server_run] does: [Lockstep.snapshot] (push), the
   pair runs in lockstep (run), [Lockstep.revert] (revert). Host
   milliseconds per input for each phase and major collections per 1000
   inputs come from one pass; a second pass over the same inputs counts
   the pages each commit point's memory compare examines (the pages on
   either dirty list, outside the profile arena). *)
type forkserver_split = {
  fsp_inputs : int;
  fsp_push_ms : float;
  fsp_run_ms : float;
  fsp_revert_ms : float;
  fsp_pages_per_commit : float;
  fsp_major_per_1000 : float;
}

let forkserver_split ~bases ~per_base =
  let module F = Harness.Fuzz in
  let module L = Ia32el.Lockstep in
  let module E = Ia32el.Engine in
  let module M = Ia32.Memory in
  let arena p =
    p >= Ia32el.Block.arena_base lsr M.page_bits
    && p < (Ia32el.Block.arena_base + Ia32el.Block.arena_size) lsr M.page_bits
  in
  let pass ~count =
    let rng = F.Rng.create 5 and mrng = F.Rng.create 13 in
    let push = ref 0. and run = ref 0. and revert = ref 0. in
    let pages = ref 0 and commits = ref 0 and inputs = ref 0 in
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    for b = 0 to bases - 1 do
      let image = F.build_image (F.generate ~rng ~max_insns:32 b) in
      let mem = M.create () in
      let st0 = Ia32.Asm.load ~writable_code:true image mem in
      let rmem = ref mem in
      let attach (e : E.t) =
        if count then
          e.E.on_commit <-
            Some
              (fun _ _ ->
                let listed =
                  List.sort_uniq compare (M.Dirty.pages e.E.mem @ M.Dirty.pages !rmem)
                in
                pages := !pages + List.length (List.filter (fun p -> not (arena p)) listed);
                incr commits)
      in
      let s = L.create ~attach ~btlib:(module Btlib.Linuxsim) mem st0 in
      rmem := L.reference_mem s;
      let e = L.engine s in
      for i = 0 to per_base do
        let muts =
          if i = 0 then []
          else
            List.init
              (1 + F.Rng.int mrng 32)
              (fun _ -> (F.Rng.int mrng F.mutation_span, F.Rng.int mrng 256))
        in
        let tp, () = wall (fun () -> L.snapshot s) in
        List.iter
          (fun (off, v) ->
            let a = F.scratch_base + (off mod F.mutation_span) in
            M.write8 e.E.mem a (v land 0xFF);
            M.write8 !rmem a (v land 0xFF))
          muts;
        let tr, _ = wall (fun () -> L.run_in ~fuel:12_000_000 s) in
        let tv, () = wall (fun () -> L.revert s) in
        push := !push +. tp;
        run := !run +. tr;
        revert := !revert +. tv;
        incr inputs
      done
    done;
    let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
    let per x = 1e3 *. x /. Float.of_int !inputs in
    {
      fsp_inputs = !inputs;
      fsp_push_ms = per !push;
      fsp_run_ms = per !run;
      fsp_revert_ms = per !revert;
      fsp_pages_per_commit = Float.of_int !pages /. Float.of_int (max 1 !commits);
      fsp_major_per_1000 = 1e3 *. Float.of_int majors /. Float.of_int !inputs;
    }
  in
  let timed = pass ~count:false in
  let counted = pass ~count:true in
  { timed with fsp_pages_per_commit = counted.fsp_pages_per_commit }

let print_forkserver_split s =
  Printf.printf
    "fork-server per input (%d inputs): %.3f ms push, %.3f ms run, %.3f ms \
     revert, %.1f pages compared per commit, %.0f major GCs per 1000 inputs\n"
    s.fsp_inputs s.fsp_push_ms s.fsp_run_ms s.fsp_revert_ms
    s.fsp_pages_per_commit s.fsp_major_per_1000

let forkserver_split_json s =
  Obs.Metrics.(
    Obj
      [
        ("inputs", Int s.fsp_inputs);
        ("push_ms", Float s.fsp_push_ms);
        ("run_ms", Float s.fsp_run_ms);
        ("revert_ms", Float s.fsp_revert_ms);
        ("pages_compared_per_commit", Float s.fsp_pages_per_commit);
        ("major_collections_per_1000_inputs", Float s.fsp_major_per_1000);
      ])

(* Per-request layers of one serving worker, in process, on the
   serve-echo guest with a shared read-only AOT tcache: one session,
   rewound after every request, serves [requests] requests. Host
   milliseconds per request for the one instance build, the run
   (metrics JSON included) and the rewind; block programs compiled per
   request from the second request on (the first compiles every
   program, later ones take them back by content). *)
type serve_layers = {
  sl_requests : int;
  sl_build_ms : float;
  sl_run_ms : float;
  sl_revert_ms : float;
  sl_compiles : float; (* program compiles per request after the first *)
}

let serve_session_rows ~requests =
  let payload = "GET /index.html HTTP/1.0\r\nHost: ia32el\r\n\r\n" in
  let w = Workloads.Serve_echo.workload in
  let image = w.Workloads.Common.build ~scale:1 ~wide:false in
  let tc = Filename.temp_file "ia32el-bench-session" ".tc" in
  ignore (Serve.compile_tcache ~path:tc ~scale:1 ~payload ());
  let config = Ia32el.Config.default in
  let store, _ =
    Persist.load ~path:tc ~image_hash:(Persist.image_hash image)
      ~config_fp:(Persist.config_fingerprint config)
  in
  List.iter
    (fun s -> try Sys.remove s with Sys_error _ -> ())
    [ tc; tc ^ ".lock" ];
  let ms f =
    let t, r = wall f in
    (1e3 *. t, r)
  in
  let build, (inst, pse, se) =
    ms (fun () ->
        let inst = Ia32el.Instance.create ~config image in
        let pse = Persist.attach ~readonly:true store inst.Ia32el.Instance.eng in
        (inst, pse, Ia32el.Instance.session inst))
  in
  let compiled () =
    Ipf.Exec.compiled inst.Ia32el.Instance.eng.Ia32el.Engine.exec
  in
  let run = ref 0. and revert = ref 0. and compiles = ref 0 in
  for k = 0 to requests - 1 do
    let c0 = compiled () in
    Persist.restart pse;
    let r, () =
      ms (fun () ->
          ignore (Ia32el.Instance.run ~request:payload inst);
          ignore (Obs.Metrics.to_string (Ia32el.Instance.metrics inst)))
    in
    if k > 0 then compiles := !compiles + compiled () - c0;
    let v, () = ms (fun () -> Ia32el.Instance.rewind se) in
    run := !run +. r;
    revert := !revert +. v
  done;
  let per x = x /. Float.of_int requests in
  {
    sl_requests = requests;
    sl_build_ms = per build;
    sl_run_ms = per !run;
    sl_revert_ms = per !revert;
    sl_compiles = Float.of_int !compiles /. Float.of_int (max 1 (requests - 1));
  }

let perf ~scale ~min_time () =
  header "Wall-clock cost of the simulator's layers, one at a time"
    "host-dependent; each row times one layer through the library path,\n\
     so a fast-path regression shows as that row's ns or ratio";
  let dispatch = exec_costs ~min_time in
  let gmem = guest_memory_costs ~min_time in
  let interp_cached = interp_rate ~scale ~min_time ~cache:true in
  let interp_uncached = interp_rate ~scale ~min_time ~cache:false in
  (* the plain run also gives the machine core's slots per second *)
  let slots = ref 0 in
  let el_s =
    seconds_per ~min_time (fun () ->
        let r = B.run_el Workloads.Spec_int.gzip ~scale in
        Option.iter
          (fun e ->
            slots :=
              e.Ia32el.Engine.machine.Ipf.Machine.stats.Ipf.Machine.slots_retired)
          r.B.engine)
  in
  let slots_per_s = Float.of_int !slots /. el_s in
  let lock_s =
    seconds_per ~min_time (fun () ->
        Harness.Resilience.run ~lockstep:true Workloads.Spec_int.gzip ~scale)
  in
  let fs_split = forkserver_split ~bases:32 ~per_base:50 in
  (* contended futex: every consumer the scheduler allows (8) fighting
     over one 8-slot ring — the futex wait/wake and context-switch hot
     path, measured in simulated guest cycles retired per wall second *)
  let futex_w = Workloads.Threads.producer_consumer ~workers:8 in
  let futex_switches = ref 0 in
  let futex_cps =
    rate ~min_time (fun () ->
        let r = B.run_el futex_w ~scale in
        (match r.B.engine with
        | Some e ->
          futex_switches :=
            e.Ia32el.Engine.vos.Btlib.Vos.context_switches
        | None -> ());
        Float.of_int r.B.cycles)
  in
  let session = serve_session_rows ~requests:200 in
  let interp_speedup = interp_cached /. interp_uncached in
  let lock_factor = lock_s /. el_s in
  Printf.printf "machine core               : %8.2f Mslots/s\n"
    (slots_per_s /. 1e6);
  print_exec_costs dispatch;
  print_guest_memory gmem;
  Printf.printf "interpreter, decode cache   : %8.2f Minsns/s\n"
    (interp_cached /. 1e6);
  Printf.printf "interpreter, re-decoding    : %8.2f Minsns/s\n"
    (interp_uncached /. 1e6);
  Printf.printf "  decode-cache speedup      : %8.2fx\n" interp_speedup;
  Printf.printf "lockstep overhead factor    : %8.2fx (%.3fs vs %.3fs)\n"
    lock_factor lock_s el_s;
  print_forkserver_split fs_split;
  Printf.printf
    "contended futex (%s, 8 workers + producer): %.2f Mcycles/s, %d context \
     switches/run\n"
    futex_w.Workloads.Common.name
    (futex_cps /. 1e6)
    !futex_switches;
  Printf.printf
    "serve session per request (%d requests): %.3f ms build, %.3f ms run, \
     %.3f ms rewind, %.1f program compiles\n"
    session.sl_requests session.sl_build_ms
    session.sl_run_ms session.sl_revert_ms session.sl_compiles;
  let finite x = Float.is_finite x && x > 0.0 in
  if
    not
      (List.for_all finite
         [
           slots_per_s; dispatch.slot_ns; dispatch.words_per_compiled_slot;
           gmem.gm_store_ns; gmem.gm_load_ns; gmem.gm_step_ns;
           interp_cached; interp_uncached; lock_factor; fs_split.fsp_run_ms;
           futex_cps; session.sl_run_ms;
         ])
  then begin
    Printf.eprintf "perf: non-finite or non-positive measurement\n";
    exit 1
  end;
  let open Obs.Metrics in
  let report =
    Obj
      [
        ("schema", Str "ia32el-wallclock/7");
        ("scale", Int scale);
        ("host_dependent", Str "true");
        ( "machine",
          Obj
            [
              ("slots_per_s", Float slots_per_s);
              ("group_ns", Float dispatch.group_ns);
              ("slot_ns", Float dispatch.slot_ns);
              ("words_per_compiled_slot", Float dispatch.words_per_compiled_slot);
            ] );
        ("guest_memory", guest_memory_json gmem);
        ( "interpreter",
          Obj
            [
              ("cached_insns_per_s", Float interp_cached);
              ("uncached_insns_per_s", Float interp_uncached);
              ("speedup", Float interp_speedup);
            ] );
        ( "lockstep",
          Obj
            [
              ("plain_s_per_run", Float el_s);
              ("lockstep_s_per_run", Float lock_s);
              ("overhead_factor", Float lock_factor);
            ] );
        ("forkserver_split", forkserver_split_json fs_split);
        ( "futex_contended",
          Obj
            [
              ("workload", Str futex_w.Workloads.Common.name);
              ("guest_threads", Int 9);
              ("guest_cycles_per_s", Float futex_cps);
              ("context_switches_per_run", Int !futex_switches);
            ] );
        ( "serve_session",
          Obj
            [
              ("requests", Int session.sl_requests);
              ("instance_build_ms", Float session.sl_build_ms);
              ("run_ms", Float session.sl_run_ms);
              ("revert_ms", Float session.sl_revert_ms);
              ("group_compiles_after_first", Float session.sl_compiles);
            ] );
      ]
  in
  let oc = open_out wallclock_file in
  output_string oc (json_to_string report);
  close_out oc;
  Printf.printf "wrote %s\n" wallclock_file

(* ---------------- driver ---------------- *)

let () =
  let scale = ref 1 in
  let min_time = ref 0.3 in
  let rec parse = function
    | "--scale" :: n :: rest ->
      scale := int_of_string n;
      parse rest
    | "--min-time" :: t :: rest ->
      min_time := float_of_string t;
      parse rest
    | x :: rest -> x :: parse rest
    | [] -> []
  in
  let cmds = parse (List.tl (Array.to_list Sys.argv)) in
  let scale = !scale in
  let min_time = !min_time in
  let figures =
    [
      ("table1", table1);
      ("fig5", fig5 ~scale);
      ("fig6", fig6 ~scale);
      ("fig7", fig7 ~scale);
      ("fig8", fig8 ~scale);
      ("misalign", misalign ~scale);
      ("stats", stats ~scale);
      ("circuitry", circuitry ~scale);
      ("ablations", ablations ~scale);
    ]
  in
  let all () = List.iter (fun (_, f) -> f ()) figures in
  let commands =
    figures
    @ [
        ("perf", perf ~scale ~min_time);
        ( "forkserver",
          fun () ->
            print_forkserver_split (forkserver_split ~bases:32 ~per_base:50) );
        ("virtual", virtual_report ~scale);
        ("all", all);
      ]
  in
  (* an unknown word (a misspelt command or a flag this driver lacks)
     fails before anything runs *)
  match List.filter (fun c -> not (List.mem_assoc c commands)) cmds with
  | [] -> if cmds = [] then all () else List.iter (fun c -> List.assoc c commands ()) cmds
  | unknown ->
    List.iter (Printf.eprintf "unknown command or flag %S\n") unknown;
    exit 2
