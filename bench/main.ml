(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §3 and EXPERIMENTS.md).

   Usage:
     bench/main.exe                 run everything
     bench/main.exe fig5            one experiment
     bench/main.exe --scale 2 all   bigger workloads
     bench/main.exe --json          write BENCH_results.json (no text report)
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

(* ---------------- machine-readable report (--json) ---------------- *)

let json_file = "BENCH_results.json"

let json_report ~scale () =
  let open Obs.Metrics in
  let rows, geomean = F.fig5 ~scale () in
  let fig5_json =
    Obj
      [
        ("geomean", Float geomean);
        ( "rows",
          List
            (List.map
               (fun (r : F.fig5_row) ->
                 Obj
                   [
                     ("name", Str r.F.name);
                     ("el_cycles", Int r.F.el_cycles);
                     ("native_cycles", Int r.F.native_cycles);
                     ("score", Float r.F.score);
                     ( "paper",
                       match r.F.paper with Some p -> Int p | None -> Null );
                   ])
               rows) );
      ]
  in
  let dist (h, c, o, x, i) =
    Obj
      [
        ("hot", Float h); ("cold", Float c); ("overhead", Float o);
        ("other", Float x); ("idle", Float i);
      ]
  in
  let fig8_json =
    List
      (List.map
         (fun (r : F.fig8_row) ->
           Obj
             [
               ("suite", Str r.F.suite); ("ratio", Float r.F.ratio);
               ("paper", Float r.F.paper8);
             ])
         (F.fig8 ~scale ()))
  in
  let off, on_ = F.misalign_anecdote ~scale () in
  let s = F.stats ~scale () in
  let stats_json =
    Obj
      [
        ("cold_block_insns", Float s.F.cold_block_insns);
        ("hot_block_insns", Float s.F.hot_block_insns);
        ("pct_blocks_heated", Float s.F.pct_blocks_heated);
        ("hot_cold_overhead_ratio", Float s.F.hot_cold_overhead_ratio);
        ("native_insns_per_commit", Float s.F.native_insns_per_commit);
        ("hot_time_pct", Float s.F.hot_time_pct);
        ("spec_checks", Int s.F.spec_checks);
        ("spec_misses", Int s.F.spec_misses);
        ("spec_success", Float s.F.spec_success);
      ]
  in
  let workload_json w =
    let r = B.run_el w ~scale in
    let fields =
      [ ("cycles", Int r.B.cycles) ]
      @ (match r.B.distribution with
        | Some d ->
          [
            ( "distribution",
              Obj
                [
                  ("hot", Int d.Ia32el.Account.hot);
                  ("cold", Int d.Ia32el.Account.cold);
                  ("overhead", Int d.Ia32el.Account.overhead);
                  ("other", Int d.Ia32el.Account.other);
                  ("idle", Int d.Ia32el.Account.idle);
                  ("total", Int d.Ia32el.Account.total);
                ] );
          ]
        | None -> [])
      @
      match r.B.engine with
      | Some e ->
        [
          ( "counters",
            Obj
              (List.map
                 (fun (k, v) -> (k, Int v))
                 (counters (Ia32el.Engine.metrics e))) );
        ]
      | None -> []
    in
    (w.Workloads.Common.name, Obj fields)
  in
  let report =
    Obj
      [
        ("schema", Str "ia32el-bench/1");
        ("scale", Int scale);
        ("fig5", fig5_json);
        ("fig6", dist (F.fig6 ~scale ()));
        ("fig7", dist (F.fig7 ~scale ()));
        ("fig8", fig8_json);
        ("misalign", Obj [ ("off_cycles", Int off); ("on_cycles", Int on_) ]);
        ("stats", stats_json);
        ( "workloads",
          Obj
            (List.map workload_json
               (Workloads.Spec_int.all
               @ Workloads.Threads.all
                   ~workers:Workloads.Threads.default_workers)) );
      ]
  in
  let oc = open_out json_file in
  output_string oc (json_to_string report);
  close_out oc;
  Printf.printf "wrote %s\n" json_file

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
    (Workloads.Spec_int.all @ Workloads.Spec_fp.all
    @ [ Workloads.Sysmark.office; Workloads.Sysmark.misalign_stress ]
    @ Workloads.Threads.all ~workers:Workloads.Threads.default_workers);
  let oc = open_out virtual_file in
  Obs.Metrics.write m oc;
  close_out oc;
  Printf.printf "wrote %s\n" virtual_file

(* ---------------- wall-clock perf harness (perf) ---------------- *)

(* Unlike everything above (which reports *simulated* cycles), this
   measures host wall-clock throughput of the simulator itself: the
   machine core, the reference interpreter with and without its decode
   cache, the lockstep tax and the fuzzer's program rate. Numbers are
   host-dependent by nature; the JSON snapshot records them next to
   pre-change baselines so a regression shows up as a ratio, not an
   absolute. *)

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

(* Simulated machine slots retired per wall second under [config]. *)
let machine_rate ~scale ~min_time config =
  rate ~min_time (fun () ->
      let r = B.run_el ~config Workloads.Spec_int.gzip ~scale in
      match r.B.engine with
      | Some e ->
        Float.of_int
          e.Ia32el.Engine.machine.Ipf.Machine.stats.Ipf.Machine.slots_retired
      | None -> 0.0)

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

let fuzz_rate ~min_time =
  rate ~min_time (fun () ->
      let cfg =
        {
          Harness.Fuzz.default_campaign with
          Harness.Fuzz.seed = 7;
          runs = 10;
          inject_seeds = [];
          shrink_findings = false;
          corpus_dir = None;
          log = ignore;
        }
      in
      Float.of_int (Harness.Fuzz.campaign cfg).Harness.Fuzz.executions)

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

(* Fork-server inputs per wall second: one persistent session, inputs
   served by snapshot / mutate / run / revert with warm translations.
   Same work unit as [fuzz_rate] (lockstep-checked programs), so the
   ratio against the committed lockstep_programs_per_s baseline is the
   fork-server's acceptance multiple. *)
let forkserver_rate ~min_time =
  let module F = Harness.Fuzz in
  let gen_rng = F.Rng.create 7 in
  let prog = F.generate ~rng:gen_rng ~max_insns:32 7 in
  let srv = F.server_start prog in
  let mrng = F.Rng.create 11 in
  rate ~min_time (fun () ->
      let n = 16 in
      for _ = 1 to n do
        let muts =
          List.init
            (1 + F.Rng.int mrng 48)
            (fun _ -> (F.Rng.int mrng F.mutation_span, F.Rng.int mrng 256))
        in
        ignore (F.server_run srv muts)
      done;
      Float.of_int n)

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

(* Persistent-cache wall-clock rows: seconds per run cold (no cache),
   warm (every translation installed from a recorded file) and from an
   AOT-compiled file (static sweep + one training run). Also reports the
   simulated-cycle view: the fraction of the run's cold-phase translation
   cycles whose host-side work a warm start eliminates. *)
let persist_rates ~scale ~min_time =
  let w = Workloads.Spec_int.gzip in
  let config = Ia32el.Config.default in
  let image = w.Workloads.Common.build ~scale ~wide:false in
  let image_hash = Persist.image_hash image in
  let config_fp = Persist.config_fingerprint config in
  let record_to path store =
    (try Sys.remove path with Sys_error _ -> ());
    (try Sys.remove (path ^ ".lock") with Sys_error _ -> ());
    match Persist.save store ~path with
    | [] -> ()
    | d :: _ ->
      Printf.eprintf "perf: tcache save failed: %s\n"
        (Ia32el.Bt_error.to_string d);
      exit 1
  in
  (* a warm-start file recorded by one full run *)
  let warm_path = Filename.temp_file "ia32el-bench-warm" ".tc" in
  let store = Persist.create_store ~image_hash ~config_fp in
  ignore
    (B.run_el ~config
       ~attach:(fun e -> ignore (Persist.attach store e))
       w ~scale);
  record_to warm_path store;
  (* an AOT file: static sweep plus one training run, as ia32el-compile
     --train builds *)
  let aot_path = Filename.temp_file "ia32el-bench-aot" ".tc" in
  let aot_store = Persist.create_store ~image_hash ~config_fp in
  (let mem = Ia32.Memory.create () in
   let _st = Ia32.Asm.load image mem in
   let eng =
     Ia32el.Engine.create ~config ~btlib:(module Btlib.Linuxsim) mem
   in
   let se = Persist.attach aot_store eng in
   let lo = image.Ia32.Asm.code_base in
   let hi = lo + String.length image.Ia32.Asm.code in
   ignore
     (Persist.sweep se
        ~roots:(image.Ia32.Asm.entry :: List.map snd image.Ia32.Asm.labels)
        ~lo ~hi));
  ignore
    (B.run_el ~config
       ~attach:(fun e -> ignore (Persist.attach aot_store e))
       w ~scale);
  record_to aot_path aot_store;
  let cold_s = seconds_per ~min_time (fun () -> B.run_el ~config w ~scale) in
  let eliminated_fraction = ref 0.0 in
  let run_from path =
    let st, _ = Persist.load ~path ~image_hash ~config_fp in
    let sref = ref None in
    let r =
      B.run_el ~config
        ~attach:(fun e -> sref := Some (Persist.attach ~readonly:true st e))
        w ~scale
    in
    (match (!sref, r.B.engine) with
    | Some se, Some eng ->
      let s = Persist.stats se in
      let total =
        eng.Ia32el.Engine.acct.Ia32el.Account.cold_insns
        * Ipf.Cost.default.Ipf.Cost.cold_translate_per_insn
      in
      if total > 0 then
        eliminated_fraction :=
          Float.of_int s.Persist.eliminated_cold_cycles /. Float.of_int total
    | _ -> ());
    r
  in
  let warm_s = seconds_per ~min_time (fun () -> run_from warm_path) in
  let aot_s = seconds_per ~min_time (fun () -> run_from aot_path) in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ warm_path; aot_path ];
  (cold_s, warm_s, aot_s, !eliminated_fraction)

(* Serving-pool wall-clock rows: open-loop load over forked workers
   sharing one read-only AOT tcache (the ia32el-serve configuration).
   The generator's arrival rate is calibrated from a short warm batch to
   ~70% of pool capacity — enough queueing for the tail percentiles to
   mean something without saturating into mass rejection. Every served
   request must install all its translations from the shared store; a
   single live retranslation fails the run. Also times the layer most of
   a request's service is spent in: [Instance.create] of the guest. *)
let serve_rates ~min_time =
  let payload = "GET /index.html HTTP/1.0\r\nHost: ia32el\r\n\r\n" in
  let workers = 4 in
  let image =
    Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1 ~wide:false
  in
  let build_ms =
    1e3 *. seconds_per ~min_time (fun () -> Ia32el.Instance.create image)
  in
  let tc = Filename.temp_file "ia32el-bench-serve" ".tc" in
  (match Serve.compile_tcache ~path:tc ~scale:1 ~payload () with
  | [] -> ()
  | d :: _ ->
    Printf.eprintf "perf: serve tcache save failed: %s\n"
      (Ia32el.Bt_error.to_string d);
    exit 1);
  let p =
    Serve.pool ~backend:Serve.Forked ~workers ~queue:(2 * workers) ~tcache:tc
      ()
  in
  (* calibrate per-request service time under full worker concurrency —
     so the derived rate tracks *effective* pool capacity whatever the
     host core count. The first batch pays one-time costs (page cache,
     COW after fork) and is discarded. *)
  let cal_batch () =
    Serve.run_batch p
      (List.init workers (fun _ -> { Serve.payload; max_cycles = None }))
  in
  ignore (cal_batch ());
  let cal = cal_batch () in
  let cal_served =
    List.filter_map (fun r -> r.Serve.result) cal.Serve.responses
  in
  let svc_s =
    match cal_served with
    | [] -> 0.05
    | l ->
      List.fold_left (fun a r -> a +. r.Serve.r_service_us) 0.0 l
      /. Float.of_int (List.length l) /. 1e6
  in
  let svc_s = if svc_s <= 0.0 then 0.05 else svc_s in
  let rate_hz = 0.7 *. Float.of_int workers /. svc_s in
  let n =
    max 16 (min 256 (int_of_float (rate_hz *. (4.0 *. min_time))))
  in
  let load, responses = Serve.run_open_loop p ~rate_hz ~n ~payload () in
  let served = List.filter_map (fun r -> r.Serve.result) responses in
  let hits =
    List.fold_left (fun a r -> a + r.Serve.r_tc_hits) 0 served
  in
  let misses =
    List.fold_left (fun a r -> a + r.Serve.r_tc_misses) 0 served
  in
  List.iter
    (fun s -> try Sys.remove s with Sys_error _ -> ())
    [ tc; tc ^ ".lock" ];
  if misses > 0 || hits = 0 then begin
    Printf.eprintf
      "perf: serving pool not warm: %d live translations, %d AOT installs\n"
      misses hits;
    exit 1
  end;
  (load, rate_hz, workers, hits, build_ms)

(* Per-request layers of one serving worker, in process, on the
   serve-echo guest with a shared read-only AOT tcache: [requests]
   requests served the way workers did before sessions (a fresh
   instance per request, tcache attached to it) and the way they do now
   (one session, rewound after every request). Host milliseconds per
   request for the instance build, the run (metrics JSON included) and
   the rewind; instances built and block programs compiled per request,
   the latter from the second request on (the first compiles the same in
   both). *)
type serve_layers = {
  sl_builds : float; (* Instance.create calls per request *)
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
  let serve inst =
    ignore (Ia32el.Instance.run ~request:payload inst);
    ignore (Obs.Metrics.to_string (Ia32el.Instance.metrics inst))
  in
  let measure ~built0 step =
    let build = ref 0. and run = ref 0. and revert = ref 0. and compiles = ref 0 in
    for k = 0 to requests - 1 do
      let b, r, v, c = step () in
      build := !build +. b;
      run := !run +. r;
      revert := !revert +. v;
      if k > 0 then compiles := !compiles + c
    done;
    let per x = x /. Float.of_int requests in
    {
      sl_builds = per (Float.of_int (Ia32el.Instance.created () - built0));
      sl_build_ms = per !build;
      sl_run_ms = per !run;
      sl_revert_ms = per !revert;
      sl_compiles =
        Float.of_int !compiles /. Float.of_int (max 1 (requests - 1));
    }
  in
  let compiled inst = Ipf.Exec.compiled inst.Ia32el.Instance.eng.Ia32el.Engine.exec in
  let fresh =
    measure ~built0:(Ia32el.Instance.created ()) (fun () ->
        let b, inst =
          ms (fun () ->
              let inst = Ia32el.Instance.create ~config image in
              ignore
                (Persist.attach ~readonly:true store inst.Ia32el.Instance.eng);
              inst)
        in
        let r, () = ms (fun () -> serve inst) in
        (b, r, 0., compiled inst))
  in
  let session =
    let built0 = Ia32el.Instance.created () in
    let b, (inst, pse, se) =
      ms (fun () ->
          let inst = Ia32el.Instance.create ~config image in
          let pse =
            Persist.attach ~readonly:true store inst.Ia32el.Instance.eng
          in
          (inst, pse, Ia32el.Instance.session inst))
    in
    let first = ref true in
    measure ~built0 (fun () ->
        let b = if !first then b else 0. in
        first := false;
        let c0 = compiled inst in
        Persist.restart pse;
        let r, () = ms (fun () -> serve inst) in
        let c = compiled inst - c0 in
        let v, () = ms (fun () -> Ia32el.Instance.rewind se) in
        (b, r, v, c))
  in
  (fresh, session)

let perf ~scale ~min_time () =
  header "Wall-clock throughput of the simulator itself"
    "host-dependent; committed snapshot makes fast-path regressions visible\n\
     as ratios (decode cache on/off) and against pre-change baselines";
  let config = Ia32el.Config.default in
  let mach_pre = machine_rate ~scale ~min_time config in
  let dispatch = exec_costs ~min_time in
  let gmem = guest_memory_costs ~min_time in
  let interp_cached = interp_rate ~scale ~min_time ~cache:true in
  let interp_uncached = interp_rate ~scale ~min_time ~cache:false in
  let el_s =
    seconds_per ~min_time (fun () ->
        B.run_el Workloads.Spec_int.gzip ~scale)
  in
  let lock_s =
    seconds_per ~min_time (fun () ->
        Harness.Resilience.run ~lockstep:true Workloads.Spec_int.gzip ~scale)
  in
  let fuzz_ps = fuzz_rate ~min_time in
  let forkserver_ps = forkserver_rate ~min_time in
  let fs_split = forkserver_split ~bases:32 ~per_base:50 in
  let threads_w =
    Workloads.Threads.producer_consumer
      ~workers:Workloads.Threads.default_workers
  in
  let threads_cps =
    rate ~min_time (fun () ->
        let r = B.run_el threads_w ~scale in
        Float.of_int r.B.cycles)
  in
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
  let cold_s, warm_s, aot_s, elim_frac = persist_rates ~scale ~min_time in
  let serve_load, serve_rate_hz, serve_workers, serve_hits, build_ms =
    serve_rates ~min_time
  in
  let session_requests = 200 in
  let fresh_layers, session_layers =
    serve_session_rows ~requests:session_requests
  in
  let interp_speedup = interp_cached /. interp_uncached in
  let lock_factor = lock_s /. el_s in
  Printf.printf "machine core               : %8.2f Mslots/s\n"
    (mach_pre /. 1e6);
  print_exec_costs dispatch;
  print_guest_memory gmem;
  Printf.printf "interpreter, decode cache   : %8.2f Minsns/s\n"
    (interp_cached /. 1e6);
  Printf.printf "interpreter, re-decoding    : %8.2f Minsns/s\n"
    (interp_uncached /. 1e6);
  Printf.printf "  decode-cache speedup      : %8.2fx\n" interp_speedup;
  Printf.printf "lockstep overhead factor    : %8.2fx (%.3fs vs %.3fs)\n"
    lock_factor lock_s el_s;
  Printf.printf "fuzz lockstep programs      : %8.2f prog/s\n" fuzz_ps;
  Printf.printf "fork-server inputs          : %8.2f prog/s (%.2fx lockstep)\n"
    forkserver_ps
    (forkserver_ps /. fuzz_ps);
  print_forkserver_split fs_split;
  Printf.printf "threaded workload (%s, %d guest threads): %.2f Mcycles/s\n"
    threads_w.Workloads.Common.name
    (Workloads.Threads.default_workers + 1)
    (threads_cps /. 1e6);
  Printf.printf
    "contended futex (%s, 8 workers + producer): %.2f Mcycles/s, %d context \
     switches/run\n"
    futex_w.Workloads.Common.name
    (futex_cps /. 1e6)
    !futex_switches;
  Printf.printf "persistent tcache, cold     : %8.3f s/run\n" cold_s;
  Printf.printf "persistent tcache, warm     : %8.3f s/run (%.2fx cold)\n"
    warm_s (cold_s /. warm_s);
  Printf.printf "persistent tcache, AOT      : %8.3f s/run (%.2fx cold)\n"
    aot_s (cold_s /. aot_s);
  Printf.printf
    "  cold-phase translation cycles eliminated on warm start: %.1f%%\n"
    (100.0 *. elim_frac);
  Printf.printf
    "serving pool (%d forked workers, shared read-only AOT tcache):\n"
    serve_workers;
  Printf.printf
    "  throughput                : %8.2f guests/s (open-loop, offered %.2f/s)\n"
    serve_load.Serve.guests_per_s serve_rate_hz;
  Printf.printf
    "  latency p50/p95/p99       : %.2f / %.2f / %.2f ms (mean %.2f)\n"
    serve_load.Serve.lat_p50_ms serve_load.Serve.lat_p95_ms
    serve_load.Serve.lat_p99_ms serve_load.Serve.lat_mean_ms;
  Printf.printf "  instance build            : %8.3f ms\n" build_ms;
  Printf.printf
    "  served %d of %d offered, %d rejected; %d AOT installs, 0 live \
     translations\n\n"
    serve_load.Serve.served serve_load.Serve.offered
    serve_load.Serve.load_rejected serve_hits;
  let layers name l =
    Printf.printf
      "  %-7s per request       : %.3f builds, %.3f ms build, %.3f ms run, \
       %.3f ms rewind, %.1f program compiles\n"
      name l.sl_builds l.sl_build_ms l.sl_run_ms l.sl_revert_ms l.sl_compiles
  in
  Printf.printf "one worker, %d requests in process:\n" session_requests;
  layers "fresh" fresh_layers;
  layers "session" session_layers;
  let finite x = Float.is_finite x && x > 0.0 in
  if
    not
      (List.for_all finite
         [
           mach_pre; dispatch.slot_ns; dispatch.words_per_compiled_slot;
           gmem.gm_store_ns; gmem.gm_load_ns; gmem.gm_step_ns;
           interp_cached; interp_uncached; lock_factor;
           fuzz_ps; forkserver_ps; threads_cps; futex_cps; cold_s; warm_s;
           aot_s; serve_load.Serve.guests_per_s; serve_load.Serve.lat_p50_ms;
           serve_load.Serve.lat_p95_ms; serve_load.Serve.lat_p99_ms;
         ])
  then begin
    Printf.eprintf "perf: non-finite or non-positive measurement\n";
    exit 1
  end;
  if elim_frac < 0.8 then begin
    Printf.eprintf
      "perf: warm start eliminated only %.1f%% of cold-phase translation \
       cycles (acceptance floor 80%%)\n"
      (100.0 *. elim_frac);
    exit 1
  end;
  let open Obs.Metrics in
  let report =
    Obj
      [
        ("schema", Str "ia32el-wallclock/6");
        ("scale", Int scale);
        ("host_dependent", Str "true");
        (* measured once before the hot-counter fast-path generation
           landed, same host and methodology,
           for the before/after record; current-tree A/B ratios above
           are the live regression guard *)
        ( "pre_change_baseline",
          Obj
            [
              ("rev", Str "8bf175f");
              ("machine_slots_per_s", Float 14614220.02588027);
              ("interp_insns_per_s", Float 13503352.714911152);
              (* one-program-per-session fuzz rate measured before the
                 fork-server landed: the denominator of the >= 3x
                 fork-server acceptance multiple *)
              ("lockstep_programs_per_s", Float 131.35338357638003);
              (* the serve row before fresh guest pages became
                 demand-zero; its instance_build_ms is the median of
                 three runs of this harness at that commit, on the host
                 that measured the live row below *)
              ( "serve",
                Obj
                  [
                    ("rev", Str "58fb716");
                    ("offered_rate_hz", Float 17.189588078873577);
                    ("guests_per_s", Float 17.754152441410568);
                    ("lat_p50_ms", Float 14.317989349365234);
                    ("lat_p95_ms", Float 27.350187301635742);
                    ("lat_p99_ms", Float 44.392108917236328);
                    ("lat_mean_ms", Float 16.86708927154541);
                    ("instance_build_ms", Float 4.805);
                  ] );
              (* the execution core before issue-group programs: the
                 median of five runs of this harness at that commit,
                 alternated with runs of the live row below on one host *)
              ( "machine",
                Obj
                  [
                    ("rev", Str "d1ac50b");
                    ("predecode_slots_per_s", Float 16575303.439340279);
                  ] );
              (* the lockstep and fuzz rows before the reference side
                 kept its reproducer window as decoded insns and
                 compared memory a page at a time: medians of five runs
                 of this harness (--min-time 1) at that commit,
                 alternated with runs of the live rows below on one
                 host *)
              ( "lockstep",
                Obj
                  [
                    ("rev", Str "916b9b3");
                    ("plain_s_per_run", Float 0.085026227510892421);
                    ("lockstep_s_per_run", Float 0.59463846683502197);
                    ("overhead_factor", Float 6.8043563998138135);
                    ("lockstep_programs_per_s", Float 213.06654302492478);
                    ("forkserver_programs_per_s", Float 558.67414416527242);
                  ] );
              (* the fork-server row before warm reverts judged
                 translations by content: the median of five runs of
                 this row's measurement (--min-time 1) at that commit,
                 alternated with runs of the live row below on one
                 host. Its program writes no code, so the parent kept
                 every translation too and the two agree. *)
              ( "forkserver",
                Obj
                  [
                    ("rev", Str "b32e4fb");
                    ("forkserver_programs_per_s", Float 1920.667);
                  ] );
              (* the fork-server split before the lockstep compare
                 looked only at dirty pages and epochs recycled their
                 machine tables: medians of five runs of
                 [forkserver_split] at that commit (the full scan
                 examines every mapped page), alternated with runs of
                 the live row below on one host *)
              (* the execution core and guest memory before whole
                 groups were charged from compile-time summaries and the
                 dcache hit its last line without a search: medians of
                 five runs of this harness at that commit, alternated
                 with runs of the change on one host *)
              ( "machine_dispatch",
                Obj
                  [
                    ("rev", Str "4a66c12");
                    ("group_ns", Float 15.07);
                    ("slot_ns", Float 7.93);
                    ("words_per_compiled_slot", Float 72.1);
                  ] );
              ( "guest_memory",
                Obj
                  [
                    ("rev", Str "4a66c12");
                    ("store4_ns", Float 79.8);
                    ("load4_ns", Float 72.0);
                    ("add_ns", Float 13.6);
                    ("interp_step_ns", Float 60.0);
                  ] );
              ( "forkserver_split",
                Obj
                  [
                    ("rev", Str "a887e06");
                    ("push_ms", Float 0.104);
                    ("run_ms", Float 0.522);
                    ("revert_ms", Float 0.074);
                    ("pages_compared_per_commit", Float 22.0);
                    ("major_collections_per_1000_inputs", Float 87.);
                  ] );
            ] );
        ( "machine",
          Obj
            [
              ("predecode_slots_per_s", Float mach_pre);
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
        ( "fuzz",
          Obj
            [
              ("lockstep_programs_per_s", Float fuzz_ps);
              ("forkserver_programs_per_s", Float forkserver_ps);
              ( "forkserver_speedup_vs_baseline",
                Float (forkserver_ps /. 131.35338357638003) );
              ("forkserver_split", forkserver_split_json fs_split);
            ] );
        ( "threads",
          Obj
            [
              ("workload", Str threads_w.Workloads.Common.name);
              ("guest_threads", Int (Workloads.Threads.default_workers + 1));
              ("guest_cycles_per_s", Float threads_cps);
            ] );
        ( "futex_contended",
          Obj
            [
              ("workload", Str futex_w.Workloads.Common.name);
              ("guest_threads", Int 9);
              ("guest_cycles_per_s", Float futex_cps);
              ("context_switches_per_run", Int !futex_switches);
            ] );
        ( "persist",
          Obj
            [
              ("cold_s_per_run", Float cold_s);
              ("warm_s_per_run", Float warm_s);
              ("aot_s_per_run", Float aot_s);
              ("warm_speedup", Float (cold_s /. warm_s));
              ("aot_speedup", Float (cold_s /. aot_s));
              ( "cold_translation_cycles_eliminated_fraction",
                Float elim_frac );
            ] );
        ( "serve",
          Obj
            [
              ("backend", Str "fork");
              ("workers", Int serve_workers);
              ("tcache", Str "aot-shared-readonly");
              ("offered_rate_hz", Float serve_rate_hz);
              ("offered", Int serve_load.Serve.offered);
              ("served", Int serve_load.Serve.served);
              ("rejected", Int serve_load.Serve.load_rejected);
              ("guests_per_s", Float serve_load.Serve.guests_per_s);
              ("lat_p50_ms", Float serve_load.Serve.lat_p50_ms);
              ("lat_p95_ms", Float serve_load.Serve.lat_p95_ms);
              ("lat_p99_ms", Float serve_load.Serve.lat_p99_ms);
              ("lat_mean_ms", Float serve_load.Serve.lat_mean_ms);
              ("tc_hits", Int serve_hits);
              ("tc_misses", Int 0);
              ("instance_build_ms", Float build_ms);
              ( "per_request",
                let layers l =
                  Obj
                    [
                      ("instance_builds", Float l.sl_builds);
                      ("instance_build_ms", Float l.sl_build_ms);
                      ("run_ms", Float l.sl_run_ms);
                      ("revert_ms", Float l.sl_revert_ms);
                      ("group_compiles_after_first", Float l.sl_compiles);
                    ]
                in
                (* one worker serving requests in process: a fresh
                   instance per request, as workers did before sessions,
                   against the rewound session they keep now *)
                Obj
                  [
                    ("requests", Int session_requests);
                    ("fresh_instance", layers fresh_layers);
                    ("session", layers session_layers);
                  ] );
            ] );
      ]
  in
  let oc = open_out wallclock_file in
  output_string oc (json_to_string report);
  close_out oc;
  Printf.printf "wrote %s\n" wallclock_file

(* ---------------- driver ---------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let json = ref false in
  let min_time = ref 0.3 in
  let rec parse = function
    | "--scale" :: n :: rest ->
      scale := int_of_string n;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--min-time" :: t :: rest ->
      min_time := float_of_string t;
      parse rest
    | x :: rest -> x :: parse rest
    | [] -> []
  in
  let cmds = parse args in
  let scale = !scale in
  let min_time = !min_time in
  let all () =
    table1 ();
    fig5 ~scale ();
    fig6 ~scale ();
    fig7 ~scale ();
    fig8 ~scale ();
    misalign ~scale ();
    stats ~scale ();
    circuitry ~scale ();
    ablations ~scale ()
  in
  (match cmds with
  | [] | [ "all" ] -> if not !json then all ()
  | cmds ->
    List.iter
      (function
        | "table1" -> table1 ()
        | "fig5" -> fig5 ~scale ()
        | "fig6" -> fig6 ~scale ()
        | "fig7" -> fig7 ~scale ()
        | "fig8" -> fig8 ~scale ()
        | "misalign" -> misalign ~scale ()
        | "stats" -> stats ~scale ()
        | "circuitry" -> circuitry ~scale ()
        | "ablations" -> ablations ~scale ()
        | "perf" -> perf ~scale ~min_time ()
        | "forkserver" ->
          print_forkserver_split (forkserver_split ~bases:32 ~per_base:50)
        | "virtual" -> virtual_report ~scale ()
        | "all" -> all ()
        | other -> Printf.eprintf "unknown command %S\n" other)
      cmds);
  (* `perf` writes its own BENCH_wallclock.json; the figure report only
     accompanies the figure commands *)
  if !json && not (List.mem "perf" cmds) then json_report ~scale ()
