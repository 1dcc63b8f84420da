(* Direct-threaded execution core tests.

   The pre-decoded machine core ({!Ipf.Exec}) is a host-speed switch:
   every simulated observable — cycle counts, bucket splits, the full
   metrics snapshot — must be bit-identical with it on or off, against
   the interpretive [Machine.run] reference. These tests pin that, the
   SMC behaviour of the interpreter's decode cache ({!Ia32.Icache},
   against the uncached interpreter), and the allocation budget of both
   inner loops (the direct-threaded design only pays off if the hot paths
   stay off the minor heap). *)

module B = Workloads.Baselines
module E = Ia32el.Engine
module J = Obs.Metrics
module F = Harness.Fuzz

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string

let cfg ~pre = { Ia32el.Config.default with Ia32el.Config.enable_predecode = pre }

(* One workload run reduced to everything observable: final cycle count,
   the bucket distribution, and the whole metrics JSON. *)
let observables config w =
  let r = B.run_el ~config w ~scale:1 in
  let dist =
    match r.B.distribution with
    | Some d ->
      Printf.sprintf "hot=%d cold=%d ov=%d other=%d idle=%d total=%d"
        d.Ia32el.Account.hot d.Ia32el.Account.cold d.Ia32el.Account.overhead
        d.Ia32el.Account.other d.Ia32el.Account.idle d.Ia32el.Account.total
    | None -> "none"
  in
  let metrics =
    match r.B.engine with
    | Some e -> J.json_to_string (J.to_json (E.metrics e))
    | None -> "none"
  in
  (r.B.cycles, dist, metrics)

(* ---------------- determinism: workloads ---------------- *)

let test_workload_determinism () =
  let ws =
    [ Workloads.Spec_int.gzip; Workloads.Spec_fp.swim; Workloads.Sysmark.office ]
  in
  List.iter
    (fun w ->
      let name = w.Workloads.Common.name in
      let base_cycles, base_dist, base_metrics =
        observables (cfg ~pre:true) w
      in
      let c, d, m = observables (cfg ~pre:false) w in
      let tag = name ^ " pre=false" in
      checki (tag ^ " cycles") base_cycles c;
      checks (tag ^ " distribution") base_dist d;
      checks (tag ^ " metrics") base_metrics m)
    ws

(* Run the same workload twice under the same config: the metrics snapshot
   itself must be reproducible (guards hidden wall-clock or hash-order
   nondeterminism in anything [metrics] reports). *)
let test_repeat_determinism () =
  let a = observables (cfg ~pre:true) Workloads.Spec_int.gzip in
  let b = observables (cfg ~pre:true) Workloads.Spec_int.gzip in
  checks "repeat run metrics"
    (let _, _, m = a in m)
    (let _, _, m = b in m)

(* ---------------- determinism: fuzz corpus ---------------- *)

(* A small generated corpus (including SMC patch atoms) through lockstep
   with predecode on and off: same result class, no divergence, and the
   engine-side metrics bit-identical across both. *)
let test_fuzz_determinism () =
  let rng = F.Rng.create 0x5eed in
  for seed = 1 to 12 do
    let prog = F.generate ~rng ~max_insns:60 seed in
    let run config =
      let exec = F.run_one ~config ~fuel:2_000_000 prog in
      let cls =
        match exec.F.result with
        | F.R_ok { commits; exit_code } ->
          Printf.sprintf "ok commits=%d exit=%d" commits exit_code
        | F.R_halted f -> "halted " ^ Ia32.Fault.to_string f
        | F.R_fuel -> "fuel"
        | F.R_diverged _ -> "DIVERGED"
        | F.R_crash msg -> "CRASH " ^ msg
      in
      let metrics =
        match exec.F.engine with
        | Some e -> J.json_to_string (J.to_json (E.metrics e))
        | None -> "none"
      in
      (cls, metrics)
    in
    let base_cls, base_metrics = run (cfg ~pre:true) in
    (match String.index_opt base_cls 'D' with
    | Some 0 -> Alcotest.failf "seed %d diverged: %s" seed base_cls
    | _ -> ());
    let cls, metrics = run (cfg ~pre:false) in
    let tag = Printf.sprintf "seed %d pre=false" seed in
    checks (tag ^ " class") base_cls cls;
    checks (tag ^ " metrics") base_metrics metrics
  done

(* ---------------- decode cache vs self-modifying code ---------------- *)

(* A program patches the immediate of an instruction it already executed,
   then loops back over it. The write bumps the source page's generation,
   so the cached decode must miss and the new immediate must take effect
   on the very next fetch. A stale decode yields EDI = 2 instead of 6. *)
let smc_image () =
  let open Ia32.Insn in
  Ia32.Asm.build
    ~code:
      [
        Ia32.Asm.label "start";
        Ia32.Asm.i (Mov (S32, R Ecx, I 2));
        Ia32.Asm.i (Mov (S32, R Edi, I 0));
        Ia32.Asm.label "loop";
        Ia32.Asm.label "t";
        Ia32.Asm.i (Mov (S32, R Ebx, I 1));
        Ia32.Asm.i (Alu (Add, S32, R Edi, R Ebx));
        (* patch t's imm32 low byte: mov byte [t+1], 5 *)
        Ia32.Asm.with_lab "t" (fun a -> Mov (S8, M (mem_abs (a + 1)), I 5));
        Ia32.Asm.i (Dec (S32, R Ecx));
        Ia32.Asm.jcc Ne "loop";
        Ia32.Asm.i Hlt;
      ]
    ~data:[] ()

let run_smc ~cache =
  let image = smc_image () in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load ~writable_code:true image mem in
  Ia32.Icache.set_enabled st.Ia32.State.icache cache;
  match Ia32.Interp.run ~fuel:1_000 st with
  | Ia32.Interp.Stop_fault Ia32.Fault.Privileged, steps ->
    (Ia32.State.get32 st Ia32.Insn.Edi, steps)
  | _ -> Alcotest.fail "expected to stop at hlt"

let test_smc_invalidates_icache () =
  let edi_cached, steps_cached = run_smc ~cache:true in
  let edi_plain, steps_plain = run_smc ~cache:false in
  checki "patched immediate visible through decode cache" 6 edi_cached;
  checki "cache on/off agree" edi_plain edi_cached;
  checki "same step count" steps_plain steps_cached

(* ---------------- allocation budgets ---------------- *)

(* Minor words per executed machine slot under the pre-decoded core. The
   irreducible cost is Int64 boxing in the semantic actions; the budget
   has headroom for that but catches any reintroduced per-step tuple,
   option, closure or hashtable traffic (which adds several words per
   slot on top). *)
let test_machine_alloc_budget () =
  (* warm up: translations, lowering and caches allocate freely *)
  ignore (B.run_el ~config:(cfg ~pre:true) Workloads.Spec_int.gzip ~scale:1);
  let slots_of r =
    match r.B.engine with
    | Some e -> e.E.machine.Ipf.Machine.stats.Ipf.Machine.slots_retired
    | None -> 0
  in
  let before = Gc.minor_words () in
  let r = B.run_el ~config:(cfg ~pre:true) Workloads.Spec_int.gzip ~scale:1 in
  let words = Gc.minor_words () -. before in
  let slots = slots_of r in
  let per_slot = words /. float_of_int (max 1 slots) in
  Printf.eprintf "[alloc] machine: %.2f minor words/slot (%d slots)\n%!" per_slot
    slots;
  if per_slot > 10.0 then
    Alcotest.failf
      "machine inner loop allocates %.1f minor words per retired slot \
       (budget 10, measured ~4.3 at commit time); a per-step \
       tuple/closure/option crept back in"
      per_slot

(* Minor words per interpreted instruction with the decode cache on. A
   cached step must not re-decode (decoding allocates the insn) — the
   budget is far below one decoded instruction's footprint. *)
let test_interp_alloc_budget () =
  let image =
    Workloads.Spec_int.gzip.Workloads.Common.build ~scale:1 ~wide:false
  in
  let run () =
    let mem = Ia32.Memory.create () in
    let st = Ia32.Asm.load image mem in
    let vos = Btlib.Vos.create mem in
    let _, insns =
      Ia32el.Refvehicle.run ~btlib:(module Btlib.Linuxsim) vos st
    in
    insns
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let insns = run () in
  let words = Gc.minor_words () -. before in
  let per_insn = words /. float_of_int (max 1 insns) in
  Printf.eprintf "[alloc] interp: %.2f minor words/insn (%d insns)\n%!" per_insn
    insns;
  if per_insn > 4.0 then
    Alcotest.failf
      "interpreter inner loop allocates %.1f minor words per instruction \
       (budget 4, measured ~0.1 at commit time); the decode-cache hit path \
       is allocating"
      per_insn

(* Major-heap words of one serve-echo [Instance.create]. Fresh guest pages
   are demand-zero: the 16 MiB profile arena maps to one shared zero
   buffer, so building an instance costs page records, not 4 KiB of
   zeroed bytes per page (over 2 M words when each page got its own). *)
let test_instance_build_major_budget () =
  let image =
    Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1 ~wide:false
  in
  ignore (Ia32el.Instance.create image);
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let inst = Ia32el.Instance.create image in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  ignore (Sys.opaque_identity inst);
  Printf.eprintf "[alloc] Instance.create: %.0f major words\n%!" words;
  if words > 131_072. then
    Alcotest.failf
      "Instance.create allocates %.0f major-heap words (budget 128 k); \
       fresh pages are no longer demand-zero"
      words

(* Major-heap words of a chaos-injected gzip run. Injected SMC storms
   degrade pages to block-by-block interpretation, each block on a fresh
   reconstructed state; those states share the engine's decode cache, and
   a state that never interprets allocates none. When each state carried
   its own 4096-entry cache this run allocated ~590 M words. *)
let test_interp_states_major_budget () =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = Harness.Resilience.run_plain ~seed:0 Workloads.Spec_int.gzip ~scale:1 in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  (match r.Harness.Resilience.outcome with
  | E.Exited _ -> ()
  | _ -> Alcotest.fail "gzip should exit under injection");
  Printf.eprintf "[alloc] injected gzip: %.0f major words\n%!" words;
  if words > 16e6 then
    Alcotest.failf
      "an injected gzip run allocates %.0f major-heap words (budget 16 M, \
       measured ~0.6 M at commit time); reconstructed states are \
       allocating decode caches again"
      words

(* ---------------- pre-decode cache mechanics ---------------- *)

(* The lowering cache re-lowers only what the tcache actually changed:
   run a workload, then re-run on the same engine state — the second run
   must not grow the cached-bundle population (stamps all valid). *)
let test_exec_cache_stable () =
  let w = Workloads.Spec_int.gzip in
  let image = w.Workloads.Common.build ~scale:1 ~wide:false in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let eng = E.create ~btlib:(module Btlib.Linuxsim) mem in
  (match E.run ~fuel:10_000_000 eng st with
  | E.Exited _ -> ()
  | _ -> Alcotest.fail "gzip should exit");
  let cached = Ipf.Exec.cached_bundles eng.E.exec in
  check Alcotest.bool "some bundles pre-decoded" true (cached > 0);
  check Alcotest.bool "cache bounded by tcache length" true
    (cached <= Ipf.Tcache.length eng.E.tcache)

let () =
  Alcotest.run "exec"
    [
      ( "determinism",
        [
          Alcotest.test_case "workloads-predecode-on-off" `Quick
            test_workload_determinism;
          Alcotest.test_case "repeat-run-metrics" `Quick
            test_repeat_determinism;
          Alcotest.test_case "fuzz-corpus-predecode-on-off" `Slow
            test_fuzz_determinism;
        ] );
      ( "decode-cache",
        [
          Alcotest.test_case "smc-invalidates" `Quick
            test_smc_invalidates_icache;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "machine-budget" `Quick test_machine_alloc_budget;
          Alcotest.test_case "interp-budget" `Quick test_interp_alloc_budget;
          Alcotest.test_case "instance-build-major-budget" `Quick
            test_instance_build_major_budget;
          Alcotest.test_case "interp-states-major-budget" `Quick
            test_interp_states_major_budget;
        ] );
      ( "predecode",
        [
          Alcotest.test_case "cache-stable" `Quick test_exec_cache_stable;
        ] );
    ]
