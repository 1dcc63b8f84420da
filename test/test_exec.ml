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

let predecode_on_off ws =
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

let test_workload_determinism () =
  predecode_on_off
    [ Workloads.Spec_int.gzip; Workloads.Spec_fp.swim; Workloads.Sysmark.office ]

(* Every guest of the end-to-end benchmark's suite, so each guest a host
   speed claim rests on is cycle-exact against the reference loop. *)
let test_suite_determinism () =
  predecode_on_off
    (Workloads.Spec_int.all @ Workloads.Spec_fp.all
    @ [ Workloads.Sysmark.office; Workloads.Sysmark.misalign_stress ]
    @ Workloads.Threads.all ~workers:Workloads.Threads.default_workers)

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

(* Minor words per executed machine slot under the pre-decoded core. What
   remains is Int64 boxing in a few semantic actions plus the run's
   translation and group compilation; the budget has headroom for that
   but catches any reintroduced per-slot tuple, option, closure or
   hashtable traffic (which adds at least a word per slot on top). *)
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
  if per_slot > 2.0 then
    Alcotest.failf
      "machine inner loop allocates %.1f minor words per retired slot \
       (budget 2, measured ~0.9 at commit time); a per-slot \
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
  let cached = Ipf.Exec.cached_programs eng.E.exec
  and retained = Ipf.Exec.retained_programs eng.E.exec
  and slots = 3 * Ipf.Tcache.length eng.E.tcache in
  Printf.eprintf "[cache] gzip: %d valid programs, %d retained, %d slots\n%!"
    cached retained slots;
  check Alcotest.bool "some groups compiled" true (cached > 0);
  check Alcotest.bool "valid programs bounded by tcache slots" true
    (cached <= slots);
  check Alcotest.bool "retained programs bounded" true
    (retained <= 3 * slots)

(* ---------------- group programs vs the reference loop ---------------- *)

(* Hand-built tcaches run twice — by [Machine.run] and by [Exec.run] on
   twin machines — and compared after every call: stop reason, every
   stats counter, buckets (bucket_fn keys on the bundle, so a charge to
   the wrong bundle shows), the charge-probe stream, ready/fready,
   ip/slot, last_exit and the register files. Each case aims a side exit
   at the middle of a multi-bundle issue group. *)

module I = Ipf.Insn
module Mc = Ipf.Machine

exception Abort

let data = 0x10000
let unmapped = 0x50000

let bun ?(stop = 2) a b c =
  {
    Ipf.Bundle.template = Ipf.Bundle.MII;
    slots = [| a; b; c |];
    stops = Array.init 3 (fun i -> i = stop);
  }

let mk = I.mk
let nop = mk (I.Nop I.I)
let movi d v = mk (I.Movi (d, Int64.of_int v))
let add d a b = mk (I.Add (d, a, b))
let out r = mk (I.Br (I.Out r))

(* r2 = data, r3 = unmapped, r4 = 7, r5 = 9, r9 = data + 8; p6 true,
   p7 false *)
let prologue =
  [
    bun ~stop:(-1) (movi 2 data) (movi 3 unmapped) (movi 4 7);
    bun (movi 5 9) (movi 9 (data + 8)) (mk (I.Cmp (I.Ceq, I.Cnorm, 6, 7, 0, 0)));
  ]

type side = {
  m : Mc.t;
  tc : Ipf.Tcache.t;
  x : Ipf.Exec.t;
  go : ?fuel:int -> unit -> string;
  probe : Buffer.t;
}

let stop_str = function
  | Mc.Exited r -> "exited " ^ I.exit_reason_name r
  | Mc.Faulted f ->
    Printf.sprintf "faulted %s addr=%x size=%d store=%b at %d.%d"
      (match f.Mc.kind with
      | Mc.F_misalign -> "misalign"
      | Mc.F_page -> "page"
      | Mc.F_nat -> "nat")
      f.Mc.addr f.Mc.size f.Mc.store f.Mc.ip f.Mc.slot
  | Mc.Fuel -> "fuel"

(* One side of a comparison, on its own copy of [bundles]: a side's
   patches and watches must not reach the other. [setup mem tc] may
   install a write watch acting on this side. *)
let side ~fast ?(setup = fun _ _ -> ()) bundles =
  let mem = Ia32.Memory.create () in
  Ia32.Memory.map mem ~addr:data ~len:0x2000 ~prot:Ia32.Memory.prot_rw;
  let tc = Ipf.Tcache.create () in
  List.iter
    (fun b ->
      let open Ipf.Bundle in
      let copy = { b with slots = Array.copy b.slots; stops = Array.copy b.stops } in
      ignore (Ipf.Tcache.append tc copy))
    bundles;
  setup mem tc;
  let m = Mc.create mem tc in
  m.Mc.bucket_fn <- (fun b -> b land 7);
  let probe = Buffer.create 256 in
  m.Mc.charge_probe <- Some (fun ip d -> Printf.bprintf probe "%d:%d " ip d);
  let x = Ipf.Exec.create m in
  (* the default fuel keeps a looping case from running away *)
  let go ?(fuel = 10_000) () =
    match if fast then Ipf.Exec.run ~fuel x else Mc.run ~fuel m with
    | stop -> stop_str stop
    | exception Abort -> "abort"
    | exception Invalid_argument msg -> msg
  in
  { m; tc; x; go; probe }

let observe s =
  let m = s.m in
  let st = m.Mc.stats in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "cycles=%d groups=%d retired=%d loads=%d stores=%d taken=%d stall=%d \
     spec=%d ip=%d slot=%d last_exit=%d.%d\n"
    st.Mc.cycles st.Mc.groups st.Mc.slots_retired st.Mc.loads st.Mc.stores
    st.Mc.taken_branches st.Mc.dcache_stall st.Mc.spec_checks m.Mc.ip
    m.Mc.slot (fst m.Mc.last_exit) (snd m.Mc.last_exit);
  Printf.bprintf b "buckets=%s\nready=%s\nfready=%s\n" (ints m.Mc.buckets)
    (ints m.Mc.ready) (ints m.Mc.fready);
  for r = 0 to 31 do
    Printf.bprintf b "r%d=%Lx%s " r (Mc.get m r) (if Mc.get_nat m r then "*" else "")
  done;
  for p = 0 to 15 do
    Printf.bprintf b "p%d=%b " p (Mc.getp m p)
  done;
  Printf.bprintf b "\nprobe=%s" (Buffer.contents s.probe);
  Buffer.contents b

(* Run both sides with [steps]: each step is (fuel, action before it) *)
let twin ?setup bundles tag steps =
  let r = side ~fast:false ?setup bundles and f = side ~fast:true ?setup bundles in
  List.iteri
    (fun i (fuel, before) ->
      before r;
      before f;
      let tag = Printf.sprintf "%s step %d" tag i in
      checks (tag ^ " stop") (r.go ?fuel ()) (f.go ?fuel ());
      checks (tag ^ " state") (observe r) (observe f))
    steps;
  f

let at ip slot s =
  s.m.Mc.ip <- ip;
  s.m.Mc.slot <- slot

let keep _ = ()

(* Nine slots in one issue group over bundles 2-4 (a load that misses
   the dcache, a store, a long immediate), then the exit. *)
let long_group =
  prologue
  @ [
      bun ~stop:(-1) (add 6 4 5) (mk (I.Ld (8, I.Ld_none, 7, 2))) (add 8 4 4);
      bun ~stop:(-1) (mk (I.St (8, 9, 5))) (add 10 5 5) (movi 12 3);
      bun (add 11 4 5) nop (out I.Exit_program);
    ]

(* The last bundle has no stop: the group runs off the end of the tcache,
   where the reference loop's next fetch raises with the group open. *)
let off_end =
  prologue @ [ bun ~stop:(-1) (add 6 4 5) (mk (I.Ld (8, I.Ld_none, 7, 2))) (add 8 4 4) ]

let test_fuel_every_offset () =
  for fuel = 0 to 16 do
    ignore
      (twin long_group (Printf.sprintf "fuel %d" fuel)
         [ (Some fuel, keep); (Some 1, keep); (None, keep) ])
  done;
  for fuel = 0 to 9 do
    ignore
      (twin off_end (Printf.sprintf "off end, fuel %d" fuel)
         [ (Some fuel, keep); (None, keep) ])
  done

let test_fault_mid_group () =
  let faulting ld =
    prologue
    @ [
        bun ~stop:(-1) (add 6 4 5) (add 8 4 4) (mk (I.Ld (8, I.Ld_none, 7, 2)));
        bun ~stop:(-1) (add 10 5 5) ld (add 11 4 5);
        bun nop nop (out I.Exit_program);
      ]
  in
  ignore (twin (faulting (mk (I.Ld (8, I.Ld_none, 12, 3)))) "page" [ (None, keep) ]);
  ignore
    (twin (faulting (mk (I.St (4, 9, 5)))) "store ok" [ (None, keep) ]);
  ignore
    (twin
       (faulting (mk (I.St (4, 4, 5))))
       "misaligned store" [ (None, keep) ])

let test_exits_mid_group () =
  let bundles =
    prologue
    @ [
        (* not-taken, then taken predicated branches inside the group *)
        bun ~stop:(-1) (add 6 4 5) (mk ~qp:7 (I.Br (I.To 5))) (add 8 4 4);
        bun ~stop:(-1) (add 10 5 5) (mk ~qp:6 (I.Br (I.To 5))) (add 11 4 5);
        bun (add 12 4 4) nop (out I.Exit_program);
        (* an exit in the middle of a bundle and of a group *)
        bun ~stop:(-1) (add 13 4 5) (out (I.Dispatch 0x1234)) (add 14 4 4);
        bun ~stop:(-1) (add 15 14 4) (movi 16 8) (mk (I.Mov_to_br (1, 16)));
        bun (add 17 4 4) nop (mk (I.Br_ind 1));
        bun nop (add 18 4 4) (out I.Exit_program);
      ]
  in
  ignore
    (twin bundles "exits"
       [ (None, keep); (None, keep); (Some 2, keep); (None, keep) ]);
  (* resuming after the mid-bundle exit once the group cache is warm *)
  ignore
    (twin bundles "resume"
       [ (None, keep); (None, at 5 2); (None, at 5 0); (None, at 5 2) ])

let test_raw_split_predicated_off () =
  let bundles =
    prologue
    @ [
        (* p7 is false: the writer of r10 does not run, but still splits
           the group before its reader and still sets r10's ready cycle *)
        bun ~stop:(-1) (mk ~qp:7 (I.Xma (10, 4, 4, 5))) (add 11 10 4) (add 12 4 4);
        (* a predicated-off compare writes p8: the slot predicated on it
           starts a new group *)
        bun ~stop:(-1)
          (mk ~qp:7 (I.Cmp (I.Ceq, I.Cnorm, 8, 9, 0, 0)))
          (mk ~qp:8 (I.Add (13, 4, 4)))
          (add 14 11 4);
        bun nop nop (out I.Exit_program);
      ]
  in
  ignore (twin bundles "raw" [ (None, keep) ]);
  for fuel = 0 to 10 do
    ignore
      (twin bundles (Printf.sprintf "raw fuel %d" fuel)
         [ (Some fuel, keep); (None, keep) ])
  done

let test_patch_cached_group () =
  let patch s =
    Ipf.Tcache.patch_slot s.tc ~idx:3 ~slot:2 (movi 12 5);
    at 0 0 s
  and relink s =
    Ipf.Tcache.patch_slot s.tc ~idx:3 ~slot:1 (add 10 8 5);
    at 0 0 s
  and inval s =
    Ipf.Tcache.invalidate_range s.tc ~start:3 ~stop:4 ~target:0x4444;
    at 0 0 s
  in
  let f =
    twin long_group "patch"
      [ (None, keep); (None, patch); (None, relink); (None, inval); (None, at 0 0) ]
  in
  let cached = Ipf.Exec.cached_programs f.x in
  check Alcotest.bool "cached programs within the tcache slots" true
    (cached > 0 && cached <= 3 * Ipf.Tcache.length f.tc)

(* A store whose write watch raises (the engine's SMC abort) drops the
   open group's timing exactly like the reference loop's unwinding; one
   whose watch rewrites the rest of its own group must see the new
   slots. *)
let test_store_mid_group () =
  let watch on_write mem tc =
    Ia32.Memory.watch_page mem data;
    Ia32.Memory.set_write_watch mem (Some (fun _ _ -> on_write tc))
  in
  let unwatch s = Ia32.Memory.set_write_watch s.m.Mc.mem None in
  ignore
    (twin ~setup:(watch (fun _ -> raise Abort)) long_group "abort"
       [ (None, keep); (None, unwatch) ]);
  let rewrite tc =
    Ipf.Tcache.patch_slot tc ~idx:4 ~slot:0 (add 11 7 4);
    Ipf.Tcache.patch_slot tc ~idx:3 ~slot:2 (movi 12 11)
  in
  ignore
    (twin ~setup:(watch rewrite) long_group "rewrite"
       [ (None, keep); (None, at 0 0) ]);
  let invalidate tc = Ipf.Tcache.invalidate_range tc ~start:3 ~stop:5 ~target:0x99 in
  ignore (twin ~setup:(watch invalidate) long_group "invalidate" [ (None, keep) ])

let () =
  Alcotest.run "exec"
    [
      ( "determinism",
        [
          Alcotest.test_case "workloads-predecode-on-off" `Quick
            test_workload_determinism;
          Alcotest.test_case "suite-predecode-on-off" `Slow
            test_suite_determinism;
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
      ( "group-vs-reference",
        [
          Alcotest.test_case "fuel-every-offset" `Quick test_fuel_every_offset;
          Alcotest.test_case "fault-mid-group" `Quick test_fault_mid_group;
          Alcotest.test_case "exits-mid-group" `Quick test_exits_mid_group;
          Alcotest.test_case "raw-split-predicated-off" `Quick
            test_raw_split_predicated_off;
          Alcotest.test_case "patch-cached-group" `Quick test_patch_cached_group;
          Alcotest.test_case "store-mid-group" `Quick test_store_mid_group;
        ] );
    ]
