(* Guest-multithreading tests: deterministic schedule replay, cross-thread
   SMC shootdown, eviction storms under load, the thread syscalls' error
   paths, and deadlock detection.

   The scheduler contract under test (DESIGN.md §11): thread switches
   happen only at syscall commit points, driven by the engine's virtual
   clock — so every simulated observable (cycles, metrics, lockstep
   commit stream) is bit-reproducible across repeated runs. *)

open Ia32.Insn
module A = Ia32.Asm
module B = Workloads.Baselines
module E = Ia32el.Engine
module J = Obs.Metrics
module L = Btlib.Linuxsim

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string

(* both first phases: interpret-first runs cold code on the engine's
   interpreter, so schedules also cross interpreted blocks *)
let configs =
  [
    ("default", Ia32el.Config.default);
    ( "interpret-first",
      {
        Ia32el.Config.default with
        Ia32el.Config.first_phase = Ia32el.Config.Interpret_first;
      } );
  ]

let observables config w =
  let r = B.run_el ~config w ~scale:1 in
  let metrics =
    match r.B.engine with
    | Some e -> J.json_to_string (J.to_json (E.metrics e))
    | None -> "none"
  in
  (r.B.cycles, metrics)

(* ---------------- deterministic schedule replay ---------------- *)

let test_schedule_replay () =
  List.iter
    (fun w ->
      List.iter
        (fun (cname, config) ->
          let tag = w.Workloads.Common.name ^ " " ^ cname in
          let base_cycles, base_metrics = observables config w in
          (* repeat run: bit-identical *)
          let again_cycles, again_metrics = observables config w in
          checki (tag ^ " repeat cycles") base_cycles again_cycles;
          checks (tag ^ " repeat metrics") base_metrics again_metrics)
        configs)
    (Workloads.Threads.all ~workers:3)

(* A different quantum gives a different (but still deterministic)
   schedule: same guest result, reproducible cycle count. *)
let test_quantum_determinism () =
  let w = Workloads.Threads.producer_consumer ~workers:3 in
  let run q =
    let config = { Ia32el.Config.default with Ia32el.Config.quantum = q } in
    (observables config w, observables config w)
  in
  List.iter
    (fun q ->
      let (c1, m1), (c2, m2) = run q in
      checki (Printf.sprintf "quantum %d cycles reproducible" q) c1 c2;
      checks (Printf.sprintf "quantum %d metrics reproducible" q) m1 m2)
    [ 0; 700; 5_000 ]

(* Both multithreaded workloads agree with the reference interpreter at
   every commit point. *)
let test_lockstep_clean () =
  List.iter
    (fun w ->
      let r = Harness.Resilience.run ~lockstep:true w ~scale:1 in
      match r.Harness.Capsule.report.Ia32el.Lockstep.divergence with
      | Some d ->
        Alcotest.failf "%s diverged: %s" w.Workloads.Common.name
          (Fmt.str "%a" Ia32el.Lockstep.pp_divergence d)
      | None -> (
        match r.Harness.Capsule.report.Ia32el.Lockstep.outcome with
        | Some (E.Exited (0, _)) -> ()
        | _ -> Alcotest.failf "%s did not exit 0" w.Workloads.Common.name))
    (Workloads.Threads.all ~workers:3)

(* ---------------- cross-thread SMC shootdown ---------------- *)

(* The main thread patches the imm32 of an instruction inside a block the
   worker thread is executing in a yield loop: the worker's translated
   block and any decode-cache entry must be shot down so it observes the
   patched value. If the shootdown misses, the worker spins forever and
   the run ends Out_of_fuel. *)
let smc_image () =
  let stack = A.default_data_base + 0x1000 in
  let code =
    [
      A.label "start";
      A.mov_ri_lab Ebx "worker";
      A.i (Mov (S32, R Ecx, I stack));
      A.i (Mov (S32, R Edx, I 0));
      A.i (Mov (S32, R Eax, I 120));
      A.i (Int_n 0x80);
      A.i (Mov (S32, R Esi, R Eax));
      (* let the worker run its loop once with the original imm *)
      A.i (Mov (S32, R Eax, I 159));
      A.i (Int_n 0x80);
      A.i (Mov (S32, R Eax, I 159));
      A.i (Int_n 0x80);
      (* thread A's SMC write into thread B's live block *)
      A.with_lab "wpatch" (fun a -> Mov (S32, M (mem_abs (a + 1)), I 2222));
      A.i (Mov (S32, R Ebx, R Esi));
      A.i (Mov (S32, R Eax, I 7));
      A.i (Int_n 0x80);
      A.i (Alu (Cmp, S32, R Eax, I 42));
      A.jcc Ne "fail";
      A.i (Mov (S32, R Eax, I 1));
      A.i (Mov (S32, R Ebx, I 0));
      A.i (Int_n 0x80);
      A.label "fail";
      A.i (Mov (S32, R Eax, I 1));
      A.i (Mov (S32, R Ebx, I 1));
      A.i (Int_n 0x80);
      A.label "worker";
      A.label "wloop";
      A.label "wpatch";
      A.i (Mov (S32, R Eax, I 1111));
      A.i (Alu (Cmp, S32, R Eax, I 2222));
      A.jcc E "wdone";
      A.i (Mov (S32, R Eax, I 159));
      A.i (Int_n 0x80);
      A.jmp "wloop";
      A.label "wdone";
      A.i (Mov (S32, R Eax, I 1));
      A.i (Mov (S32, R Ebx, I 42));
      A.i (Int_n 0x80);
    ]
  in
  A.build ~code ~data:[ A.space 0x4000 ] ()

let run_smc config =
  let image = smc_image () in
  let mem = Ia32.Memory.create () in
  let st0 = A.load ~writable_code:true image mem in
  let engine = ref None in
  let report =
    Ia32el.Lockstep.run ~config ~fuel:2_000_000
      ~attach:(fun e -> engine := Some e)
      ~btlib:(module L)
      mem st0
  in
  (report, Option.get !engine)

let test_cross_thread_smc () =
  List.iter
    (fun (tag, config) ->
      let report, eng = run_smc config in
      (match report.Ia32el.Lockstep.divergence with
      | Some d ->
        Alcotest.failf "smc %s diverged: %s" tag
          (Fmt.str "%a" Ia32el.Lockstep.pp_divergence d)
      | None -> ());
      (match report.Ia32el.Lockstep.outcome with
      | Some (E.Exited (0, _)) -> ()
      | Some (E.Exited (c, _)) ->
        Alcotest.failf "smc %s: guest exit %d (join code wrong)" tag c
      | _ -> Alcotest.failf "smc %s: worker never saw the patch" tag);
      let smc =
        match List.assoc_opt "smc_invalidations" (J.counters (E.metrics eng))
        with
        | Some n -> n
        | None -> 0
      in
      (* interpret-first runs the worker's loop on the interpreter, where
         only the decode cache has something to shoot down *)
      if config.Ia32el.Config.first_phase = Ia32el.Config.Instrumented_cold
      then check Alcotest.bool (tag ^ " smc invalidations seen") true (smc > 0))
    configs

(* ---------------- eviction storm under 4 threads ---------------- *)

let test_eviction_storm_threads () =
  let w = Workloads.Threads.producer_consumer ~workers:3 in
  let inject =
    Harness.Inject.create ~rate_tos:0 ~rate_sse:0 ~rate_smc:0 ~rate_flush:0
      ~rate_squeeze:11 ~rate_transient:0 ~seed:5 ()
  in
  let r =
    Harness.Resilience.run ~lockstep:true
      ~attach:(fun e -> Harness.Inject.attach inject e)
      w ~scale:1
  in
  (match r.Harness.Capsule.report.Ia32el.Lockstep.divergence with
  | Some d ->
    Alcotest.failf "storm diverged: %s"
      (Fmt.str "%a" Ia32el.Lockstep.pp_divergence d)
  | None -> ());
  (match r.Harness.Capsule.report.Ia32el.Lockstep.outcome with
  | Some (E.Exited (0, _)) -> ()
  | _ -> Alcotest.fail "storm run did not exit 0");
  let s = Harness.Inject.stats inject in
  check Alcotest.bool "squeezes actually fired" true
    (s.Harness.Inject.capacity_squeezes > 0)

(* ---------------- join error paths ---------------- *)

let errno n = Ia32.Word.mask32 n

let syscall vos st ~eax ~ebx =
  Ia32.State.set32 st Eax eax;
  Ia32.State.set32 st Ebx ebx;
  L.perform vos st (L.decode_syscall st)

let test_join_error_paths () =
  let mem = Ia32.Memory.create () in
  let st = Ia32.State.create mem in
  let vos = Btlib.Vos.create mem in
  let ret = Alcotest.testable Btlib.Syscall.pp_result ( = ) in
  (* self-join: EDEADLK *)
  check ret "self-join" (Btlib.Syscall.Ret (errno (-35)))
    (syscall vos st ~eax:7 ~ebx:0);
  (* unknown tid: ESRCH *)
  check ret "join unknown" (Btlib.Syscall.Ret (errno (-3)))
    (syscall vos st ~eax:7 ~ebx:9);
  (* spawn a worker and let it exit with code 9 *)
  Ia32.State.set32 st Ecx 0x500000;
  Ia32.State.set32 st Edx 0;
  check ret "spawn" (Btlib.Syscall.Ret 1)
    (syscall vos st ~eax:120 ~ebx:0x401000);
  let th1 =
    match Btlib.Vos.find_thread vos 1 with
    | Some th -> th
    | None -> Alcotest.fail "spawned thread not in table"
  in
  Btlib.Vos.set_current vos 1;
  (match syscall vos th1.Btlib.Vos.state ~eax:1 ~ebx:9 with
  | Btlib.Syscall.Block -> ()
  | r ->
    Alcotest.failf "worker exit with main alive should Block, got %a"
      Btlib.Syscall.pp_result r);
  Btlib.Vos.set_current vos 0;
  (* join-on-exited: immediate result, no blocking *)
  check ret "join exited" (Btlib.Syscall.Ret 9) (syscall vos st ~eax:7 ~ebx:1);
  (* second join on the reaped thread: ESRCH *)
  check ret "join reaped" (Btlib.Syscall.Ret (errno (-3)))
    (syscall vos st ~eax:7 ~ebx:1);
  (* two joiners on one target: the second gets EINVAL *)
  check ret "spawn t2" (Btlib.Syscall.Ret 2)
    (syscall vos st ~eax:120 ~ebx:0x401000);
  check ret "spawn t3" (Btlib.Syscall.Ret 3)
    (syscall vos st ~eax:120 ~ebx:0x401000);
  let th2 =
    match Btlib.Vos.find_thread vos 2 with
    | Some th -> th
    | None -> Alcotest.fail "t2 not in table"
  in
  Btlib.Vos.set_current vos 2;
  (match syscall vos th2.Btlib.Vos.state ~eax:7 ~ebx:3 with
  | Btlib.Syscall.Block -> ()
  | r -> Alcotest.failf "first joiner should Block, got %a"
           Btlib.Syscall.pp_result r);
  Btlib.Vos.set_current vos 0;
  check ret "double join" (Btlib.Syscall.Ret (errno (-22)))
    (syscall vos st ~eax:7 ~ebx:3)

(* ---------------- deadlock detection ---------------- *)

(* The sole thread futex-waits on a value that matches: every thread is
   blocked, which the engine reports as a structured Bt_error rather than
   spinning. *)
let test_deadlock_bt_error () =
  let code =
    [
      A.label "start";
      A.i (Mov (S32, R Eax, I 240));
      A.i (Mov (S32, R Ebx, I A.default_data_base));
      A.i (Mov (S32, R Ecx, I 0));
      A.i (Mov (S32, R Edx, I 0));
      A.i (Int_n 0x80);
    ]
  in
  let image = A.build ~code ~data:[ A.space 0x100 ] () in
  let mem = Ia32.Memory.create () in
  let st0 = A.load image mem in
  let eng = E.create ~btlib:(module L) mem in
  match E.run ~fuel:1_000_000 eng st0 with
  | exception Ia32el.Bt_error.Error e ->
    checks "deadlock component" "engine" e.Ia32el.Bt_error.component;
    check Alcotest.bool "deadlock message" true
      (String.length e.Ia32el.Bt_error.what >= 8
      && String.sub e.Ia32el.Bt_error.what 0 8 = "deadlock")
  | _ -> Alcotest.fail "all-blocked guest should raise Bt_error"

let () =
  Alcotest.run "threads"
    [
      ( "determinism",
        [
          Alcotest.test_case "schedule-replay" `Quick test_schedule_replay;
          Alcotest.test_case "quantum-sweep" `Quick test_quantum_determinism;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "workloads-clean" `Quick test_lockstep_clean;
          Alcotest.test_case "eviction-storm-4-threads" `Quick
            test_eviction_storm_threads;
        ] );
      ( "smc",
        [
          Alcotest.test_case "cross-thread-shootdown" `Quick
            test_cross_thread_smc;
        ] );
      ( "errors",
        [
          Alcotest.test_case "join-error-paths" `Quick test_join_error_paths;
          Alcotest.test_case "deadlock-bt-error" `Quick
            test_deadlock_bt_error;
        ] );
    ]
