(* Resilience tests: the deterministic fault injector, the lockstep
   differential vehicle, the graceful-degradation ladder, and the Vos
   robustness fixes.

   The load-bearing property: every chaos injection is semantics-
   preserving, so under any seed every workload must produce the same
   guest-visible behaviour (output bytes, exit code) and agree with the
   reference interpreter at every commit point. A livelock shows up as
   Out_of_fuel; a recovery bug shows up as a lockstep divergence with a
   structured diagnosis. *)

open Ia32
module C = Workloads.Common
module E = Ia32el.Engine
module L = Ia32el.Lockstep
module R = Harness.Resilience
module Inject = Harness.Inject

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let workloads : C.t list =
  Workloads.Spec_int.all @ Workloads.Spec_fp.all
  @ [ Workloads.Sysmark.office; Workloads.Sysmark.misalign_stress ]

let find_workload name = List.find (fun w -> w.C.name = name) workloads
let seeds = [ 0; 1; 2; 3; 4 ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Exit code of a lockstep run; fails the test on divergence (with the
   structured diagnosis), unhandled fault, or fuel exhaustion. *)
let lockstep_exit_code name (r : R.lockstep_result) =
  (match r.R.report.L.divergence with
  | Some d -> Alcotest.failf "%s diverged:@.%a" name (fun ppf -> L.pp_divergence ppf) d
  | None -> ());
  match r.R.report.L.outcome with
  | Some (E.Exited (code, _)) -> code
  | Some (E.Unhandled_fault (f, st)) ->
    Alcotest.failf "%s: unhandled %s at 0x%x" name (Fault.to_string f)
      st.State.eip
  | Some E.Out_of_fuel | None ->
    Alcotest.failf "%s: out of fuel (livelock under injection?)" name

(* ------------------------------------------------------------------ *)
(* Lockstep over every workload, clean and under injection seeds 0-4   *)
(* ------------------------------------------------------------------ *)

let lockstep_tests =
  List.map
    (fun w ->
      Alcotest.test_case w.C.name `Slow (fun () ->
          (* clean lockstep run: the baseline for guest-visible behaviour *)
          let base = R.run_lockstep w ~scale:1 in
          check int (w.C.name ^ ": clean exit code") 0
            (lockstep_exit_code w.C.name base);
          check bool (w.C.name ^ ": commit points compared") true
            (base.R.report.L.commits > 0);
          let injected_total = ref 0 in
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s/seed%d" w.C.name seed in
              let r = R.run_lockstep ~seed w ~scale:1 in
              check int (name ^ ": exit code") 0 (lockstep_exit_code name r);
              check bool (name ^ ": output byte-identical to uninjected")
                true
                (String.equal base.R.output r.R.output);
              match r.R.inject_stats with
              | Some s -> injected_total := !injected_total + Inject.total_injections s
              | None -> ())
            seeds;
          check bool (w.C.name ^ ": injector actually fired across seeds")
            true (!injected_total > 0)))
    workloads

(* ------------------------------------------------------------------ *)
(* SMC abort path: the running block modifies itself                    *)
(* ------------------------------------------------------------------ *)

let exit0 =
  Asm.
    [
      i (Insn.Mov (Insn.S32, Insn.R Insn.Eax, Insn.I 1));
      i (Insn.Mov (Insn.S32, Insn.R Insn.Ebx, Insn.I 0));
      i (Insn.Int_n 0x80);
    ]

let smc_abort_test =
  Alcotest.test_case "SMC abort: running block modifies itself" `Quick
    (fun () ->
      (* the store patches the imm32 of the mov ABOVE it in the same basic
         block, so the write lands on the currently running block:
         Smc_abort -> smc_pending flush -> precise restart at the next
         instruction, retranslation picks up the patched bytes *)
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Ecx, I 4));
            label "loop";
            label "target";
            i (Mov (S32, R Eax, I 111));
            with_lab "target" (fun a ->
                Mov (S32, M (Insn.mem_abs (a + 1)), I 777));
            i (Dec (S32, R Ecx));
            jcc Ne "loop";
            with_lab "out" (fun a -> Mov (S32, M (Insn.mem_abs a), R Eax));
          ]
          @ exit0)
      in
      let image = Asm.build ~code ~data:Asm.[ label "out"; space 8 ] () in
      let mem = Memory.create () in
      let st = Asm.load ~writable_code:true image mem in
      let captured = ref None in
      let report =
        L.run ~fuel:10_000_000
          ~attach:(fun e -> captured := Some e)
          ~btlib:(module Btlib.Linuxsim)
          mem st
      in
      (match report.L.divergence with
      | Some d -> Alcotest.failf "diverged:@.%a" (fun ppf -> L.pp_divergence ppf) d
      | None -> ());
      (match report.L.outcome with
      | Some (E.Exited (0, _)) -> ()
      | _ -> Alcotest.fail "expected clean exit");
      let eng = Option.get !captured in
      check bool "SMC invalidation counted" true
        (eng.E.acct.Ia32el.Account.smc_invalidations > 0);
      check int "patched value executed after precise restart" 777
        (Memory.read32 mem (image.Asm.lookup "out")))

(* ------------------------------------------------------------------ *)
(* Degradation ladder: invalidation storm -> stage-2/3 -> interp-only   *)
(* ------------------------------------------------------------------ *)

let degradation_test =
  Alcotest.test_case "degradation ladder under invalidation storm" `Slow
    (fun () ->
      (* spurious invalidation on every block-boundary event: entries
         churn through retranslation until the ladder escalates them to
         stage-2/3 avoidance and then interpret-only; the SMC-storm
         detector degrades whole pages. The run must stay correct (zero
         lockstep divergences) and must terminate (no retranslation
         livelock). *)
      let inj =
        Inject.create ~rate_tos:0 ~rate_sse:0 ~rate_smc:1 ~rate_flush:0
          ~rate_squeeze:0 ~rate_transient:0 ~seed:0 ()
      in
      let w = find_workload "gzip" in
      let r =
        R.run_lockstep ~attach_extra:(fun e -> Inject.attach inj e) w ~scale:1
      in
      check int "exit code" 0 (lockstep_exit_code "gzip/storm" r);
      let eng = r.R.engine in
      check bool "spurious invalidations happened" true
        ((Inject.stats inj).Inject.smc_invalidations > 0);
      check bool "stage-2/3 avoidance escalation" true
        (Hashtbl.length eng.E.avoid_entries > 0
        && Hashtbl.length eng.E.stage2_entries > 0);
      check bool "entries degraded to interpret-only" true
        (eng.E.acct.Ia32el.Account.degrade_interp_entries > 0);
      check bool "SMC-storm page degradation fired" true
        (eng.E.acct.Ia32el.Account.degrade_smc_storms > 0))

(* ------------------------------------------------------------------ *)
(* A deliberately seeded translator bug must be caught by lockstep      *)
(* ------------------------------------------------------------------ *)

(* Run [code] under lockstep with [sabotage] on the engine's dispatch
   hook; the run must diverge. [sabotage machine lookup target] sees
   every dispatch target. *)
let diverge_with ?(writable_code = false) ~code sabotage =
  let image = Asm.build ~code ~data:[] () in
  let mem = Memory.create () in
  let st = Asm.load ~writable_code image mem in
  let attach (e : E.t) =
    e.E.on_dispatch <-
      Some (fun target -> sabotage e.E.machine image.Asm.lookup target)
  in
  let report =
    L.run ~fuel:10_000_000 ~attach ~btlib:(module Btlib.Linuxsim) mem st
  in
  match report.L.divergence with
  | None -> Alcotest.fail "sabotage was NOT caught by lockstep"
  | Some d -> d

let set_reg m reg v = Ipf.Machine.set32 m (Ia32el.Regs.gr_of_reg reg) v
let strings = Alcotest.(list string)

let seeded_bug_test =
  Alcotest.test_case "lockstep catches a seeded translator bug" `Quick
    (fun () ->
      (* guest: esi is set once and never touched again; a syscall per
         iteration gives lockstep a commit point per iteration. The
         "bug": at the 10th block-boundary event we silently corrupt the
         machine's canonical ESI — exactly the kind of wrong-but-running
         state a translator bug produces. Lockstep must flag the first
         commit point after the corruption, name the field, and carry the
         reproducer window. The spin loop puts 34 reference steps between
         commit points, so the 32-entry window has wrapped. *)
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Esi, I 0x1234));
            i (Mov (S32, R Ecx, I 40));
            label "loop";
          ]
          @ C.kernel_work 5
          @ [
              i (Mov (S32, R Edx, I 12));
              label "spin";
              i (Dec (S32, R Edx));
              jcc Ne "spin";
              i (Dec (S32, R Ecx));
              jcc Ne "loop";
            ]
          @ exit0)
      in
      let events = ref 0 in
      let d =
        diverge_with ~code (fun m _ _ ->
            incr events;
            if !events = 10 then set_reg m Esi 0xBEEF)
      in
      check bool "diagnosis names the first diverging commit point" true
        (d.L.commit_index >= 1);
      check bool "diagnosis names the corrupted field" true
        (List.exists (fun s -> contains s "esi") d.L.diffs);
      (* the last 32 of the 34 reference steps since the previous
         commit, oldest first: the ring has wrapped past the two pops *)
      let spin =
        List.concat
          (List.init 12 (fun _ ->
               [ "0x40001f: dec edx"; "0x400021: jne 0x40001f" ]))
      in
      check strings "reproducer window"
        ([ "0x40001a: mov edx, 0xc" ]
        @ spin
        @ [
            "0x400027: dec ecx";
            "0x400029: jne 0x40000a";
            "0x40000a: push eax";
            "0x40000b: push ebx";
            "0x40000c: mov eax, 0xc8";
            "0x400011: mov ebx, 0x5";
            "0x400016: int 0x80";
          ])
        d.L.window)

(* The window shows each instruction as it was executed: a store that
   rewrites an instruction between two of its executions leaves both
   versions in one window. *)
let smc_window_test =
  Alcotest.test_case "reproducer window shows SMC-rewritten bytes" `Quick
    (fun () ->
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Ecx, I 2));
            label "loop";
            label "target";
            i (Mov (S32, R Edx, I 111));
            with_lab "target" (fun a ->
                Mov (S32, M (Insn.mem_abs (a + 1)), I 777));
            i (Dec (S32, R Ecx));
            jcc Ne "loop";
          ]
          @ exit0)
      in
      (* corrupt the never-used ESI at every dispatch: the exit syscall
         is the first commit point, so the window covers the whole run *)
      let d =
        diverge_with ~writable_code:true ~code (fun m _ _ ->
            set_reg m Esi 0xBEEF)
      in
      check int "first commit point" 0 d.L.commit_index;
      check strings "reproducer window"
        [
          "0x400000: mov ecx, 0x2";
          "0x400005: mov edx, 0x6f";
          "0x40000a: mov [0x400006], 0x309";
          "0x400014: dec ecx";
          "0x400016: jne 0x400005";
          "0x400005: mov edx, 0x309";
          "0x40000a: mov [0x400006], 0x309";
          "0x400014: dec ecx";
          "0x400016: jne 0x400005";
          "0x40001c: mov eax, 0x1";
          "0x400021: mov ebx, 0x0";
          "0x400026: int 0x80";
        ]
        d.L.window)

(* A reference step that cannot fetch its instruction ends the window
   with an [<unfetchable>] entry. The guest jumps through EBX to an
   unmapped page; the engine's copy of EBX is sabotaged to point at the
   exit sequence, so the engine reaches the exit syscall while the
   reference faults on the fetch. *)
let unfetchable_window_test =
  Alcotest.test_case "reproducer window ends <unfetchable>" `Quick
    (fun () ->
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Ebx, I 0x7ff00000));
            jmp "hop";
            label "hop";
            i (Jmp_ind (R Ebx));
            label "exit";
          ]
          @ exit0)
      in
      let d =
        diverge_with ~code (fun m lookup target ->
            if target = lookup "hop" then set_reg m Ebx (lookup "exit"))
      in
      check strings "diffs"
        [
          "event: engine reached syscall 128, reference fault #PF(fetch \n\
           0x7ff00000)";
        ]
        d.L.diffs;
      check strings "reproducer window"
        [
          "0x400000: mov ebx, 0x7ff00000";
          "0x400005: jmp 0x40000a";
          "0x40000a: jmp ebx";
          "0x7ff00000: <unfetchable>";
        ]
        d.L.window)

(* ------------------------------------------------------------------ *)
(* Vos robustness: atomic Write, Sbrk unmap, transient retry            *)
(* ------------------------------------------------------------------ *)

let vos_tests =
  let module S = Btlib.Syscall in
  let module V = Btlib.Vos in
  [
    Alcotest.test_case "write is all-or-nothing on a mid-buffer fault"
      `Quick (fun () ->
        let mem = Memory.create () in
        Memory.map mem ~addr:0x5000 ~len:Memory.page_size ~prot:Memory.prot_rw;
        let vos = V.create mem in
        let st = State.create mem in
        (* the buffer runs off the end of the mapped page: the fault hits
           after ~6 readable bytes, which must NOT appear in the output *)
        (match V.perform vos st (S.Write { buf = 0x5000 + 4090; len = 20 }) with
        | S.Ret v -> check int "returns -EFAULT" (Ia32.Word.mask32 (-14)) v
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        check int "no partial bytes visible" 0 (String.length (V.output vos));
        (* a fully readable buffer still works *)
        (match V.perform vos st (S.Write { buf = 0x5000; len = 4 }) with
        | S.Ret v -> check int "full write count" 4 v
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        check int "exactly the full write visible" 4
          (String.length (V.output vos)));
    Alcotest.test_case "negative sbrk unmaps the freed pages" `Quick
      (fun () ->
        let mem = Memory.create () in
        let vos = V.create mem in
        let st = State.create mem in
        let base = V.heap_base_default in
        (match V.perform vos st (S.Sbrk 8192) with
        | S.Ret v -> check int "sbrk returns old break" base v
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        check bool "grown pages mapped" true
          (Memory.is_mapped mem base && Memory.is_mapped mem (base + 4096));
        (match V.perform vos st (S.Sbrk (-8192)) with
        | S.Ret _ -> ()
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        check bool "freed pages unmapped" true
          ((not (Memory.is_mapped mem base))
          && not (Memory.is_mapped mem (base + 4096)));
        (* partial page at the new break survives a partial shrink *)
        (match V.perform vos st (S.Sbrk 8192) with
        | S.Ret _ -> ()
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        (match V.perform vos st (S.Sbrk (-4096 - 100)) with
        | S.Ret _ -> ()
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        check bool "page holding the new break stays mapped" true
          (Memory.is_mapped mem base);
        check bool "fully freed page unmapped" true
          (not (Memory.is_mapped mem (base + 4096))));
    Alcotest.test_case "transient syscall failures: bounded retry, \
                        guest-transparent" `Quick (fun () ->
        let mem = Memory.create () in
        let vos = V.create mem in
        let st = State.create mem in
        (* a hook that always fails: the OS must give up retrying after
           the bound and proceed anyway *)
        vos.V.transient_fault <- Some (fun _ -> true);
        let k0 = vos.V.kernel_cycles in
        (match V.perform vos st (S.Kernel_work 7) with
        | S.Ret v -> check int "service still succeeds" 0 v
        | S.Exited _ | S.Block -> Alcotest.fail "unexpected exit or block");
        check int "retries bounded" V.max_transient_retries
          vos.V.transient_retries;
        let backoff =
          (* 200 + 400 + 800 + 1600 with the default constants *)
          let rec sum k acc =
            if k >= V.max_transient_retries then acc
            else sum (k + 1) (acc + (V.transient_backoff_cycles lsl k))
          in
          sum 0 0
        in
        check int "backoff charged to kernel time" (backoff + 7)
          (vos.V.kernel_cycles - k0));
  ]

let () =
  Alcotest.run "ia32el-resilience"
    [
      ("vos", vos_tests);
      ( "engine",
        [
          smc_abort_test;
          degradation_test;
          seeded_bug_test;
          smc_window_test;
          unfetchable_window_test;
        ] );
      ("lockstep", lockstep_tests);
    ]
