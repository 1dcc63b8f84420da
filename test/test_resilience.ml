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
module Cap = Harness.Capsule
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

(* Guest console output of a run (engine side). *)
let output (r : Cap.run_result) = Btlib.Vos.output r.Cap.engine.E.vos

(* Exit code of a lockstep run; fails the test on divergence (with the
   structured diagnosis), unhandled fault, or fuel exhaustion. *)
let lockstep_exit_code name (r : Cap.run_result) =
  (match r.Cap.report.L.divergence with
  | Some d -> Alcotest.failf "%s diverged:@.%a" name (fun ppf -> L.pp_divergence ppf) d
  | None -> ());
  match r.Cap.report.L.outcome with
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
          let base = R.run ~lockstep:true w ~scale:1 in
          check int (w.C.name ^ ": clean exit code") 0
            (lockstep_exit_code w.C.name base);
          check bool (w.C.name ^ ": commit points compared") true
            (base.Cap.report.L.commits > 0);
          let injected_total = ref 0 in
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s/seed%d" w.C.name seed in
              let r = R.run ~lockstep:true ~seed w ~scale:1 in
              check int (name ^ ": exit code") 0 (lockstep_exit_code name r);
              check bool (name ^ ": output byte-identical to uninjected")
                true
                (String.equal (output base) (output r));
              match r.Cap.inject_stats with
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
         instruction, retranslation picks up the patched bytes. The patch
         is the loop counter, so every iteration changes the code (a
         store that rewrites the bytes already there invalidates nothing)
         and the loop's back edge enters the patched block through a
         chain, not the dispatcher. *)
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
                Mov (S32, M (Insn.mem_abs (a + 1)), R Ecx));
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
      let tr = Obs.Trace.create () in
      let report =
        L.run ~fuel:10_000_000
          ~attach:(fun e ->
            captured := Some e;
            E.attach_trace e tr)
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
      (* the last iteration runs the imm the one before wrote: ecx = 2 *)
      check int "patched value executed after precise restart" 2
        (Memory.read32 mem (image.Asm.lookup "out")))

let recv_into_own_block_test =
  Alcotest.test_case "a system call writes into its own block's code" `Quick
    (fun () ->
      (* Each iteration's recv overwrites the imm32 of the block's first
         instruction, in the block that issued it. The machine has
         returned to the runtime by then, so the store kills the block
         like any other write: the loop's back edge must retranslate and
         run the received value. The request holds two values; the third
         recv transfers nothing. *)
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Esi, I 3));
            label "loop";
            label "patch";
            i (Mov (S32, R Edi, I 111));
            i (Mov (S32, R Eax, I 102));
            i (Mov (S32, R Ebx, I 2));
            with_lab "patch" (fun a -> Mov (S32, R Ecx, I (a + 1)));
            i (Mov (S32, R Edx, I 4));
            i (Int_n 0x80);
            with_lab "out" (fun a -> Alu (Add, S32, M (Insn.mem_abs a), R Edi));
            i (Dec (S32, R Esi));
            jcc Ne "loop";
          ]
          @ exit0)
      in
      let image = Asm.build ~code ~data:Asm.[ label "out"; space 8 ] () in
      let mem = Memory.create () in
      let st = Asm.load ~writable_code:true image mem in
      let s = L.create ~btlib:(module Btlib.Linuxsim) mem st in
      let le32 v = String.init 4 (fun k -> Char.chr ((v lsr (8 * k)) land 0xFF)) in
      let payload = le32 222 ^ le32 333 in
      Btlib.Vos.bind_request (L.engine s).E.vos payload;
      Btlib.Vos.bind_request (L.reference_vos s) payload;
      let report = L.run_in ~fuel:10_000_000 s in
      (match report.L.divergence with
      | Some d -> Alcotest.failf "diverged:@.%a" (fun ppf -> L.pp_divergence ppf) d
      | None -> ());
      (match report.L.outcome with
      | Some (E.Exited (0, _)) -> ()
      | _ -> Alcotest.fail "expected clean exit");
      check int "each iteration ran the bytes the one before received"
        (111 + 222 + 333)
        (Memory.read32 mem (image.Asm.lookup "out"));
      check bool "the write invalidated the block" true
        ((L.engine s).E.acct.Ia32el.Account.smc_invalidations > 0))

let store_before_block_test =
  Alcotest.test_case "a store that starts before a block rewrites it" `Quick
    (fun () ->
      (* The aligned 4-byte store covers two nops no block holds and the
         first two bytes of the block at "tgt": it leaves the mov's
         opcode as it is and sets the low byte of its imm32 to 0x77. It
         starts before the block, so an SMC check of the store's first
         byte alone misses it and the engine keeps running the old
         imm; the reference runs the new one from the second iteration. *)
      let open Insn in
      let code =
        Asm.(
          [ label "start"; i (Mov (S32, R Esi, I 3)); label "loop"; jmp "tgt" ]
          @ List.init 4 (fun _ -> i Nop)
          @ [
              label "tgt";
              i (Mov (S32, R Ecx, I 0x11111111));
              with_lab "tgt" (fun a ->
                  Mov (S32, M (Insn.mem_abs (a - 2)), I 0x77B99090));
              i (Dec (S32, R Esi));
              jcc Ne "loop";
              with_lab "out" (fun a -> Mov (S32, M (Insn.mem_abs a), R Ecx));
            ]
          @ exit0)
      in
      let image = Asm.build ~code ~data:Asm.[ label "out"; space 8 ] () in
      check int "the store is aligned" 0 ((image.Asm.lookup "tgt" - 2) land 3);
      let mem = Memory.create () in
      let st = Asm.load ~writable_code:true image mem in
      let captured = ref None in
      let tr = Obs.Trace.create () in
      let report =
        L.run ~fuel:10_000_000
          ~attach:(fun e ->
            captured := Some e;
            E.attach_trace e tr)
          ~btlib:(module Btlib.Linuxsim)
          mem st
      in
      (match report.L.divergence with
      | Some d -> Alcotest.failf "diverged:@.%a" (fun ppf -> L.pp_divergence ppf) d
      | None -> ());
      (match report.L.outcome with
      | Some (E.Exited (0, _)) -> ()
      | _ -> Alcotest.fail "expected clean exit");
      check int "the rewritten imm ran" 0x11111177
        (Memory.read32 mem (image.Asm.lookup "out"));
      check bool "SMC invalidation counted" true
        ((Option.get !captured).E.acct.Ia32el.Account.smc_invalidations > 0);
      (* The write watch fires inside a block program, after whole issue
         groups of it ran: the invalidation's timestamp must count their
         cycles, as closing each group when it ends counts them. *)
      check Alcotest.(list int) "invalidation timestamps" [ 374; 997; 1256 ]
        (List.filter_map
           (fun e ->
             match e.Obs.Trace.ev with
             | Obs.Trace.Smc_invalidation _ -> Some e.Obs.Trace.at
             | _ -> None)
           (Obs.Trace.events tr)))

let straddling_fault_address_test =
  Alcotest.test_case "a guest handler gets a fault's lowest inaccessible byte"
    `Quick (fun () ->
      (* Page 0x50 is mapped and 0x51 is not. The 4-byte read at
         0x50FFE, the 8-byte read at 0x51000 and the 16-byte one there
         all first miss at 0x51000, the address IA-32 reports; the
         handler prints what it was given. *)
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Esi, I 0));
            i (Mov (S32, R Eax, I 48));
            i (Mov (S32, R Ebx, I 14));
            with_lab "handler" (fun a -> Mov (S32, R Ecx, I a));
            i (Int_n 0x80);
            i (Mov (S32, R Eax, I 90));
            i (Mov (S32, R Ebx, I 0x50000));
            i (Mov (S32, R Ecx, I 0x1000));
            i (Int_n 0x80);
            i (Mov (S32, R Eax, M (mem_abs 0x50FFE)));
            label "second";
            i (Mmx (Movq_to_mm (0, MMem (mem_abs 0x51000))));
            label "third";
            i (Sse (Movups (XM 0, XMem (mem_abs 0x51000))));
            label "handler";
            i (Mov (S32, R Eax, M (mem_b Esp)));
            with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
            i (Mov (S32, R Eax, I 4));
            i (Mov (S32, R Ebx, I 1));
            with_lab "out" (fun a -> Mov (S32, R Ecx, I a));
            i (Mov (S32, R Edx, I 4));
            i (Int_n 0x80);
            i (Inc (S32, R Esi));
            i (Alu (Cmp, S32, R Esi, I 1));
            jcc E "second";
            i (Alu (Cmp, S32, R Esi, I 2));
            jcc E "third";
          ]
          @ exit0)
      in
      let image = Asm.build ~code ~data:Asm.[ label "out"; space 4 ] () in
      let mem = Memory.create () in
      let st = Asm.load image mem in
      let s = L.create ~btlib:(module Btlib.Linuxsim) mem st in
      let report = L.run_in ~fuel:10_000_000 s in
      (match report.L.divergence with
      | Some d -> Alcotest.failf "diverged:@.%a" (fun ppf -> L.pp_divergence ppf) d
      | None -> ());
      (match report.L.outcome with
      | Some (E.Exited (0, _)) -> ()
      | _ -> Alcotest.fail "expected clean exit");
      let printed = String.concat "" (List.init 3 (fun _ -> "\x00\x10\x05\x00")) in
      check Alcotest.string "engine printed 0x51000 three times" printed
        (Btlib.Vos.output (L.engine s).E.vos);
      check Alcotest.string "reference printed 0x51000 three times" printed
        (Btlib.Vos.output (L.reference_vos s)))

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
        R.run ~lockstep:true ~attach:(fun e -> Inject.attach inj e) w ~scale:1
      in
      check int "exit code" 0 (lockstep_exit_code "gzip/storm" r);
      let eng = r.Cap.engine in
      check bool "spurious invalidations happened" true
        ((Inject.stats inj).Inject.smc_invalidations > 0);
      check bool "stage-2/3 avoidance escalation" true
        (Hashtbl.length eng.E.avoid_entries > 0
        && Hashtbl.length eng.E.stage2_entries > 0);
      check bool "entries degraded to interpret-only" true
        (eng.E.acct.Ia32el.Account.degrade_interp_entries > 0);
      check bool "SMC-storm page degradation fired" true
        (eng.E.acct.Ia32el.Account.degrade_smc_storms > 0))

(* The ladder's thresholds, one rung at a time. [churn_run ~fire] runs a
   guest whose every loop iteration comes back to the dispatcher through
   a syscall; at each dispatch hook [fire k d] says whether the k-th
   chaos invalidation (counting from 0) happens now, [d] being the
   engine's dispatch count. Each invalidation kills the oldest live
   block, all of them on the loop's one source page. Returns the engine,
   that page and the dispatch counts at which invalidations fired. *)
let churn_run ?(observe = fun _ -> ()) ~fire () =
  let open Insn in
  let code =
    Asm.(
      [ label "start"; i (Mov (S32, R Ecx, I 3000)); label "loop" ]
      @ C.kernel_work 1
      @ [ i (Dec (S32, R Ecx)); jcc Ne "loop" ]
      @ exit0)
  in
  let image = Asm.build ~code ~data:[] () in
  let mem = Memory.create () in
  let st = Asm.load image mem in
  let e = E.create ~btlib:(module Btlib.Linuxsim) mem in
  let fired = ref [] in
  e.E.on_dispatch <-
    Some
      (fun _ ->
        observe e;
        let d = e.E.acct.Ia32el.Account.dispatches in
        if fire (List.length !fired) d (List.rev !fired)
           && E.spurious_smc_invalidate e ~max:1 = 1
        then fired := d :: !fired);
  (match E.run ~fuel:100_000_000 e st with
  | E.Exited (0, _) -> ()
  | _ -> Alcotest.fail "expected a clean exit");
  (e, image.Asm.lookup "loop" lsr Memory.page_bits, List.rev !fired)

let retrans_count (e : E.t) entry =
  Option.value ~default:0 (Hashtbl.find_opt e.E.retrans_counts entry)

let ladder_entry_test =
  Alcotest.test_case "ladder: stage-2 at the 6th retranslation, interp at the 12th"
    `Quick (fun () ->
      (* invalidations 40 dispatches apart: at most 13 fall in one
         512-dispatch storm window, so only the per-entry rungs act *)
      let stages = Hashtbl.create 16 in
      let rung_errors = ref [] in
      let observe (e : E.t) =
        Hashtbl.iter
          (fun entry (b : Ia32el.Block.t) ->
            let n = retrans_count e entry in
            if b.Ia32el.Block.live && b.Ia32el.Block.kind = Ia32el.Block.Cold
            then Hashtbl.replace stages (n, b.Ia32el.Block.misalign_stage) ())
          e.E.cache.Ia32el.Block.by_entry;
        Hashtbl.iter
          (fun entry n ->
            if Hashtbl.mem e.E.stage2_entries entry <> (n >= 6)
               || Hashtbl.mem e.E.avoid_entries entry <> (n >= 6)
               || Hashtbl.mem e.E.interp_only entry <> (n >= 12)
            then
              rung_errors :=
                Printf.sprintf "entry %#x after %d retranslations" entry n
                :: !rung_errors)
          e.E.retrans_counts
      in
      let fire _ d fired =
        match List.rev fired with
        | [] -> d >= 10
        | last :: _ -> d >= last + 40
      in
      let e, _, _ = churn_run ~observe ~fire () in
      check Alcotest.(list string) "every entry sits on the rung its count names" []
        (List.rev !rung_errors);
      let counts = Hashtbl.fold (fun _ n acc -> n :: acc) e.E.retrans_counts [] in
      check int "the most retranslated entry stopped at 12" 12
        (List.fold_left max 0 counts);
      check int "entries gone interpret-only"
        (List.length (List.filter (fun n -> n >= 12) counts))
        e.E.acct.Ia32el.Account.degrade_interp_entries;
      check bool "after 5 retranslations: stage 1" true
        (Hashtbl.mem stages (5, 1) && not (Hashtbl.mem stages (5, 2)));
      check bool "after 6 retranslations: regenerated at stage 2" true
        (Hashtbl.mem stages (6, 2) && not (Hashtbl.mem stages (6, 1)));
      check bool "after 11 retranslations: still translated" true
        (Hashtbl.mem stages (11, 2));
      check bool "after 12 retranslations: never translated again" false
        (Hashtbl.fold (fun (n, _) () acc -> acc || n >= 12) stages false);
      check int "no page storm" 0 e.E.acct.Ia32el.Account.degrade_smc_storms)

let ladder_storm_test =
  Alcotest.test_case "ladder: 16 page invalidations within 512 dispatches"
    `Quick (fun () ->
      (* 16 invalidations on one page: 15 gaps of 34 dispatches, then
         the last one [last] dispatches after the first *)
      let run last =
        let fire k d fired =
          match fired with
          | [] -> d >= 10
          | first :: _ -> d >= first + if k = 15 then last else 34 * k
        in
        let e, page, fired = churn_run ~fire:(fun k d f -> k < 16 && fire k d f) () in
        check int "16 invalidations" 16 (List.length fired);
        check int "the 16th came [last] dispatches after the first" last
          (List.nth fired 15 - List.hd fired);
        (e, page)
      in
      let e, page = run 512 in
      check int "page degraded at the 16th within 512 dispatches" 1
        e.E.acct.Ia32el.Account.degrade_smc_storms;
      check bool "the loop's page interprets" true
        (Hashtbl.mem e.E.interp_only_pages page);
      let e, page = run 513 in
      check int "513 dispatches: a new window, no storm" 0
        e.E.acct.Ia32el.Account.degrade_smc_storms;
      check int "the 16th event opened a new window" 1
        (snd (Hashtbl.find e.E.smc_page_hits page)))

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

(* Guest memory that differs on two pages: the diagnosis names the
   address the full scan visits first, though the compare itself only
   looks at the pages written since the last equal commit point. *)
let two_page_memory_diff_test =
  Alcotest.test_case "memory differing on two pages: the full scan's address"
    `Quick (fun () ->
      let open Insn in
      let code =
        Asm.(
          [
            label "start";
            i (Mov (S32, R Ecx, I 40));
            label "loop";
          ]
          @ C.kernel_work 5
          @ [ i (Dec (S32, R Ecx)); jcc Ne "loop" ]
          @ exit0)
      in
      let image =
        Asm.build ~code ~data:Asm.[ label "buf"; space (3 * Memory.page_size) ] ()
      in
      let mem = Memory.create () in
      let st = Asm.load image mem in
      let buf = image.Asm.lookup "buf" in
      let events = ref 0 in
      let attach (e : E.t) =
        e.E.on_dispatch <-
          Some
            (fun _ ->
              incr events;
              if !events = 10 then begin
                Memory.write8 e.E.mem (buf + 0x2345) 0xAA;
                Memory.write8 e.E.mem (buf + 0x123) 0xBB
              end)
      in
      let s = L.create ~attach ~btlib:(module Btlib.Linuxsim) mem st in
      let report = L.run_in ~fuel:10_000_000 s in
      let d =
        match report.L.divergence with
        | Some d -> d
        | None -> Alcotest.fail "the memory sabotage was not caught"
      in
      let arena p =
        p >= Ia32el.Block.arena_base lsr Memory.page_bits
        && p < (Ia32el.Block.arena_base + Ia32el.Block.arena_size) lsr Memory.page_bits
      in
      let full =
        match Memory.first_diff ~skip:arena mem (L.reference_mem s) with
        | Some a -> a
        | None -> Alcotest.fail "the full scan finds no difference"
      in
      check bool "one of the two sabotaged bytes" true
        (full = buf + 0x2345 || full = buf + 0x123);
      check strings "diagnosis"
        [
          Printf.sprintf
            "memory: first difference at %#x (engine %02x vs reference 00)"
            full (Memory.read8 mem full);
        ]
        d.L.diffs)

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
          recv_into_own_block_test;
          store_before_block_test;
          straddling_fault_address_test;
          degradation_test;
          ladder_entry_test;
          ladder_storm_test;
          seeded_bug_test;
          two_page_memory_diff_test;
          smc_window_test;
          unfetchable_window_test;
        ] );
      ("lockstep", lockstep_tests);
    ]
