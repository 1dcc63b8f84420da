(* Tests for the IPF substrate: bundles/templates, the instruction
   semantics of the execution core (ALU, predication, speculation, ALAT),
   faults, and the timing model. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

open Ipf

(* Helper: load a list of (insns, stop) groups into a tcache, run, return
   machine. Each inner list becomes one bundle with a trailing stop. *)
let setup ?(map_mem = true) prog =
  let mem = Ia32.Memory.create () in
  if map_mem then
    Ia32.Memory.map mem ~addr:0x1000 ~len:0x4000 ~prot:Ia32.Memory.prot_rw;
  let tc = Tcache.create () in
  List.iter (fun insns -> ignore (Tcache.append tc (Bundle.make ~stop_end:true insns))) prog;
  let m = Machine.create mem tc in
  (m, mem, tc)

(* Run a machine on the engine's execution core. *)
let exec ?fuel m = Exec.run ?fuel (Exec.create m)

let exit_bundle = [ Insn.mk (Insn.Br (Insn.Out Insn.Exit_program)) ]

let run_prog ?fuel prog =
  let m, mem, _ = setup (prog @ [ exit_bundle ]) in
  let stop = exec ?fuel m in
  (m, mem, stop)

let expect_exit stop =
  match stop with
  | Machine.Exited Insn.Exit_program -> ()
  | Machine.Exited r -> Alcotest.failf "unexpected exit %s" (Insn.exit_reason_name r)
  | Machine.Faulted _ -> Alcotest.fail "unexpected fault"
  | Machine.Fuel -> Alcotest.fail "out of fuel"

let bundle_tests =
  [
    Alcotest.test_case "single alu gets a template" `Quick (fun () ->
        let b = Bundle.make [ Insn.mk (Insn.Addi (4, 1, 0)) ] in
        Bundle.check b);
    Alcotest.test_case "branch lands in B slot" `Quick (fun () ->
        let b = Bundle.make [ Insn.mk (Insn.Br (Insn.Out Insn.Exit_program)) ] in
        check Alcotest.string "template" "MIB"
          (Bundle.template_name b.Bundle.template));
    Alcotest.test_case "mem + alu + branch fits MIB" `Quick (fun () ->
        let b =
          Bundle.make
            [ Insn.mk (Insn.Ld (4, Insn.Ld_none, 4, 5));
              Insn.mk (Insn.Addi (6, 1, 4));
              Insn.mk (Insn.Br (Insn.To 0)) ]
        in
        check Alcotest.string "template" "MIB"
          (Bundle.template_name b.Bundle.template));
    Alcotest.test_case "fp op gets F slot" `Quick (fun () ->
        let b = Bundle.make [ Insn.mk (Insn.Fadd (2, 3, 4)) ] in
        Bundle.check b;
        check bool "F template" true
          (List.mem b.Bundle.template Bundle.[ MFI; MMF; MFB ]));
    Alcotest.test_case "two mem ops need MM template" `Quick (fun () ->
        let b =
          Bundle.make
            [ Insn.mk (Insn.Ld (4, Insn.Ld_none, 4, 5));
              Insn.mk (Insn.Ld (4, Insn.Ld_none, 6, 7)) ]
        in
        check bool "MM*" true (List.mem b.Bundle.template Bundle.[ MMI; MMF; MMB ]));
    Alcotest.test_case "too many instructions rejected" `Quick (fun () ->
        try
          ignore
            (Bundle.make
               (List.init 4 (fun k -> Insn.mk (Insn.Addi (k + 4, 1, 0)))));
          Alcotest.fail "expected Invalid"
        with Bundle.Invalid _ -> ());
  ]

let machine_tests =
  let open Insn in
  [
    Alcotest.test_case "alu basics" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, 40L)) ];
              [ mk (Addi (5, 2, 4)) ];
              [ mk (Sub (6, 5, 4)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "r5" 42L (Machine.get m 5);
        Alcotest.check Alcotest.int64 "r6" 2L (Machine.get m 6));
    Alcotest.test_case "r0 reads zero, writes ignored" `Quick (fun () ->
        let m, _, stop = run_prog [ [ mk (Addi (0, 5, 0)) ]; [ mk (Mov (4, 0)) ] ] in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "r0" 0L (Machine.get m 0);
        Alcotest.check Alcotest.int64 "r4" 0L (Machine.get m 4));
    Alcotest.test_case "predication disables instruction" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, 7L)) ];
              [ mk (Cmpi (Ceq, Cnorm, 1, 2, 7, 4)) ];
              [ mk ~qp:1 (Movi (5, 111L)); mk ~qp:2 (Movi (6, 222L)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "taken side" 111L (Machine.get m 5);
        Alcotest.check Alcotest.int64 "untaken side" 0L (Machine.get m 6));
    Alcotest.test_case "load/store round trip" `Quick (fun () ->
        let m, mem, stop =
          run_prog
            [ [ mk (Movi (4, 0x1008L)); mk (Movi (5, 0xDEADBEEFL)) ];
              [ mk (St (4, 4, 5)) ];
              [ mk (Ld (4, Ld_none, 6, 4)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "loaded" 0xDEADBEEFL (Machine.get m 6);
        check int "in guest memory" 0xDEADBEEF (Ia32.Memory.read32 mem 0x1008));
    Alcotest.test_case "misaligned access faults" `Quick (fun () ->
        let _, _, stop =
          run_prog
            [ [ mk (Movi (4, 0x1002L)) ]; [ mk (Ld (4, Ld_none, 5, 4)) ] ]
        in
        match stop with
        | Machine.Faulted f ->
          check bool "misalign" true (f.Machine.kind = Machine.F_misalign);
          check int "addr" 0x1002 f.Machine.addr
        | _ -> Alcotest.fail "expected fault");
    Alcotest.test_case "unmapped access faults" `Quick (fun () ->
        let _, _, stop =
          run_prog
            [ [ mk (Movi (4, 0x90000L)) ]; [ mk (Ld (4, Ld_none, 5, 4)) ] ]
        in
        match stop with
        | Machine.Faulted f -> check bool "page" true (f.Machine.kind = Machine.F_page)
        | _ -> Alcotest.fail "expected fault");
    Alcotest.test_case "speculative load defers fault to chk.s" `Quick (fun () ->
        (* ld.s from unmapped sets NaT; chk.s branches to recovery *)
        let mem = Ia32.Memory.create () in
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x90000L)) ]; (* 0 *)
        add [ mk (Ld (4, Ld_s, 5, 4)) ]; (* 1 *)
        add [ mk (Chk_s (5, To 4)) ]; (* 2: recovery at 4 *)
        add [ mk (Movi (6, 111L)); mk (Br (Out Exit_program)) ]; (* 3 *)
        add [ mk (Movi (6, 222L)); mk (Br (Out Exit_program)) ]; (* 4 recovery *)
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "expected exit");
        Alcotest.check Alcotest.int64 "recovery ran" 222L (Machine.get m 6);
        check bool "NaT set" true (Machine.get_nat m 5));
    Alcotest.test_case "NaT propagates through ALU" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x90000L)) ];
        add [ mk (Ld (4, Ld_s, 5, 4)) ];
        add [ mk (Addi (6, 1, 5)) ]; (* NaT propagates *)
        add [ mk (Chk_s (6, To 5)) ];
        add [ mk (Movi (7, 1L)); mk (Br (Out Exit_program)) ];
        add [ mk (Movi (7, 2L)); mk (Br (Out Exit_program)) ];
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        Alcotest.check Alcotest.int64 "recovered" 2L (Machine.get m 7));
    Alcotest.test_case "alat: store invalidates, chk.a recovers" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        Ia32.Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
        Ia32.Memory.write32 mem 0x1010 1;
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x1010L)); mk (Movi (5, 99L)) ]; (* 0 *)
        add [ mk (Ld (4, Ld_a, 6, 4)) ]; (* 1: advanced load, r6=1 *)
        add [ mk (St (4, 4, 5)) ]; (* 2: overlapping store kills entry *)
        add [ mk (Chk_a (6, To 5)) ]; (* 3 *)
        add [ mk (Br (Out Exit_program)) ]; (* 4: not reached *)
        add [ mk (Ld (4, Ld_none, 6, 4)); mk (Br (Out Exit_program)) ]; (* 5: reload *)
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        Alcotest.check Alcotest.int64 "reloaded fresh value" 99L (Machine.get m 6));
    Alcotest.test_case "alat: deferred-fault ld.sa kills stale entry" `Quick
      (fun () ->
        (* a successful ld.a leaves an ALAT entry for r6; a later ld.sa
           into the same register that faults must both set NaT and
           remove that stale entry, or its chk.a would wrongly pass *)
        let mem = Ia32.Memory.create () in
        Ia32.Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
        Ia32.Memory.write32 mem 0x1010 7;
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x1010L)); mk (Movi (5, 0x9000L)) ]; (* 0: 0x9000 unmapped *)
        add [ mk (Ld (4, Ld_a, 6, 4)) ]; (* 1: entry for r6 *)
        add [ mk (Ld (4, Ld_sa, 6, 5)) ]; (* 2: faults -> NaT, entry dies *)
        add [ mk (Chk_a (6, To 5)) ]; (* 3: must fire *)
        add [ mk (Br (Out Exit_program)) ]; (* 4: not reached *)
        add [ mk (Movi (7, 42L)); mk (Br (Out Exit_program)) ]; (* 5: recovery *)
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        Alcotest.check Alcotest.int64 "recovery ran" 42L (Machine.get m 7));
    Alcotest.test_case "ld.sa defers misalignment too" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        Ia32.Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x1011L)) ]; (* misaligned for a 4-byte load *)
        add [ mk (Ld (4, Ld_sa, 6, 4)) ];
        add [ mk (Chk_a (6, To 4)) ];
        add [ mk (Br (Out Exit_program)) ];
        add [ mk (Movi (7, 9L)); mk (Br (Out Exit_program)) ];
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit (no fault expected)");
        Alcotest.check Alcotest.int64 "recovery ran" 9L (Machine.get m 7));
    Alcotest.test_case "alat: disjoint store keeps entry" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        Ia32.Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
        Ia32.Memory.write32 mem 0x1010 7;
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x1010L)); mk (Movi (5, 0x1020L)) ];
        add [ mk (Ld (4, Ld_a, 6, 4)) ];
        add [ mk (St (4, 5, 5)) ]; (* disjoint *)
        add [ mk (Chk_a (6, To 5)) ];
        add [ mk (Movi (7, 1L)); mk (Br (Out Exit_program)) ];
        add [ mk (Movi (7, 2L)); mk (Br (Out Exit_program)) ];
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        Alcotest.check Alcotest.int64 "no recovery" 1L (Machine.get m 7);
        Alcotest.check Alcotest.int64 "value kept" 7L (Machine.get m 6));
    Alcotest.test_case "fp ops" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, Int64.of_int (Ia32.Fpconv.bits_of_f32 1.5))) ];
              [ mk (Setf_s (4, 4)) ];
              [ mk (Fadd (5, 4, 1)) ]; (* 1.5 + 1.0 *)
              [ mk (Fmul (6, 5, 5)) ]; (* 6.25 *)
              [ mk (Getf_d (7, 6)) ] ]
        in
        expect_exit stop;
        Alcotest.check (Alcotest.float 0.0) "6.25" 6.25
          (Ia32.Fpconv.f64_of_bits (Machine.get m 7)));
    Alcotest.test_case "fcvt round-to-even" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, Ia32.Fpconv.bits_of_f64 2.5)) ];
              [ mk (Setf_d (4, 4)) ];
              [ mk (Fcvt_fx (5, 4)) ];
              [ mk (Fcvt_fxt (6, 4)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "rne" 2L (Machine.get m 5);
        Alcotest.check Alcotest.int64 "trunc" 2L (Machine.get m 6));
    Alcotest.test_case "parallel add lanes" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, 0x0001000200030004L)); mk (Movi (5, 0x0010002000300040L)) ];
              [ mk (Padd (2, 6, 4, 5)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "lanes" 0x0011002200330044L (Machine.get m 6));
    Alcotest.test_case "dep/extr" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, 0xFFFFFFFFFFFFFFFFL)); mk (Movi (5, 0xABL)) ];
              [ mk (Dep (6, 5, 4, 8, 8)) ];
              [ mk (Extru (7, 6, 8, 8)) ];
              [ mk (Extr (8, 6, 8, 8)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "dep" 0xFFFFFFFFFFFFABFFL (Machine.get m 6);
        Alcotest.check Alcotest.int64 "extru" 0xABL (Machine.get m 7);
        Alcotest.check Alcotest.int64 "extr signed" (-85L) (Machine.get m 8));
    Alcotest.test_case "tbit" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, 0x4L)) ];
              [ mk (Tbit (1, 2, 4, 2)) ];
              [ mk ~qp:1 (Movi (5, 1L)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "bit set" 1L (Machine.get m 5));
    Alcotest.test_case "branch loop with counter" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 10L)); mk (Movi (5, 0L)) ]; (* 0 *)
        add [ mk (Add (5, 5, 4)) ]; (* 1: sum += i *)
        add [ mk (Addi (4, -1, 4)) ]; (* 2 *)
        add [ mk (Cmpi (Ceq, Cnorm, 1, 2, 0, 4)); mk ~qp:2 (Br (To 1)) ]; (* 3 *)
        add [ mk (Br (Out Exit_program)) ]; (* 4 *)
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        Alcotest.check Alcotest.int64 "sum 10..1" 55L (Machine.get m 5));
    Alcotest.test_case "br_ind through branch register" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 3L)) ]; (* 0: bundle index 3 *)
        add [ mk (Mov_to_br (1, 4)) ]; (* 1 *)
        add [ mk (Br_ind 1) ]; (* 2 *)
        add [ mk (Movi (5, 42L)); mk (Br (Out Exit_program)) ]; (* 3 *)
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        Alcotest.check Alcotest.int64 "landed" 42L (Machine.get m 5));
    Alcotest.test_case "exit reasons pass through" `Quick (fun () ->
        let mem = Ia32.Memory.create () in
        let tc = Tcache.create () in
        ignore
          (Tcache.append tc
             (Bundle.make ~stop_end:true [ mk (Br (Out (Dispatch 0x401000))) ]));
        let m = Machine.create mem tc in
        match exec m with
        | Machine.Exited (Dispatch 0x401000) -> ()
        | _ -> Alcotest.fail "expected dispatch exit");
    Alcotest.test_case "storing a NaT value faults" `Quick (fun () ->
        let _, _, stop =
          run_prog
            [ [ mk (Movi (4, 0x1000L)); mk (Movi (5, 0x90000L)) ];
              [ mk (Ld (4, Ld_s, 6, 5)) ]; (* r6 NaT *)
              [ mk (St (4, 4, 6)) ] ]
        in
        match stop with
        | Machine.Faulted f ->
          check bool "NaT consumption" true (f.Machine.kind = Machine.F_nat);
          check bool "by the store" true f.Machine.store
        | _ -> Alcotest.fail "expected a NaT fault");
    Alcotest.test_case "alat: ld.s from a NaT address kills stale entry"
      `Quick (fun () ->
        (* the NaT-address path of a speculative load must drop the
           target's ALAT entry just as the faulting path does *)
        let mem = Ia32.Memory.create () in
        Ia32.Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
        let tc = Tcache.create () in
        let add insns = ignore (Tcache.append tc (Bundle.make ~stop_end:true insns)) in
        add [ mk (Movi (4, 0x1010L)); mk (Movi (5, 0x9000L)) ]; (* 0 *)
        add [ mk (Ld (4, Ld_a, 6, 4)); mk (Ld (4, Ld_s, 8, 5)) ]; (* 1: r8 NaT *)
        add [ mk (Ld (4, Ld_s, 6, 8)) ]; (* 2: NaT address, entry dies *)
        add [ mk (Chk_a (6, To 5)) ]; (* 3: must fire *)
        add [ mk (Br (Out Exit_program)) ]; (* 4: not reached *)
        add [ mk (Movi (7, 42L)); mk (Br (Out Exit_program)) ]; (* 5: recovery *)
        let m = Machine.create mem tc in
        (match exec m with
        | Machine.Exited Exit_program -> ()
        | _ -> Alcotest.fail "exit");
        check bool "NaT set" true (Machine.get_nat m 6);
        Alcotest.check Alcotest.int64 "recovery ran" 42L (Machine.get m 7));
    Alcotest.test_case "shrs clamps counts past 63" `Quick (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, -8L)); mk (Movi (5, 100L)) ];
              [ mk (Shrs (6, 4, 5)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "sign fill" (-1L) (Machine.get m 6));
    Alcotest.test_case "xmah: signed high word" `Quick (fun () ->
        (* -1 * 2 = -2: the high word is all ones, and the middle partial
           sum is negative, so it must shift arithmetically *)
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, -1L)); mk (Movi (5, 2L)) ];
              [ mk (Xmah (6, 4, 5, 0)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "high word" (-1L) (Machine.get m 6));
    Alcotest.test_case "cmp.and clears only on a false compare" `Quick
      (fun () ->
        let m, _, stop =
          run_prog
            [ [ mk (Movi (4, 7L)) ];
              [ mk (Setp (1, true)); mk (Setp (2, true)); mk (Setp (3, true)) ];
              [ mk (Setp (5, true)) ];
              [ mk (Cmpi (Ceq, Cand_, 1, 2, 7, 4));
                mk (Cmpi (Ceq, Cand_, 3, 5, 8, 4)) ];
              [ mk ~qp:1 (Addi (8, 1, 0)) ];
              [ mk ~qp:2 (Addi (9, 1, 0)) ];
              [ mk ~qp:3 (Addi (10, 1, 0)) ];
              [ mk ~qp:5 (Addi (11, 1, 0)) ] ]
        in
        expect_exit stop;
        Alcotest.check Alcotest.int64 "true compare keeps p1" 1L (Machine.get m 8);
        Alcotest.check Alcotest.int64 "true compare keeps p2" 1L (Machine.get m 9);
        Alcotest.check Alcotest.int64 "false compare clears p3" 0L (Machine.get m 10);
        Alcotest.check Alcotest.int64 "false compare clears p5" 0L (Machine.get m 11));
  ]

let timing_tests =
  let open Insn in
  [
    Alcotest.test_case "wide group cheaper than serialized" `Quick (fun () ->
        (* 6 independent adds in 2 bundles/1 group vs 6 groups *)
        let run_groups grouped =
          let mem = Ia32.Memory.create () in
          let tc = Tcache.create () in
          let insns k = mk (Addi (4 + k, 1, 0)) in
          if grouped then begin
            ignore
              (Tcache.append tc (Bundle.make [ insns 0; insns 1; insns 2 ]));
            ignore
              (Tcache.append tc
                 (Bundle.make ~stop_end:true [ insns 3; insns 4; insns 5 ]))
          end
          else
            List.iter
              (fun k ->
                ignore (Tcache.append tc (Bundle.make ~stop_end:true [ insns k ])))
              [ 0; 1; 2; 3; 4; 5 ];
          ignore
            (Tcache.append tc
               (Bundle.make ~stop_end:true [ mk (Br (Out Exit_program)) ]));
          let m = Machine.create mem tc in
          (match exec m with
          | Machine.Exited Exit_program -> ()
          | _ -> Alcotest.fail "exit");
          m.Machine.stats.Machine.cycles
        in
        let wide = run_groups true and narrow = run_groups false in
        check bool
          (Printf.sprintf "wide (%d) < narrow (%d)" wide narrow)
          true (wide < narrow));
    Alcotest.test_case "load-use stall visible" `Quick (fun () ->
        let run_consumer immediate =
          let mem = Ia32.Memory.create () in
          Ia32.Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
          let tc = Tcache.create () in
          let add insns =
            ignore (Tcache.append tc (Bundle.make ~stop_end:true insns))
          in
          add [ mk (Movi (4, 0x1000L)) ];
          if immediate then begin
            add [ mk (Ld (4, Ld_none, 5, 4)) ];
            add [ mk (Addi (6, 1, 5)) ] (* consumes load immediately *)
          end
          else begin
            add [ mk (Ld (4, Ld_none, 5, 4)) ];
            add [ mk (Addi (7, 1, 0)) ];
            add [ mk (Addi (8, 2, 0)) ];
            add [ mk (Addi (9, 3, 0)) ];
            add [ mk (Addi (6, 1, 5)) ]
          end;
          add [ mk (Br (Out Exit_program)) ];
          let m = Machine.create mem tc in
          (match exec m with
          | Machine.Exited Exit_program -> ()
          | _ -> Alcotest.fail "exit");
          m.Machine.stats.Machine.cycles
        in
        (* with filler work the stall is hidden: same or fewer cycles per
           useful instruction; just assert both run and immediate-use is not
           cheaper than one with the load distance covered *)
        let tight = run_consumer true in
        let spaced = run_consumer false in
        check bool
          (Printf.sprintf "tight=%d spaced=%d" tight spaced)
          true (tight >= spaced - 3));
    Alcotest.test_case "dcache miss then hit" `Quick (fun () ->
        let d = Dcache.create () in
        let miss = Dcache.access d 0x1000 in
        let hit = Dcache.access d 0x1000 in
        check bool "miss cost" true (miss > 0);
        check int "hit free" 0 hit;
        let s = Dcache.stats d in
        check int "hits" 1 s.Dcache.l1_hits;
        check int "misses" 1 s.Dcache.l1_misses);
    Alcotest.test_case "dcache capacity eviction" `Quick (fun () ->
        let d = Dcache.create ~l1_size:1024 ~l1_assoc:2 ~l1_line:64 () in
        (* touch 3 lines mapping to the same set of a 2-way cache *)
        let stride = 1024 / 2 in
        ignore (Dcache.access d 0);
        ignore (Dcache.access d stride);
        ignore (Dcache.access d (2 * stride));
        let again = Dcache.access d 0 in
        check bool "evicted" true (again > 0));
    Alcotest.test_case "dcache rejects non-power-of-two sets" `Quick (fun () ->
        (* 3 KiB, 2-way, 64-byte lines: 24 sets *)
        match Dcache.create ~l1_size:3072 ~l1_assoc:2 ~l1_line:64 () with
        | _ -> Alcotest.fail "24 sets accepted"
        | exception Invalid_argument _ -> ());
  ]

(* ---------------- dcache against a model ---------------- *)

(* The dcache as a plain set search: every access looks for its line in
   the set's ways, and a miss fills the least recently used one. *)
module Model = struct
  type level = {
    set_mask : int;
    assoc : int;
    line_bits : int;
    tags : int array;
    lru : int array;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let level ~size ~assoc ~line =
    let sets = size / (assoc * line) in
    let rec bits n = if n <= 1 then 0 else 1 + bits (n lsr 1) in
    {
      set_mask = sets - 1;
      assoc;
      line_bits = bits line;
      tags = Array.make (sets * assoc) (-1);
      lru = Array.make (sets * assoc) 0;
      tick = 0;
      hits = 0;
      misses = 0;
    }

  let access_level l addr =
    let line = addr lsr l.line_bits in
    let base = (line land l.set_mask) * l.assoc in
    l.tick <- l.tick + 1;
    let rec find w =
      if w >= l.assoc then -1 else if l.tags.(base + w) = line then w else find (w + 1)
    in
    let w = find 0 in
    if w >= 0 then begin
      l.lru.(base + w) <- l.tick;
      l.hits <- l.hits + 1;
      true
    end
    else begin
      let victim = ref 0 in
      for w = 1 to l.assoc - 1 do
        if l.lru.(base + w) < l.lru.(base + !victim) then victim := w
      done;
      l.tags.(base + !victim) <- line;
      l.lru.(base + !victim) <- l.tick;
      l.misses <- l.misses + 1;
      false
    end

  let copy l = { l with tags = Array.copy l.tags; lru = Array.copy l.lru }

  let restore l k =
    Array.blit k.tags 0 l.tags 0 (Array.length l.tags);
    Array.blit k.lru 0 l.lru 0 (Array.length l.lru);
    l.tick <- k.tick;
    l.hits <- k.hits;
    l.misses <- k.misses
end

type dc_op = Access of int | Near of int | Save | Load

let gen_dc_ops =
  let open QCheck.Gen in
  list_size (int_range 1 300)
    (frequency
       [
         (4, map (fun a -> Access a) (int_bound 0x3FFF));
         (4, map (fun d -> Near d) (int_range (-8) 70));
         (1, return Save);
         (1, return Load);
       ])

let print_dc_op = function
  | Access a -> Printf.sprintf "access %#x" a
  | Near d -> Printf.sprintf "near %+d" d
  | Save -> "checkpoint"
  | Load -> "restore"

(* Random address streams, many of them within a line or two of the last
   access, with checkpoints and restores mixed in: every access returns
   what the model's does, and the counters, tags, LRU ranks and ticks
   read back through a checkpoint match the model's. *)
let test_dcache_model =
  QCheck.Test.make ~count:500 ~name:"dcache-matches-set-search"
    (QCheck.make ~print:QCheck.Print.(list print_dc_op) gen_dc_ops)
    (fun ops ->
      let d =
        Dcache.create ~l1_size:1024 ~l1_assoc:2 ~l1_line:64 ~l2_size:4096
          ~l2_assoc:4 ~l2_line:128 ()
      in
      let l1 = Model.level ~size:1024 ~assoc:2 ~line:64
      and l2 = Model.level ~size:4096 ~assoc:4 ~line:128 in
      let model addr =
        if Model.access_level l1 addr then 0
        else if Model.access_level l2 addr then 7
        else 87
      in
      let saved = ref None and last = ref 0 in
      let same () =
        let st = Dcache.stats d in
        st.Dcache.l1_hits = l1.Model.hits
        && st.Dcache.l1_misses = l1.Model.misses
        && st.Dcache.l2_hits = l2.Model.hits
        && st.Dcache.l2_misses = l2.Model.misses
        && Dcache.levels (Dcache.checkpoint d)
           = List.map (fun l -> (l.Model.tags, l.Model.lru, l.Model.tick)) [ l1; l2 ]
      in
      List.for_all
        (fun op ->
          (match op with
          | Access a | Near a ->
            let addr =
              match op with Near _ -> max 0 (!last + a) | _ -> a
            in
            last := addr;
            let got = Dcache.access d addr and want = model addr in
            if got <> want then
              QCheck.Test.fail_reportf "access %#x: %d, the model %d" addr got
                want
          | Save -> saved := Some (Dcache.checkpoint d, Model.copy l1, Model.copy l2)
          | Load ->
            Option.iter
              (fun (k, k1, k2) ->
                Dcache.restore d k;
                Model.restore l1 k1;
                Model.restore l2 k2)
              !saved);
          same ())
        ops)

let () =
  Alcotest.run "ipf"
    [
      ("bundle", bundle_tests);
      ("machine", machine_tests);
      ("timing", timing_tests);
      ( "dcache",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0xdc |])
            test_dcache_model;
        ] );
    ]
