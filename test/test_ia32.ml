(* Tests for the IA-32 substrate: word arithmetic, memory, FPU stack,
   encoder/decoder round-trip (unit vectors + qcheck property), interpreter
   semantics, and the assembler DSL. *)

open Ia32

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------------------------------------------------------- *)
(* Word                                                              *)
(* ---------------------------------------------------------------- *)

let word_tests =
  [
    Alcotest.test_case "mask32 wraps" `Quick (fun () ->
        check int "wrap" 0 (Word.mask32 0x100000000);
        check int "neg" 0xFFFFFFFF (Word.mask32 (-1)));
    Alcotest.test_case "signed8" `Quick (fun () ->
        check int "0xFF" (-1) (Word.signed8 0xFF);
        check int "0x7F" 127 (Word.signed8 0x7F);
        check int "0x80" (-128) (Word.signed8 0x80));
    Alcotest.test_case "signed32" `Quick (fun () ->
        check int "max" 0x7FFFFFFF (Word.signed32 0x7FFFFFFF);
        check int "min" (-0x80000000) (Word.signed32 0x80000000));
    Alcotest.test_case "parity" `Quick (fun () ->
        check bool "0" true (Word.parity 0);
        check bool "1" false (Word.parity 1);
        check bool "3" true (Word.parity 3);
        check bool "7" false (Word.parity 7);
        check bool "only low byte" true (Word.parity 0x100));
    Alcotest.test_case "sign_bit" `Quick (fun () ->
        check bool "byte" true (Word.sign_bit 1 0x80);
        check bool "word" false (Word.sign_bit 2 0x7FFF);
        check bool "dword" true (Word.sign_bit 4 0x80000000));
    Alcotest.test_case "i64 split/join" `Quick (fun () ->
        let v = 0x123456789ABCDEF0L in
        check int "lo" 0x9ABCDEF0 (Word.lo32 v);
        check int "hi" 0x12345678 (Word.hi32 v);
        Alcotest.check Alcotest.int64 "join" v
          (Word.to_i64 ~lo:0x9ABCDEF0 ~hi:0x12345678));
  ]

(* ---------------------------------------------------------------- *)
(* Memory                                                            *)
(* ---------------------------------------------------------------- *)

let mem_tests =
  let open Memory in
  [
    Alcotest.test_case "read/write round trip" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rw;
        write32 m 0x1000 0xDEADBEEF;
        check int "read32" 0xDEADBEEF (read32 m 0x1000);
        check int "read8" 0xEF (read8 m 0x1000);
        check int "read16" 0xBEEF (read16 m 0x1000);
        check int "read16 hi" 0xDEAD (read16 m 0x1002));
    Alcotest.test_case "little endian" `Quick (fun () ->
        let m = create () in
        map m ~addr:0 ~len:0x1000 ~prot:prot_rw;
        write32 m 0 0x04030201;
        check int "b0" 1 (read8 m 0);
        check int "b3" 4 (read8 m 3));
    Alcotest.test_case "page straddle" `Quick (fun () ->
        let m = create () in
        map m ~addr:0 ~len:0x2000 ~prot:prot_rw;
        write32 m 0xFFE 0x11223344;
        check int "straddle" 0x11223344 (read32 m 0xFFE));
    Alcotest.test_case "unmapped faults" `Quick (fun () ->
        let m = create () in
        Alcotest.check_raises "pf"
          (Fault.Fault (Fault.Page_fault (0x5000, Fault.Read)))
          (fun () -> ignore (read8 m 0x5000)));
    Alcotest.test_case "write to read-only faults" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rx;
        Alcotest.check_raises "pf"
          (Fault.Fault (Fault.Page_fault (0x1000, Fault.Write)))
          (fun () -> write8 m 0x1000 1));
    Alcotest.test_case "exec permission" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        Alcotest.check_raises "fetch fault"
          (Fault.Fault (Fault.Page_fault (0x1000, Fault.Fetch)))
          (fun () -> ignore (fetch8 m 0x1000)));
    Alcotest.test_case "write watch fires on watched page" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rwx;
        let hits = ref [] in
        set_write_watch m (Some (fun a w -> hits := (a, w) :: !hits));
        watch_page m 0x1000;
        write32 m 0x1004 42;
        write32 m 0x2004 42;
        (* unwatched page *)
        check int "one hit" 1 (List.length !hits);
        check bool "addr" true (List.mem (0x1004, 4) !hits));
    Alcotest.test_case "load_bytes bypasses watch" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rwx;
        let hits = ref 0 in
        set_write_watch m (Some (fun _ _ -> incr hits));
        watch_page m 0x1000;
        load_bytes m 0x1000 "abcd";
        check int "no hits" 0 !hits;
        check int "loaded" (Char.code 'a') (read8 m 0x1000));
    Alcotest.test_case "copy and diff" `Quick (fun () ->
        let m = create () in
        map m ~addr:0 ~len:0x1000 ~prot:prot_rw;
        write32 m 0x10 7;
        let m2 = copy m in
        check bool "equal" true (equal m m2);
        write8 m2 0x20 1;
        check bool "not equal" false (equal m m2);
        check (Alcotest.option int) "diff addr" (Some 0x20) (first_diff m m2));
  ]

(* ------------------------------------------------------------------ *)
(* Demand-zero pages: every fresh page reads one shared zero buffer     *)
(* until its first store gives it its own                                *)
(* ------------------------------------------------------------------ *)

let zeros n = String.make n '\000'

(* A page mapped in a brand-new memory reads the shared zero buffer, so
   this fails if anything ever stored into it. *)
let check_zero_buffer_clean msg =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:Memory.page_size ~prot:Memory.prot_rw;
  check Alcotest.string msg (zeros Memory.page_size)
    (Memory.dump_bytes m 0x1000 Memory.page_size)

let demand_zero_tests =
  let open Memory in
  [
    Alcotest.test_case "fresh pages read zero" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x3000 ~prot:prot_rw;
        check Alcotest.string "all three pages" (zeros 0x3000)
          (dump_bytes m 0x1000 0x3000);
        check int "read32 straddling" 0 (read32 m 0x1FFE));
    Alcotest.test_case "first write is private to its memory" `Quick
      (fun () ->
        let a = create () and b = create () in
        map a ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        map b ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        let c = copy a in
        write8 a 0x1234 0x5A;
        check int "A sees it" 0x5A (read8 a 0x1234);
        check int "B does not" 0 (read8 b 0x1234);
        check int "copy A does not" 0 (read8 c 0x1234);
        write32 c 0x1000 0xCAFE;
        check int "nor does A see the copy's write" 0 (read32 a 0x1000);
        check int "a later copy shares A's bytes" 0x5A
          (read8 (copy a) 0x1234);
        check_zero_buffer_clean "zero buffer untouched");
    Alcotest.test_case "first write bumps the generation once" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rw;
        let g1 = page_gen m 0x1000 and g2 = page_gen m 0x2000 in
        check int "map draws one per page" (g1 + 1) g2;
        write8 m 0x1000 1;
        check int "write8" (g2 + 1) (page_gen m 0x1000);
        write32 m 0x2000 1;
        check int "write32" (g2 + 2) (page_gen m 0x2000);
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rw;
        let g2 = page_gen m 0x2000 in
        load_bytes m 0x1FFE "abcd";
        check int "load_bytes: first page once" (g2 + 1) (page_gen m 0x1000);
        check int "load_bytes: second page once" (g2 + 2) (page_gen m 0x2000));
    Alcotest.test_case "revert across the first write restores zero" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rw;
        let g1 = page_gen m 0x1000 and g2 = page_gen m 0x2000 in
        Journal.push m;
        write32 m 0x1000 0xDEADBEEF;
        load_bytes m 0x2000 "xyz";
        unmap m ~addr:0x2000 ~len:0x1000;
        ignore (Journal.revert m);
        check Alcotest.string "bytes back to zero" (zeros 0x2000)
          (dump_bytes m 0x1000 0x2000);
        check int "first page generation" g1 (page_gen m 0x1000);
        check int "unmapped page generation" g2 (page_gen m 0x2000);
        (* the reverted pages write privately again *)
        Journal.push m;
        write8 m 0x1000 7;
        write8 m 0x2000 9;
        check int "rewritten" 7 (read8 m 0x1000);
        ignore (Journal.revert m);
        check int "reverted again" 0 (read8 m 0x2000);
        check_zero_buffer_clean "revert never writes the zero buffer");
    Alcotest.test_case "revert to a written page after a fresh remap" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        write32 m 0x1000 0x1111;
        Journal.push m;
        unmap m ~addr:0x1000 ~len:0x1000;
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        check int "remap reads zero" 0 (read32 m 0x1000);
        ignore (Journal.revert m);
        check int "pre-image back" 0x1111 (read32 m 0x1000);
        check_zero_buffer_clean "zero buffer untouched");
    Alcotest.test_case "negative sbrk unmap then remap reads zero" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x10000 ~prot:prot_rw;
        let st = State.create m in
        State.set32 st Insn.Esp 0x10000;
        let vos = Btlib.Vos.create m in
        let sbrk n =
          match Btlib.Vos.perform vos st (Btlib.Syscall.Sbrk n) with
          | Btlib.Syscall.Ret v -> v
          | _ -> Alcotest.fail "sbrk"
        in
        let base = sbrk 8192 in
        let top = base + 4096 in
        write32 m top 0xFEEDFACE;
        load_bytes m (top + 8) "dirty";
        ignore (sbrk (-4096));
        check bool "freed page unmapped" false (is_mapped m top);
        ignore (sbrk 4096);
        check Alcotest.string "regrown page reads zero" (zeros page_size)
          (dump_bytes m top page_size));
    Alcotest.test_case "load_bytes faults at the first unmapped byte" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rx;
        Alcotest.check_raises "fault names the next page"
          (Fault.Fault (Fault.Page_fault (0x2000, Fault.Write)))
          (fun () -> load_bytes m 0x1FFE "abcd");
        check Alcotest.string "mapped prefix written despite rx" "ab"
          (dump_bytes m 0x1FFE 2);
        Alcotest.check_raises "unmapped start"
          (Fault.Fault (Fault.Page_fault (0x3005, Fault.Write)))
          (fun () -> load_bytes m 0x3005 "x");
        load_bytes m 0x1000 "";
        check int "empty load is a no-op" 0 (read8 m 0x1000));
    Alcotest.test_case "dump_bytes spans pages and faults like read8" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x3000 ~prot:prot_rw;
        let s = String.init 0x2000 (fun i -> Char.chr (i land 0xFF)) in
        load_bytes m 0x1F80 s;
        check Alcotest.string "round trip over three pages" s
          (dump_bytes m 0x1F80 0x2000);
        check Alcotest.string "empty" "" (dump_bytes m 0x5000 0);
        Alcotest.check_raises "unmapped tail"
          (Fault.Fault (Fault.Page_fault (0x4000, Fault.Read)))
          (fun () -> ignore (dump_bytes m 0x3FF0 0x20));
        protect m ~addr:0x2000 ~len:0x1000
          ~prot:{ read = false; write = true; exec = false };
        Alcotest.check_raises "unreadable middle page"
          (Fault.Fault (Fault.Page_fault (0x2000, Fault.Read)))
          (fun () -> ignore (dump_bytes m 0x1FF0 0x20)));
    Alcotest.test_case "zero buffer still zero after workload runs" `Quick
      (fun () ->
        let run (w : Workloads.Common.t) ?request () =
          let image = w.Workloads.Common.build ~scale:1 ~wide:false in
          let inst = Ia32el.Instance.create image in
          ignore (Ia32el.Instance.run ?request inst)
        in
        run Workloads.Spec_int.gzip ();
        run Workloads.Sysmark.office ();
        run Workloads.Serve_echo.workload
          ~request:(String.init 256 (fun i -> Char.chr (i * 7 land 0xFF)))
          ();
        (* fork-server inputs: copy, journal epochs and reverts *)
        let srv =
          Harness.Fuzz.server_start
            (Harness.Fuzz.generate ~rng:(Harness.Fuzz.Rng.create 5)
               ~max_insns:40 0)
        in
        for i = 0 to 7 do
          ignore (Harness.Fuzz.server_run srv [ (i * 13, 0xFF - i) ])
        done;
        check_zero_buffer_clean "fresh page after the runs");
  ]

(* ---------------------------------------------------------------- *)
(* FPU                                                               *)
(* ---------------------------------------------------------------- *)

(* ------------------------------------------------------------------ *)
(* Memory.Journal: nested copy-on-write epochs over page mutations      *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  let open Memory in
  [
    Alcotest.test_case "revert restores bytes, prot and generation" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        write32 m 0x1000 0xAAAA;
        let gen0 = page_gen m 0x1000 in
        Journal.push m;
        write32 m 0x1000 0xBBBB;
        protect m ~addr:0x1000 ~len:0x1000 ~prot:prot_rx;
        check bool "gen moved" true (page_gen m 0x1000 <> gen0);
        let touched = Journal.revert m in
        check int "one page touched" 1 (List.length touched);
        check int "bytes restored" 0xAAAA (read32 m 0x1000);
        check bool "prot restored" true (prot_of m 0x1000 = Some prot_rw);
        check int "generation restored" gen0 (page_gen m 0x1000));
    Alcotest.test_case "nested epochs: commit folds into parent" `Quick
      (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x1000 ~prot:prot_rw;
        write32 m 0x1000 1;
        Journal.push m;
        write32 m 0x1000 2;
        Journal.push m;
        write32 m 0x1000 3;
        Journal.commit m;
        (* inner changes survive the commit... *)
        check int "committed value" 3 (read32 m 0x1000);
        check int "one epoch left" 1 (Journal.depth m);
        (* ...but the outer epoch can still revert them, to the value
           before ITS pre-image (the parent's older pre-image wins) *)
        ignore (Journal.revert m);
        check int "outer revert" 1 (read32 m 0x1000));
    Alcotest.test_case "nested epochs: inner revert keeps outer intact"
      `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rw;
        write32 m 0x1000 10;
        Journal.push m;
        write32 m 0x1000 20;
        Journal.push m;
        write32 m 0x1000 30;
        write32 m 0x2000 99;
        ignore (Journal.revert m);
        check int "inner reverted" 20 (read32 m 0x1000);
        check int "inner page reverted" 0 (read32 m 0x2000);
        ignore (Journal.revert m);
        check int "outer reverted" 10 (read32 m 0x1000));
    Alcotest.test_case "revert remaps an unmapped page" `Quick (fun () ->
        let m = create () in
        map m ~addr:0x3000 ~len:0x1000 ~prot:prot_rwx;
        write32 m 0x3000 0x1234;
        Journal.push m;
        unmap m ~addr:0x3000 ~len:0x1000;
        check bool "unmapped" false (is_mapped m 0x3000);
        ignore (Journal.revert m);
        check bool "remapped" true (is_mapped m 0x3000);
        check int "bytes back" 0x1234 (read32 m 0x3000);
        check bool "prot back" true (prot_of m 0x3000 = Some prot_rwx));
    Alcotest.test_case "revert unmaps a page mapped inside the epoch" `Quick
      (fun () ->
        let m = create () in
        Journal.push m;
        map m ~addr:0x4000 ~len:0x1000 ~prot:prot_rw;
        write32 m 0x4000 7;
        ignore (Journal.revert m);
        check bool "gone again" false (is_mapped m 0x4000));
    Alcotest.test_case "revert cost is O(pages touched)" `Quick (fun () ->
        (* map a large space, touch exactly K pages many times each: the
           restoration counter must advance by exactly K, independent of
           the 64 mapped pages and of the number of writes *)
        let m = create () in
        map m ~addr:0x10000 ~len:(64 * page_size) ~prot:prot_rw;
        let before = Journal.pages_restored m in
        Journal.push m;
        let k = 5 in
        for p = 0 to k - 1 do
          for i = 0 to 99 do
            write32 m (0x10000 + (p * page_size) + (4 * i)) (p + i)
          done
        done;
        check int "touched tracks distinct pages" k (Journal.touched m);
        let touched = Journal.revert m in
        check int "touched pages returned" k (List.length touched);
        check int "pages restored == pages touched" k
          (Journal.pages_restored m - before));
  ]

let fpu_tests =
  [
    Alcotest.test_case "push/pop moves top" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.push f 1.0;
        check int "top" 7 f.Fpu.top;
        Fpu.push f 2.0;
        check int "top2" 6 f.Fpu.top;
        Alcotest.check (Alcotest.float 0.0) "st0" 2.0 (Fpu.get f 0);
        Alcotest.check (Alcotest.float 0.0) "st1" 1.0 (Fpu.get f 1);
        Fpu.pop f;
        Alcotest.check (Alcotest.float 0.0) "st0 after pop" 1.0 (Fpu.get f 0));
    Alcotest.test_case "underflow faults" `Quick (fun () ->
        let f = Fpu.create () in
        Alcotest.check_raises "stack fault" (Fault.Fault Fault.Fp_stack_fault)
          (fun () -> ignore (Fpu.get f 0)));
    Alcotest.test_case "overflow faults" `Quick (fun () ->
        let f = Fpu.create () in
        for k = 1 to 8 do
          Fpu.push f (Float.of_int k)
        done;
        Alcotest.check_raises "stack fault" (Fault.Fault Fault.Fp_stack_fault)
          (fun () -> Fpu.push f 9.0));
    Alcotest.test_case "fxch swaps" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.push f 1.0;
        Fpu.push f 2.0;
        Fpu.fxch f 1;
        Alcotest.check (Alcotest.float 0.0) "st0" 1.0 (Fpu.get f 0);
        Alcotest.check (Alcotest.float 0.0) "st1" 2.0 (Fpu.get f 1));
    Alcotest.test_case "compare sets condition codes" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.push f 1.0;
        Fpu.compare_with f 2.0;
        check bool "c0 (lt)" true f.Fpu.c0;
        Fpu.compare_with f 1.0;
        check bool "c3 (eq)" true f.Fpu.c3;
        Fpu.compare_with f 0.5;
        check bool "gt" false (f.Fpu.c0 || f.Fpu.c3 || f.Fpu.c2));
    Alcotest.test_case "status word encodes top" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.push f 1.0;
        check int "top field" 7 ((Fpu.status_word f lsr 11) land 7));
    Alcotest.test_case "mmx aliasing resets top and tags" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.push f 1.0;
        Fpu.mmx_set f 3 42L;
        check int "top reset" 0 f.Fpu.top;
        check bool "all valid" true (Array.for_all (( = ) Fpu.Valid) f.Fpu.tags);
        Alcotest.check Alcotest.int64 "mm3" 42L (Fpu.mmx_get f 3));
    Alcotest.test_case "emms empties" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.mmx_set f 0 1L;
        Fpu.emms f;
        check bool "all empty" true (Array.for_all (( = ) Fpu.Empty) f.Fpu.tags));
    Alcotest.test_case "fp write refreshes mmx image" `Quick (fun () ->
        let f = Fpu.create () in
        Fpu.push f 3.5;
        let p = Fpu.phys f 0 in
        Alcotest.check Alcotest.int64 "bits" (Int64.bits_of_float 3.5)
          f.Fpu.ival.(p));
    Alcotest.test_case "tag word" `Quick (fun () ->
        let f = Fpu.create () in
        check int "all empty" 0xFFFF (Fpu.tag_word f);
        Fpu.push f 1.0;
        check int "slot7 valid" 0x3FFF (Fpu.tag_word f));
  ]

(* ---------------------------------------------------------------- *)
(* Encoder/decoder: unit vectors                                     *)
(* ---------------------------------------------------------------- *)

let insn_testable =
  Alcotest.testable Insn.pp (fun a b -> a = b)

let hex s =
  String.concat " " (List.init (String.length s) (fun k ->
      Printf.sprintf "%02x" (Char.code s.[k])))

let roundtrip ?(ip = 0x401000) insn =
  let bytes = Encode.encode ~ip insn in
  let mem = Memory.create () in
  Memory.map mem ~addr:(ip land lnot 0xFFF) ~len:0x2000 ~prot:Memory.prot_rwx;
  Memory.load_bytes mem ip bytes;
  let decoded, len = Decode.decode mem ip in
  check int (Printf.sprintf "len of %s [%s]" (Insn.to_string insn) (hex bytes))
    (String.length bytes) len;
  check insn_testable (Printf.sprintf "roundtrip [%s]" (hex bytes)) insn decoded

let enc_vector insn expected =
  let got = Encode.encode ~ip:0x401000 insn in
  check Alcotest.string
    (Printf.sprintf "encoding of %s" (Insn.to_string insn))
    expected (hex got)

let encode_vector_tests =
  let open Insn in
  [
    Alcotest.test_case "known encodings" `Quick (fun () ->
        enc_vector Nop "90";
        enc_vector (Ret 0) "c3";
        enc_vector (Push (R Eax)) "50";
        enc_vector (Pop (R Edi)) "5f";
        enc_vector (Mov (S32, R Eax, I 0x12345678)) "b8 78 56 34 12";
        enc_vector (Alu (Add, S32, R Eax, R Ebx)) "01 d8";
        enc_vector (Alu (Xor, S32, R Ecx, R Ecx)) "31 c9";
        enc_vector (Alu (Cmp, S32, R Eax, I 1)) "83 f8 01";
        enc_vector (Inc (S32, R Eax)) "ff c0";
        enc_vector Cdq "99";
        enc_vector Hlt "f4";
        enc_vector Ud2 "0f 0b";
        enc_vector (Int_n 0x80) "cd 80";
        enc_vector (Fp Fld1) "d9 e8";
        enc_vector (Fp (Fxch 1)) "d9 c9";
        enc_vector (Mmx Emms) "0f 77");
    Alcotest.test_case "modrm/sib addressing forms" `Quick (fun () ->
        enc_vector (Mov (S32, R Eax, M (Insn.mem_b Ebx))) "8b 03";
        enc_vector (Mov (S32, R Eax, M (Insn.mem_bd Ebx 8))) "8b 43 08";
        enc_vector (Mov (S32, R Eax, M (Insn.mem_bd Ebp 0))) "8b 45 00";
        enc_vector (Mov (S32, R Eax, M (Insn.mem_b Esp))) "8b 04 24";
        enc_vector
          (Mov (S32, R Eax, M (Insn.mem_full Ebx Ecx 4 0x10)))
          "8b 44 8b 10";
        enc_vector (Mov (S32, R Eax, M (Insn.mem_abs 0x8000000))) "8b 05 00 00 00 08");
    Alcotest.test_case "branch displacement" `Quick (fun () ->
        (* jmp from 0x401000 to 0x401005 = fallthrough: rel 0 *)
        enc_vector (Jmp 0x401005) "e9 00 00 00 00";
        enc_vector (Jmp 0x401000) "e9 fb ff ff ff");
  ]

let roundtrip_unit_tests =
  let open Insn in
  let m1 = mem_bd Ebx 0x12 in
  let m2 = mem_full Esi Edi 4 (-8 land 0xFFFFFFFF) in
  let m3 = mem_abs 0x8001000 in
  let samples =
    [
      Nop;
      Ret 0;
      Ret 8;
      Cdq;
      Cwde;
      Pushfd;
      Popfd;
      Cld;
      Std;
      Hlt;
      Ud2;
      Int_n 0x80;
      Mov (S32, R Eax, I 0);
      Mov (S8, R Ebx, I 0xAB);
      Mov (S16, R Ecx, I 0xBEEF);
      Mov (S32, M m1, I 0xCAFEBABE);
      Mov (S8, M m2, R Edx);
      Mov (S16, R Esi, M m3);
      Movzx (S8, Eax, R Ecx);
      Movzx (S16, Edx, M m1);
      Movsx (S8, Ebx, M m2);
      Movsx (S16, Edi, R Eax);
      Lea (Eax, m2);
      Alu (Add, S32, R Eax, R Ebx);
      Alu (Adc, S8, M m1, R Ecx);
      Alu (Sbb, S32, R Edx, M m3);
      Alu (Cmp, S32, R Esp, I 0x1000);
      Alu (And, S16, M m2, I 0xFF0);
      Alu (Xor, S32, R Edi, I 0xFFFFFFFF);
      Test (S32, R Eax, R Eax);
      Test (S8, M m1, I 0x80);
      Shift (Shl, S32, R Eax, Amt_imm 1);
      Shift (Shr, S32, M m1, Amt_imm 5);
      Shift (Sar, S8, R Ecx, Amt_cl);
      Shift (Rol, S16, R Edx, Amt_imm 3);
      Shift (Ror, S32, R Ebx, Amt_cl);
      Shld (R Eax, Ebx, Amt_imm 7);
      Shrd (M m1, Ecx, Amt_cl);
      Inc (S32, R Eax);
      Dec (S8, M m1);
      Neg (S32, R Ecx);
      Not (S16, M m2);
      Imul_rr (Eax, R Ebx);
      Imul_rri (Ecx, M m1, 100);
      Imul_rri (Ecx, R Edx, 100000);
      Mul1 (S32, R Ebx);
      Imul1 (S8, M m1);
      Div (S32, R Ecx);
      Idiv (S16, M m2);
      Xchg (S32, M m1, Eax);
      Push (R Ebp);
      Push (I 4);
      Push (I 0x401000);
      Push (M m3);
      Pop (R Esi);
      Pop (M m1);
      Jmp 0x401234;
      Jcc (Ne, 0x400500);
      Jcc (G, 0x401002);
      Call 0x405000;
      Jmp_ind (R Eax);
      Jmp_ind (M m3);
      Call_ind (R Ebx);
      Call_ind (M m1);
      Setcc (E, R Ecx);
      Setcc (Le, M m1);
      Cmovcc (B, Eax, M m2);
      Cmovcc (Ns, Edx, R Ecx);
      Movs (S8, No_rep);
      Movs (S32, Rep);
      Movs (S16, Rep);
      Stos (S32, Rep);
      Lods (S8, No_rep);
      Scas (S8, Repne);
      Scas (S32, Repe);
      Fp (Fld_m (F32, m1));
      Fp (Fld_m (F64, m3));
      Fp (Fld_st 2);
      Fp Fld1;
      Fp Fldz;
      Fp Fldpi;
      Fp (Fst_m (F64, m1, true));
      Fp (Fst_m (F32, m2, false));
      Fp (Fst_st (3, true));
      Fp (Fild (I32, m1));
      Fp (Fist_m (I32, m1, true));
      Fp (Fist_m (I16, m2, false));
      Fp (Fop_st0_st (FAdd, 1));
      Fp (Fop_st0_st (FDivr, 3));
      Fp (Fop_st_st0 (FMul, 2, true));
      Fp (Fop_st_st0 (FSub, 1, false));
      Fp (Fop_m (FMul, F64, m3));
      Fp (Fop_m (FSubr, F32, m1));
      Fp Fchs;
      Fp Fabs;
      Fp Fsqrt;
      Fp Frndint;
      Fp (Fcom_st (2, 0));
      Fp (Fcom_st (2, 1));
      Fp (Fcom_st (1, 2));
      Fp (Fcom_m (F64, m1, 1));
      Fp Fnstsw_ax;
      Fp (Fxch 4);
      Fp (Ffree 5);
      Fp Fincstp;
      Fp Fdecstp;
      Mmx (Movd_to_mm (3, R Eax));
      Mmx (Movd_from_mm (M m1, 2));
      Mmx (Movq_to_mm (1, MMem m2));
      Mmx (Movq_from_mm (MM 4, 1));
      Mmx (Padd (2, 0, MM 1));
      Mmx (Padd (8, 5, MMem m1));
      Mmx (Psub (4, 2, MM 3));
      Mmx (Pmullw (6, MM 7));
      Mmx (Pand (0, MMem m3));
      Mmx (Por (1, MM 2));
      Mmx (Pxor (3, MM 3));
      Mmx (Pcmpeq (4, 1, MM 0));
      Mmx (Psll (4, 2, 5));
      Mmx (Psrl (8, 6, 63));
      Mmx Emms;
      Sse (Movaps (XM 1, XM 2));
      Sse (Movaps (XMem m1, XM 3));
      Sse (Movups (XM 0, XMem m2));
      Sse (Movss (XM 4, XMem m1));
      Sse (Movss (XMem m1, XM 4));
      Sse (Movsd_x (XM 2, XM 5));
      Sse (Sse_arith (SAdd, Packed_single, 1, XM 2));
      Sse (Sse_arith (SMul, Scalar_double, 3, XMem m1));
      Sse (Sse_arith (SDiv, Scalar_single, 0, XM 7));
      Sse (Sse_arith (SMin, Packed_double, 2, XM 2));
      Sse (Sqrtps (1, XM 1));
      Sse (Andps (2, XMem m3));
      Sse (Orps (3, XM 0));
      Sse (Xorps (4, XM 4));
      Sse (Paddd_x (5, XM 6));
      Sse (Psubd_x (6, XMem m1));
      Sse (Ucomiss (7, XM 0));
      Sse (Cvtsi2ss (1, R Edx));
      Sse (Cvttss2si (Eax, XM 2));
      Sse (Cvtss2sd (3, XMem m2));
      Sse (Cvtsd2ss (4, XM 5));
    ]
  in
  [
    Alcotest.test_case "roundtrip sample set" `Quick (fun () ->
        List.iter roundtrip samples);
  ]

(* ---------------------------------------------------------------- *)
(* Encoder/decoder: qcheck property                                  *)
(* ---------------------------------------------------------------- *)

let gen_insn =
  let open QCheck.Gen in
  let open Insn in
  let reg = oneofl all_regs in
  let reg_noesp = oneofl [ Eax; Ecx; Edx; Ebx; Ebp; Esi; Edi ] in
  let size = oneofl [ S8; S16; S32 ] in
  let disp = oneof [ return 0; map Word.mask32 (int_range (-128) 127);
                     map Word.mask32 (int_range (-100000) 100000) ] in
  let mem =
    let* base = opt reg in
    let* index = opt (pair reg_noesp (oneofl [ 1; 2; 4; 8 ])) in
    let* d = disp in
    return { base; index; disp = d }
  in
  let imm_for s =
    match s with
    | S8 -> map Word.mask8 (int_bound 0xFF)
    | S16 -> map Word.mask16 (int_bound 0xFFFF)
    | S32 -> map Word.mask32 (int_range min_int max_int)
  in
  let operand_rm = oneof [ map (fun r -> R r) reg; map (fun m -> M m) mem ] in
  let target = map Word.mask32 (int_range 0x400000 0x500000) in
  let cond =
    oneofl [ O; No; B; Ae; E; Ne; Be; A; S; Ns; P; Np; L; Ge; Le; G ]
  in
  let amount = oneof [ map (fun n -> Amt_imm n) (int_range 1 31); return Amt_cl ] in
  let alu_gen =
    let* op = oneofl [ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ] in
    let* s = size in
    oneof
      [
        (let* d = operand_rm in
         let* r = reg in
         return (Alu (op, s, d, R r)));
        (let* r = reg in
         let* m = mem in
         return (Alu (op, s, R r, M m)));
        (let* d = operand_rm in
         let* v = imm_for s in
         return (Alu (op, s, d, I v)));
      ]
  in
  let mmx_rm = oneof [ map (fun k -> MM k) (int_bound 7); map (fun m -> MMem m) mem ] in
  let xmm_rm = oneof [ map (fun k -> XM k) (int_bound 7); map (fun m -> XMem m) mem ] in
  let xmm = int_bound 7 in
  let fp_gen =
    oneof
      [
        map (fun k -> Fp (Fld_st k)) (int_bound 7);
        (let* fs = oneofl [ F32; F64 ] in
         let* m = mem in
         return (Fp (Fld_m (fs, m))));
        return (Fp Fld1);
        return (Fp Fldz);
        (let* k = int_bound 7 in
         let* p = bool in
         return (Fp (Fst_st (k, p))));
        (let* fs = oneofl [ F32; F64 ] in
         let* m = mem in
         let* p = bool in
         return (Fp (Fst_m (fs, m, p))));
        (let* op = oneofl [ FAdd; FSub; FSubr; FMul; FDiv; FDivr ] in
         let* k = int_bound 7 in
         return (Fp (Fop_st0_st (op, k))));
        (let* op = oneofl [ FAdd; FSub; FSubr; FMul; FDiv; FDivr ] in
         let* k = int_bound 7 in
         let* p = bool in
         return (Fp (Fop_st_st0 (op, k, p))));
        (let* op = oneofl [ FAdd; FSub; FSubr; FMul; FDiv; FDivr ] in
         let* fs = oneofl [ F32; F64 ] in
         let* m = mem in
         return (Fp (Fop_m (op, fs, m))));
        map (fun k -> Fp (Fxch k)) (int_bound 7);
        (let* k = int_bound 7 in
         let* p = oneofl [ 0; 1 ] in
         return (Fp (Fcom_st (k, p))));
        return (Fp Fnstsw_ax);
        return (Fp Fchs);
        return (Fp Fsqrt);
      ]
  in
  let mmx_gen =
    oneof
      [
        (let* k = int_bound 7 in
         let* o = operand_rm in
         return (Mmx (Movd_to_mm (k, o))));
        (let* k = int_bound 7 in
         let* s = mmx_rm in
         return (Mmx (Movq_to_mm (k, s))));
        (let* w = oneofl [ 1; 2; 4; 8 ] in
         let* k = int_bound 7 in
         let* s = mmx_rm in
         return (Mmx (Padd (w, k, s))));
        (let* w = oneofl [ 1; 2; 4; 8 ] in
         let* k = int_bound 7 in
         let* s = mmx_rm in
         return (Mmx (Psub (w, k, s))));
        (let* k = int_bound 7 in
         let* s = mmx_rm in
         return (Mmx (Pxor (k, s))));
        (let* w = oneofl [ 2; 4; 8 ] in
         let* k = int_bound 7 in
         let* n = int_bound 63 in
         return (Mmx (Psll (w, k, n))));
        return (Mmx Emms);
      ]
  in
  let sse_gen =
    oneof
      [
        (let* d = xmm in
         let* s = xmm_rm in
         return (Sse (Movaps (XM d, s))));
        (let* m = mem in
         let* s = xmm in
         return (Sse (Movaps (XMem m, XM s))));
        (let* op = oneofl [ SAdd; SSub; SMul; SDiv; SMin; SMax ] in
         let* fmt =
           oneofl [ Packed_single; Packed_double; Scalar_single; Scalar_double ]
         in
         let* d = xmm in
         let* s = xmm_rm in
         return (Sse (Sse_arith (op, fmt, d, s))));
        (let* d = xmm in
         let* s = xmm_rm in
         return (Sse (Xorps (d, s))));
        (let* d = xmm in
         let* s = xmm_rm in
         return (Sse (Ucomiss (d, s))));
        (let* d = xmm in
         let* o = operand_rm in
         return (Sse (Cvtsi2ss (d, o))));
      ]
  in
  oneof
    [
      alu_gen;
      (let* s = size in
       let* d = operand_rm in
       let* r = reg in
       return (Mov (s, d, R r)));
      (let* s = size in
       let* r = reg in
       let* v = imm_for s in
       return (Mov (s, R r, I v)));
      (let* s = size in
       let* m = mem in
       let* v = imm_for s in
       return (Mov (s, M m, I v)));
      (let* s = oneofl [ S8; S16 ] in
       let* r = reg in
       let* o = operand_rm in
       return (Movzx (s, r, o)));
      (let* s = oneofl [ S8; S16 ] in
       let* r = reg in
       let* o = operand_rm in
       return (Movsx (s, r, o)));
      (let* r = reg in
       let* m = mem in
       return (Lea (r, m)));
      (let* sh = oneofl [ Shl; Shr; Sar; Rol; Ror ] in
       let* s = size in
       let* d = operand_rm in
       let* a = amount in
       return (Shift (sh, s, d, a)));
      (let* s = size in
       let* d = operand_rm in
       return (Inc (s, d)));
      (let* s = size in
       let* d = operand_rm in
       return (Neg (s, d)));
      (let* r = reg in
       let* o = operand_rm in
       return (Imul_rr (r, o)));
      (let* s = size in
       let* o = operand_rm in
       return (Div (s, o)));
      (let* o = oneof [ map (fun r -> R r) reg; map (fun m -> M m) mem;
                        map (fun v -> I v) (imm_for S32) ] in
       return (Push o));
      (let* o = operand_rm in
       return (Pop o));
      map (fun t -> Jmp t) target;
      (let* c = cond in
       let* t = target in
       return (Jcc (c, t)));
      map (fun t -> Call t) target;
      (let* o = operand_rm in
       return (Jmp_ind o));
      (let* c = cond in
       let* o = operand_rm in
       return (Setcc (c, o)));
      (let* c = cond in
       let* r = reg in
       let* o = operand_rm in
       return (Cmovcc (c, r, o)));
      (let* s = size in
       let* r = oneofl [ No_rep; Rep; Repne ] in
       return (Movs (s, r)));
      (let* s = size in
       let* r = oneofl [ No_rep; Repe; Repne ] in
       return (Scas (s, r)));
      fp_gen;
      mmx_gen;
      sse_gen;
      return Nop;
      return Cdq;
      return (Ret 0);
    ]

let arbitrary_insn = QCheck.make ~print:Insn.to_string gen_insn

let qcheck_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arbitrary_insn
    (fun insn ->
      let ip = 0x401000 in
      let bytes = Encode.encode ~ip insn in
      let mem = Memory.create () in
      Memory.map mem ~addr:0x400000 ~len:0x10000 ~prot:Memory.prot_rwx;
      Memory.load_bytes mem ip bytes;
      let decoded, len = Decode.decode mem ip in
      decoded = insn && len = String.length bytes)

(* ---------------------------------------------------------------- *)
(* Memory.first_diff against a naive byte-by-byte scan               *)
(* ---------------------------------------------------------------- *)

(* How one page of [b] (a copy of [a], then edited) relates to [a]. *)
type page_case =
  | Shared_zero (* mapped, never written: both share the zero buffer *)
  | Equal_private (* written in [a]; the copy holds equal bytes *)
  | Private_zeros (* [a] wrote zeros privately; [b] remapped it fresh *)
  | Differ of int (* equal, then [b] changes the byte at this offset *)
  | Only_a
  | Only_b

let gen_page_case =
  let open QCheck.Gen in
  frequency
    [
      (2, return Shared_zero);
      (2, return Equal_private);
      (1, return Private_zeros);
      (1, return (Differ 0));
      (1, return (Differ (Memory.page_size - 1)));
      (2, map (fun o -> Differ o) (int_bound (Memory.page_size - 1)));
      (1, return Only_a);
      (1, return Only_b);
    ]

let show_page_case = function
  | Shared_zero -> "shared-zero"
  | Equal_private -> "equal-private"
  | Private_zeros -> "private-zeros"
  | Differ o -> Printf.sprintf "differ@%d" o
  | Only_a -> "only-a"
  | Only_b -> "only-b"

(* Pages 0x10.. in order, each with its case and a fill seed; [skip]
   excludes page numbers [p] with [p mod 3 = r]. *)
let arbitrary_mem_pair =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (cases, skip) ->
      Printf.sprintf "[%s] skip=%s"
        (String.concat "; "
           (List.map
              (fun (c, seed) -> Printf.sprintf "%s/%d" (show_page_case c) seed)
              cases))
        (match skip with Some r -> string_of_int r | None -> "none"))
    (pair
       (list_size (int_range 0 10) (pair gen_page_case (int_bound 255)))
       (opt (int_bound 2)))

let build_mem_pair cases =
  let open Memory in
  let a = create () in
  let base k = (0x10 + k) * page_size in
  List.iteri
    (fun k (c, seed) ->
      if c <> Only_b then map a ~addr:(base k) ~len:page_size ~prot:prot_rw;
      match c with
      | Equal_private | Differ _ ->
        for j = 0 to 7 do
          let off = ((seed * 613) + (j * 509)) mod page_size in
          write8 a (base k + off) (seed + j)
        done
      | Private_zeros -> write8 a (base k + seed) 0
      | Shared_zero | Only_a | Only_b -> ())
    cases;
  let b = copy a in
  List.iteri
    (fun k (c, _) ->
      match c with
      | Differ o -> write8 b (base k + o) (read8 a (base k + o) lxor 0x5A)
      | Private_zeros ->
        unmap b ~addr:(base k) ~len:page_size;
        map b ~addr:(base k) ~len:page_size ~prot:prot_rw
      | Only_a -> unmap b ~addr:(base k) ~len:page_size
      | Only_b -> map b ~addr:(base k) ~len:page_size ~prot:prot_rw
      | Shared_zero | Equal_private -> ())
    cases;
  (a, b)

(* Every page's first differing address, by reading both memories a
   byte at a time; a page mapped on one side only differs at its first
   byte. *)
let naive_page_diffs ~skip a b =
  let pages =
    List.sort_uniq compare (Memory.mapped_pages a @ Memory.mapped_pages b)
  in
  List.filter_map
    (fun p ->
      let addr = p * Memory.page_size in
      if skip p then None
      else if not (Memory.is_mapped a addr && Memory.is_mapped b addr) then
        Some addr
      else
        let rec scan i =
          if i = Memory.page_size then None
          else if Memory.read8 a (addr + i) <> Memory.read8 b (addr + i) then
            Some (addr + i)
          else scan (i + 1)
        in
        scan 0)
    pages

let qcheck_first_diff =
  QCheck.Test.make ~name:"first_diff agrees with a byte-by-byte scan"
    ~count:500 arbitrary_mem_pair (fun (cases, skip_r) ->
      let a, b = build_mem_pair cases in
      let skip p = match skip_r with Some r -> p mod 3 = r | None -> false in
      let expected = naive_page_diffs ~skip a b in
      let got =
        match skip_r with
        | Some _ -> Memory.first_diff ~skip a b
        | None -> Memory.first_diff a b
      in
      (match (got, expected) with
      | None, [] -> ()
      | Some addr, [ only ] when addr = only -> ()
      | Some addr, _ :: _ :: _ when List.mem addr expected -> ()
      | _ ->
        QCheck.Test.fail_reportf "first_diff %s, naive [%s]"
          (match got with Some a -> Printf.sprintf "%#x" a | None -> "None")
          (String.concat "; " (List.map (Printf.sprintf "%#x") expected)));
      Memory.equal ~skip a b = (expected = []))

(* ---------------------------------------------------------------- *)
(* Interpreter                                                       *)
(* ---------------------------------------------------------------- *)

(* Run [items] (assembled at the default bases) under the interpreter until
   the exit syscall (int 0x80 with eax = 1) and return the final state. *)
let run_asm ?(data = []) ?(fuel = 1_000_000) items =
  let image = Asm.build ~code:items ~data () in
  let mem = Memory.create () in
  let st = Asm.load image mem in
  let rec go n =
    if n <= 0 then Alcotest.fail "out of fuel"
    else
      match Interp.step st with
      | Interp.Normal -> go (n - 1)
      | Interp.Syscall _ -> st
      | Interp.Faulted f -> Alcotest.failf "unexpected fault %s" (Fault.to_string f)
  in
  go fuel

let exit_seq = [ Asm.i (Insn.Int_n 0x80) ]

let interp_tests =
  let open Insn in
  let open Asm in
  [
    Alcotest.test_case "mov and add" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start"; i (Mov (S32, R Eax, I 40)); i (Alu (Add, S32, R Eax, I 2)) ]
            @ exit_seq)
        in
        check int "eax" 42 (State.get32 st Eax));
    Alcotest.test_case "add flags: carry and overflow" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0xFFFFFFFF));
               i (Alu (Add, S32, R Eax, I 1)) ]
            @ exit_seq)
        in
        check int "eax" 0 (State.get32 st Eax);
        check bool "cf" true st.State.cf;
        check bool "zf" true st.State.zf;
        check bool "of" false st.State.of_;
        let st2 =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0x7FFFFFFF));
               i (Alu (Add, S32, R Eax, I 1)) ]
            @ exit_seq)
        in
        check bool "of2" true st2.State.of_;
        check bool "sf2" true st2.State.sf;
        check bool "cf2" false st2.State.cf);
    Alcotest.test_case "sub borrow chain sbb" `Quick (fun () ->
        (* 64-bit decrement of 0x1_00000000 via sub/sbb *)
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0));
               i (Mov (S32, R Edx, I 1));
               i (Alu (Sub, S32, R Eax, I 1));
               i (Alu (Sbb, S32, R Edx, I 0)) ]
            @ exit_seq)
        in
        check int "lo" 0xFFFFFFFF (State.get32 st Eax);
        check int "hi" 0 (State.get32 st Edx));
    Alcotest.test_case "inc preserves carry" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0xFFFFFFFF));
               i (Alu (Add, S32, R Eax, I 1)); (* sets CF *)
               i (Inc (S32, R Eax)) ]
            @ exit_seq)
        in
        check bool "cf preserved" true st.State.cf;
        check int "eax" 1 (State.get32 st Eax));
    Alcotest.test_case "mul / div round trip" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 123456));
               i (Mov (S32, R Ebx, I 789));
               i (Mul1 (S32, R Ebx));
               (* edx:eax = 123456*789 = 97406784 *)
               i (Mov (S32, R Ecx, I 1000));
               i (Div (S32, R Ecx)) ]
            @ exit_seq)
        in
        check int "quotient" 97406 (State.get32 st Eax);
        check int "remainder" 784 (State.get32 st Edx));
    Alcotest.test_case "idiv with negative dividend" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I (Word.mask32 (-7))));
               i Cdq;
               i (Mov (S32, R Ecx, I 2));
               i (Idiv (S32, R Ecx)) ]
            @ exit_seq)
        in
        check int "q" (Word.mask32 (-3)) (State.get32 st Eax);
        check int "r" (Word.mask32 (-1)) (State.get32 st Edx));
    Alcotest.test_case "div by zero faults precisely" `Quick (fun () ->
        let image =
          Asm.build
            ~code:
              [ label "start";
                i (Mov (S32, R Eax, I 5));
                i (Mov (S32, R Ecx, I 0));
                label "divpoint";
                i (Div (S32, R Ecx)) ]
            ~data:[] ()
        in
        let mem = Memory.create () in
        let st = Asm.load image mem in
        let stop, _ = Interp.run st in
        (match stop with
        | Interp.Stop_fault Fault.Divide_error -> ()
        | _ -> Alcotest.fail "expected #DE");
        check int "eip at faulting insn" (image.Asm.lookup "divpoint") st.State.eip;
        check int "eax unchanged" 5 (State.get32 st Eax));
    Alcotest.test_case "push/pop/call/ret" `Quick (fun () ->
        let st =
          run_asm
            [ label "start";
              i (Mov (S32, R Eax, I 1));
              call "fn";
              i (Alu (Add, S32, R Eax, I 10));
              i (Int_n 0x80);
              label "fn";
              i (Alu (Add, S32, R Eax, I 100));
              i (Ret 0) ]
        in
        check int "eax" 111 (State.get32 st Eax);
        check int "esp restored" Asm.default_stack_top (State.get32 st Esp));
    Alcotest.test_case "push eax decrements esp by 4" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start"; i (Mov (S32, R Eax, I 0x1234)); i (Push (R Eax)) ]
            @ exit_seq)
        in
        check int "esp" (Asm.default_stack_top - 4) (State.get32 st Esp);
        check int "stored" 0x1234 (Memory.read32 st.State.mem (State.get32 st Esp)));
    Alcotest.test_case "loop with jcc" `Quick (fun () ->
        (* sum 1..10 *)
        let st =
          run_asm
            [ label "start";
              i (Mov (S32, R Eax, I 0));
              i (Mov (S32, R Ecx, I 10));
              label "loop";
              i (Alu (Add, S32, R Eax, R Ecx));
              i (Dec (S32, R Ecx));
              jcc Ne "loop";
              i (Int_n 0x80) ]
        in
        check int "sum" 55 (State.get32 st Eax));
    Alcotest.test_case "8-bit subregisters ah/al" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0x11223344));
               i (Mov (S8, R Esp (* ah, index 4 *), I 0xAA));
               i (Mov (S8, R Eax (* al *), I 0xBB)) ]
            @ exit_seq)
        in
        check int "eax" 0x1122AABB (State.get32 st Eax));
    Alcotest.test_case "16-bit ops leave upper half" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Ebx, I 0xAABB0000));
               i (Alu (Add, S16, R Ebx, I 0x1234)) ]
            @ exit_seq)
        in
        check int "ebx" 0xAABB1234 (State.get32 st Ebx));
    Alcotest.test_case "shifts" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0x80000001));
               i (Shift (Shl, S32, R Eax, Amt_imm 1)) ]
            @ exit_seq)
        in
        check int "shl" 2 (State.get32 st Eax);
        check bool "cf out" true st.State.cf;
        check bool "of (msb^cf)" true st.State.of_;
        let st2 =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 0x80000000));
               i (Shift (Sar, S32, R Eax, Amt_imm 31)) ]
            @ exit_seq)
        in
        check int "sar" 0xFFFFFFFF (State.get32 st2 Eax));
    Alcotest.test_case "rep movs copies" `Quick (fun () ->
        let st =
          run_asm
            ~data:
              [ label "src"; raw "hello, world!!!!"; label "dst"; space 16 ]
            [ label "start";
              mov_ri_lab Esi "src";
              mov_ri_lab Edi "dst";
              i (Mov (S32, R Ecx, I 4));
              i Cld;
              i (Movs (S32, Rep));
              i (Int_n 0x80) ]
        in
        check int "ecx" 0 (State.get32 st Ecx);
        let image_data_base = Asm.default_data_base in
        check Alcotest.string "copied" "hello, world!!!!"
          (Memory.dump_bytes st.State.mem (image_data_base + 16) 16));
    Alcotest.test_case "std reverses string direction" `Quick (fun () ->
        let st =
          run_asm
            ~data:[ label "buf"; space 16 ]
            [ label "start";
              mov_ri_lab Edi "buf";
              i (Alu (Add, S32, R Edi, I 12));
              i (Mov (S32, R Eax, I 0xAABBCCDD));
              i (Mov (S32, R Ecx, I 4));
              i Std;
              i (Stos (S32, Rep));
              i Cld;
              i (Int_n 0x80) ]
        in
        check int "edi below buf" (Asm.default_data_base - 4)
          (State.get32 st Edi);
        check int "last store at buf" 0xAABBCCDD
          (Memory.read32 st.State.mem Asm.default_data_base));
    Alcotest.test_case "x87 arithmetic" `Quick (fun () ->
        let st =
          run_asm
            ~data:[ label "a"; df64 1.5; label "b"; df64 2.25; label "out"; space 8 ]
            [ label "start";
              with_lab "a" (fun a -> Fp (Fld_m (F64, Insn.mem_abs a)));
              with_lab "b" (fun a -> Fp (Fop_m (FMul, F64, Insn.mem_abs a)));
              with_lab "out" (fun a -> Fp (Fst_m (F64, Insn.mem_abs a, true)));
              i (Int_n 0x80) ]
        in
        Alcotest.check (Alcotest.float 0.0) "product" 3.375
          (Memory.read_f64 st.State.mem (st.State.mem |> fun m ->
               ignore m; Asm.default_data_base + 16)));
    Alcotest.test_case "fxch + fsub order" `Quick (fun () ->
        let st =
          run_asm
            ~data:[ label "out"; space 8 ]
            [ label "start";
              i (Fp Fld1); (* st0=1 *)
              i (Fp Fldz); (* st0=0 st1=1 *)
              i (Fp (Fxch 1)); (* st0=1 st1=0 *)
              i (Fp (Fop_st_st0 (FSub, 1, true))); (* st1 = st1-st0 = -1; pop *)
              with_lab "out" (fun a -> Fp (Fst_m (F64, Insn.mem_abs a, true)));
              i (Int_n 0x80) ]
        in
        Alcotest.check (Alcotest.float 0.0) "result" (-1.0)
          (Memory.read_f64 st.State.mem Asm.default_data_base));
    Alcotest.test_case "fild/fistp roundtrip with rounding" `Quick (fun () ->
        let st =
          run_asm
            ~data:[ label "n"; dd 7; label "out"; space 4 ]
            [ label "start";
              with_lab "n" (fun a -> Fp (Fild (I32, Insn.mem_abs a)));
              i (Fp (Fld_st 0));
              i (Fp (Fop_st_st0 (FAdd, 1, true))); (* st0 = 14 *)
              with_lab "out" (fun a -> Fp (Fist_m (I32, Insn.mem_abs a, true)));
              i (Int_n 0x80) ]
        in
        check int "14" 14 (Memory.read32 st.State.mem (Asm.default_data_base + 4)));
    Alcotest.test_case "fcom + fnstsw" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Fp Fldz);
               i (Fp Fld1);
               (* st0=1 st1=0; 1 > 0 -> c0=c2=c3=0 *)
               i (Fp (Fcom_st (1, 0)));
               i (Fp Fnstsw_ax) ]
            @ exit_seq)
        in
        check int "cc clear" 0 (State.get16 st Eax land 0x4500));
    Alcotest.test_case "mmx add lanes" `Quick (fun () ->
        let st =
          run_asm
            ~data:
              [ label "a"; dq 0x0001000200030004L; label "b"; dq 0x0010002000300040L;
                label "out"; space 8 ]
            [ label "start";
              with_lab "a" (fun a -> Mmx (Movq_to_mm (0, MMem (Insn.mem_abs a))));
              with_lab "b" (fun a -> Mmx (Padd (2, 0, MMem (Insn.mem_abs a))));
              with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (Insn.mem_abs a), 0)));
              i (Int_n 0x80) ]
        in
        Alcotest.check Alcotest.int64 "lanes" 0x0011002200330044L
          (Memory.read64 st.State.mem (Asm.default_data_base + 16)));
    Alcotest.test_case "mmx lane overflow wraps per lane" `Quick (fun () ->
        let st =
          run_asm
            ~data:
              [ label "a"; dq 0x0000FFFF0000FFFFL; label "b"; dq 0x0000000100000001L;
                label "out"; space 8 ]
            [ label "start";
              with_lab "a" (fun a -> Mmx (Movq_to_mm (1, MMem (Insn.mem_abs a))));
              with_lab "b" (fun a -> Mmx (Padd (2, 1, MMem (Insn.mem_abs a))));
              with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (Insn.mem_abs a), 1)));
              i (Int_n 0x80) ]
        in
        Alcotest.check Alcotest.int64 "wrap" 0x0000000000000000L
          (Memory.read64 st.State.mem (Asm.default_data_base + 16)));
    Alcotest.test_case "sse packed add" `Quick (fun () ->
        let st =
          run_asm
            ~data:
              [ label "a"; df32 1.0; df32 2.0; df32 3.0; df32 4.0;
                label "b"; df32 10.0; df32 20.0; df32 30.0; df32 40.0;
                label "out"; space 16 ]
            [ label "start";
              with_lab "a" (fun a -> Sse (Movups (XM 0, XMem (Insn.mem_abs a))));
              with_lab "b" (fun a ->
                  Sse (Sse_arith (SAdd, Packed_single, 0, XMem (Insn.mem_abs a))));
              with_lab "out" (fun a -> Sse (Movups (XMem (Insn.mem_abs a), XM 0)));
              i (Int_n 0x80) ]
        in
        let base = Asm.default_data_base + 32 in
        Alcotest.check (Alcotest.float 0.0) "lane0" 11.0
          (Memory.read_f32 st.State.mem base);
        Alcotest.check (Alcotest.float 0.0) "lane3" 44.0
          (Memory.read_f32 st.State.mem (base + 12)));
    Alcotest.test_case "ucomiss sets flags" `Quick (fun () ->
        let st =
          run_asm
            ~data:[ label "a"; df32 1.0; label "b"; df32 2.0 ]
            ([ label "start";
               with_lab "a" (fun a -> Sse (Movss (XM 0, XMem (Insn.mem_abs a))));
               with_lab "b" (fun a -> Sse (Movss (XM 1, XMem (Insn.mem_abs a))));
               i (Sse (Ucomiss (0, XM 1))) ]
            @ exit_seq)
        in
        check bool "cf (lt)" true st.State.cf;
        check bool "zf" false st.State.zf);
    Alcotest.test_case "jump table via indirect jmp" `Quick (fun () ->
        let st =
          run_asm
            ~data:[ label "table"; dd_lab "case0"; dd_lab "case1"; dd_lab "case2" ]
            [ label "start";
              i (Mov (S32, R Ecx, I 2));
              with_lab "table" (fun a ->
                  Jmp_ind (M { base = None; index = Some (Ecx, 4); disp = a }));
              label "case0";
              i (Mov (S32, R Eax, I 100));
              i (Int_n 0x80);
              label "case1";
              i (Mov (S32, R Eax, I 200));
              i (Int_n 0x80);
              label "case2";
              i (Mov (S32, R Eax, I 300));
              i (Int_n 0x80) ]
        in
        check int "case2 taken" 300 (State.get32 st Eax));
    Alcotest.test_case "setcc & cmov" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Mov (S32, R Eax, I 5));
               i (Mov (S32, R Ebx, I 9));
               i (Alu (Cmp, S32, R Eax, R Ebx));
               i (Setcc (L, R Ecx)); (* cl = 1 *)
               i (Mov (S32, R Edx, I 0));
               i (Cmovcc (L, Edx, R Ebx)) ]
            @ exit_seq)
        in
        check int "setl" 1 (State.get8 st Ecx);
        check int "cmovl" 9 (State.get32 st Edx));
    Alcotest.test_case "pushfd/popfd restores flags" `Quick (fun () ->
        let st =
          run_asm
            ([ label "start";
               i (Alu (Cmp, S32, R Eax, R Eax)); (* ZF=1 *)
               i Pushfd;
               i (Alu (Cmp, S32, R Esp, I 0)); (* clobbers ZF *)
               i Popfd ]
            @ exit_seq)
        in
        check bool "zf restored" true st.State.zf);
    Alcotest.test_case "hlt faults as privileged" `Quick (fun () ->
        let image = Asm.build ~code:[ label "start"; i Hlt ] ~data:[] () in
        let st = Asm.load image (Memory.create ()) in
        match Interp.run st with
        | Interp.Stop_fault Fault.Privileged, _ -> ()
        | _ -> Alcotest.fail "expected #GP");
    Alcotest.test_case "page fault state precision" `Quick (fun () ->
        (* push eax with esp pointing at an unmapped page: ESP must keep its
           pre-push value in the faulted state — the paper's Table 1. *)
        let image =
          Asm.build
            ~code:
              [ label "start";
                i (Mov (S32, R Esp, I 0x30000000)); (* unmapped *)
                i (Mov (S32, R Eax, I 0x1234));
                label "faultpoint";
                i (Push (R Eax)) ]
            ~data:[] ()
        in
        let st = Asm.load image (Memory.create ()) in
        (match Interp.run st with
        | Interp.Stop_fault (Fault.Page_fault (a, Fault.Write)), _ ->
          check int "fault addr" 0x2FFFFFFC a
        | _ -> Alcotest.fail "expected #PF");
        check int "esp preserved" 0x30000000 (State.get32 st Esp);
        check int "eip at push" (image.Asm.lookup "faultpoint") st.State.eip);
  ]

(* ---------------------------------------------------------------- *)
(* Fpconv                                                            *)
(* ---------------------------------------------------------------- *)

let fpconv_tests =
  [
    Alcotest.test_case "rint ties to even" `Quick (fun () ->
        Alcotest.check (Alcotest.float 0.0) "0.5" 0.0 (Fpconv.rint 0.5);
        Alcotest.check (Alcotest.float 0.0) "1.5" 2.0 (Fpconv.rint 1.5);
        Alcotest.check (Alcotest.float 0.0) "2.5" 2.0 (Fpconv.rint 2.5);
        Alcotest.check (Alcotest.float 0.0) "-0.5" 0.0 (Fpconv.rint (-0.5));
        Alcotest.check (Alcotest.float 0.0) "-1.5" (-2.0) (Fpconv.rint (-1.5));
        Alcotest.check (Alcotest.float 0.0) "1.2" 1.0 (Fpconv.rint 1.2));
    Alcotest.test_case "fist indefinite" `Quick (fun () ->
        check int "nan" 0x80000000 (Fpconv.fist ~bits:32 Float.nan);
        check int "big" 0x80000000 (Fpconv.fist ~bits:32 1e30);
        check int "ok" (Word.mask32 (-5)) (Fpconv.fist ~bits:32 (-5.0));
        check int "16-bit" 0x8000 (Fpconv.fist ~bits:16 1e9));
    Alcotest.test_case "cvtt truncates" `Quick (fun () ->
        check int "1.9" 1 (Fpconv.cvtt32 1.9);
        check int "-1.9" (Word.mask32 (-1)) (Fpconv.cvtt32 (-1.9)));
    Alcotest.test_case "f32 bits roundtrip" `Quick (fun () ->
        check int "1.0f" 0x3F800000 (Fpconv.bits_of_f32 1.0);
        Alcotest.check (Alcotest.float 0.0) "back" 1.0
          (Fpconv.f32_of_bits 0x3F800000));
    Alcotest.test_case "ps lanes" `Quick (fun () ->
        let h = Fpconv.ps_set (Fpconv.ps_set 0L 0 1.5) 1 (-2.0) in
        Alcotest.check (Alcotest.float 0.0) "lane0" 1.5 (Fpconv.ps_get h 0);
        Alcotest.check (Alcotest.float 0.0) "lane1" (-2.0) (Fpconv.ps_get h 1));
  ]

(* ---------------------------------------------------------------- *)
(* Asm                                                               *)
(* ---------------------------------------------------------------- *)

let asm_tests =
  let open Asm in
  [
    Alcotest.test_case "labels resolve across sections" `Quick (fun () ->
        let image =
          build
            ~code:[ label "start"; mov_ri_lab Insn.Eax "var"; i (Insn.Int_n 0x80) ]
            ~data:[ label "var"; dd 99 ]
            ()
        in
        check int "var addr" default_data_base (image.lookup "var");
        check int "entry" default_code_base (image.entry));
    Alcotest.test_case "undefined label errors" `Quick (fun () ->
        Alcotest.check_raises "error" (Asm.Error "assembler: undefined label \"nope\"")
          (fun () -> ignore (build ~code:[ label "start"; jmp "nope" ] ~data:[] ())));
    Alcotest.test_case "align pads with nops" `Quick (fun () ->
        let parts, lookup =
          assemble [ section ~base:0x1000 [ i Insn.Nop; align 16; label "aligned" ] ]
        in
        check int "aligned" 0x1010 (lookup "aligned");
        match parts with
        | [ (_, bytes) ] -> check int "len" 16 (String.length bytes)
        | _ -> Alcotest.fail "one section");
    Alcotest.test_case "backward and forward jumps" `Quick (fun () ->
        (* just check it assembles and runs: 3 iterations *)
        let st =
          run_asm
            [ label "start";
              i (Insn.Mov (Insn.S32, Insn.R Insn.Eax, Insn.I 0));
              i (Insn.Mov (Insn.S32, Insn.R Insn.Ecx, Insn.I 3));
              jmp "check";
              label "body";
              i (Insn.Alu (Insn.Add, Insn.S32, Insn.R Insn.Eax, Insn.I 2));
              i (Insn.Dec (Insn.S32, Insn.R Insn.Ecx));
              label "check";
              i (Insn.Test (Insn.S32, Insn.R Insn.Ecx, Insn.R Insn.Ecx));
              jcc Insn.Ne "body";
              i (Insn.Int_n 0x80) ]
        in
        check int "eax" 6 (State.get32 st Insn.Eax));
  ]

(* ---------------------------------------------------------------- *)
(* Encoder/decoder round-trip over the fuzzer's generators           *)
(* ---------------------------------------------------------------- *)

(* The differential fuzzer samples the instruction surface with its own
   generators; every instruction it can emit must survive encode/decode. *)
let fuzzgen_roundtrip_tests =
  [
    Alcotest.test_case "gen_insn surface roundtrips" `Quick (fun () ->
        let rng = Harness.Fuzz.Rng.create 42 in
        for _ = 1 to 2000 do
          roundtrip (Harness.Fuzz.gen_insn rng)
        done);
    Alcotest.test_case "generated program insns roundtrip" `Quick (fun () ->
        let rng = Harness.Fuzz.Rng.create 7 in
        for seed = 0 to 19 do
          let p = Harness.Fuzz.generate ~rng ~max_insns:32 seed in
          List.iter roundtrip (Harness.Fuzz.prog_insns p)
        done);
  ]

let () =
  Alcotest.run "ia32"
    [
      ("word", word_tests);
      ("memory", mem_tests);
      ("journal", journal_tests);
      ("demand-zero", demand_zero_tests);
      ("fpu", fpu_tests);
      ("fpconv", fpconv_tests);
      ("encode-vectors", encode_vector_tests);
      ("roundtrip-unit", roundtrip_unit_tests);
      ("roundtrip-qcheck", [ QCheck_alcotest.to_alcotest qcheck_roundtrip ]);
      ("first-diff", [ QCheck_alcotest.to_alcotest qcheck_first_diff ]);
      ("roundtrip-fuzzgen", fuzzgen_roundtrip_tests);
      ("interp", interp_tests);
      ("asm", asm_tests);
    ]
