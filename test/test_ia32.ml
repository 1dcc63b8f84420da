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
    Alcotest.test_case "write watch: a store straddling into a watched page"
      `Quick (fun () ->
        (* The watch is on the second page only: the store's first byte
           is on an unwatched page, its last two on the watched one. *)
        let m = create () in
        map m ~addr:0x1000 ~len:0x2000 ~prot:prot_rwx;
        let hits = ref [] in
        set_write_watch m (Some (fun a w -> hits := (a, w) :: !hits));
        watch_page m 0x2000;
        write32 m 0x1FFE 0x11223344;
        check (Alcotest.list (Alcotest.pair int int)) "one hit, whole store"
          [ (0x1FFE, 4) ] !hits;
        check int "bytes stored" 0x11223344 (read32 m 0x1FFE);
        hits := [];
        (* and one that starts on the watched page and leaves it *)
        unwatch_page m 0x2000;
        watch_page m 0x1000;
        write16 m 0x1FFF 0xBEEF;
        check (Alcotest.list (Alcotest.pair int int)) "starts watched"
          [ (0x1FFF, 2) ] !hits);
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
    Alcotest.test_case "an inner revert hands the page back to the outer epoch"
      `Quick (fun () ->
        (* the inner revert puts back the stamp naming the outer epoch,
           so the outer epoch's next write there records no second
           pre-image over its first *)
        let m = create () in
        map m ~addr:0x1000 ~len:page_size ~prot:prot_rw;
        write32 m 0x1010 1;
        Journal.push m;
        write32 m 0x1010 2;
        Journal.push m;
        write32 m 0x1010 3;
        ignore (Journal.revert m);
        check int "inner revert" 2 (read32 m 0x1010);
        write32 m 0x1010 4;
        check int "no new first touch" 1 (Journal.touched m);
        ignore (Journal.revert m);
        check int "outer revert" 1 (read32 m 0x1010));
    Alcotest.test_case "a recycled pre-image is not a live page" `Quick
      (fun () ->
        (* the revert blits 0x1000's pre-image back and keeps the buffer
           as a spare; the next first touch (0x2000) copies into it *)
        let m = create () in
        map m ~addr:0x1000 ~len:(2 * page_size) ~prot:prot_rw;
        write32 m 0x1010 1;
        write32 m 0x2010 7;
        Journal.push m;
        write32 m 0x1010 2;
        ignore (Journal.revert m);
        Journal.push m;
        write32 m 0x2010 8;
        check int "reverted page untouched" 1 (read32 m 0x1010);
        write32 m 0x1010 3;
        ignore (Journal.revert m);
        check int "first page" 1 (read32 m 0x1010);
        check int "second page" 7 (read32 m 0x2010));
    Alcotest.test_case "revert with no open epoch raises, changes nothing"
      `Quick (fun () ->
        let m = create () in
        map m ~addr:0x1000 ~len:page_size ~prot:prot_rw;
        Journal.push m;
        write32 m 0x1000 5;
        ignore (Journal.revert m);
        let restored = Journal.pages_restored m in
        write32 m 0x1000 6;
        Alcotest.check_raises "no epoch"
          (Invalid_argument "Memory.Journal.revert: no open epoch")
          (fun () -> ignore (Journal.revert m));
        check int "depth" 0 (Journal.depth m);
        check int "bytes kept" 6 (read32 m 0x1000);
        check int "nothing restored" restored (Journal.pages_restored m));
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
    Alcotest.test_case "no stale page after unmap, revert or unwatch" `Quick
      (fun () ->
        let m = create () in
        let hits = ref 0 in
        set_write_watch m (Some (fun _ _ -> incr hits));
        map m ~addr:0x1000 ~len:page_size ~prot:prot_rw;
        write8 m 0x1000 1;
        unmap m ~addr:0x1000 ~len:page_size;
        check int "unmapped page" (-1) (page_gen m 0x1000);
        Journal.push m;
        map m ~addr:0x1000 ~len:page_size ~prot:prot_rw;
        check int "mapped again" 0 (read8 m 0x1000);
        ignore (Journal.revert m);
        Alcotest.check_raises "reverted map"
          (Fault.Fault (Fault.Page_fault (0x1000, Fault.Read)))
          (fun () -> ignore (read8 m 0x1000));
        map m ~addr:0x1000 ~len:page_size ~prot:prot_rw;
        watch_page m 0x1000;
        write8 m 0x1000 1;
        unwatch_page m 0x1000;
        write8 m 0x1000 2;
        check int "one watched store" 1 !hits);
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
(* Memory.Dirty.first_diff against the full scan                     *)
(* ---------------------------------------------------------------- *)

(* One mutation of the pair: applied to [a], to [b] or to both, so the
   two drift apart and come back together. Pages are 0x10..0x17; page
   0x17 is skipped by every compare. *)
type side = Side_a | Side_b | Both

type dirty_op =
  | D_write of side * int * int * int (* page, offset, byte *)
  | D_map of side * int
  | D_unmap of side * int
  | D_protect of side * int * bool (* page, writable *)
  | D_load of side * int * int (* page, fill seed: spans two pages *)
  | D_push of side
  | D_revert of side

let show_side = function Side_a -> "a" | Side_b -> "b" | Both -> "ab"

let show_dirty_op = function
  | D_write (s, p, o, v) -> Printf.sprintf "write%s %x+%d=%d" (show_side s) p o v
  | D_map (s, p) -> Printf.sprintf "map%s %x" (show_side s) p
  | D_unmap (s, p) -> Printf.sprintf "unmap%s %x" (show_side s) p
  | D_protect (s, p, w) -> Printf.sprintf "protect%s %x %b" (show_side s) p w
  | D_load (s, p, seed) -> Printf.sprintf "load%s %x/%d" (show_side s) p seed
  | D_push s -> "push" ^ show_side s
  | D_revert s -> "revert" ^ show_side s

let gen_dirty_op =
  let open QCheck.Gen in
  let side = frequency [ (3, return Both); (1, return Side_a); (1, return Side_b) ] in
  let page = map (fun k -> 0x10 + k) (int_bound 7) in
  frequency
    [
      ( 6,
        map
          (fun (((s, p), o), v) -> D_write (s, p, o, v))
          (pair (pair (pair side page) (int_bound 7)) (int_bound 3)) );
      (1, map (fun (s, p) -> D_map (s, p)) (pair side page));
      (1, map (fun (s, p) -> D_unmap (s, p)) (pair side page));
      (1, map (fun ((s, p), w) -> D_protect (s, p, w)) (pair (pair side page) bool));
      (1, map (fun ((s, p), seed) -> D_load (s, p, seed)) (pair (pair side page) (int_bound 3)));
      (2, map (fun s -> D_push s) side);
      (2, map (fun s -> D_revert s) side);
    ]

let arbitrary_dirty_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_dirty_op ops))
    QCheck.Gen.(list_size (int_range 1 40) gen_dirty_op)

let apply_dirty_op a b op =
  let open Memory in
  let on s f =
    (match s with Side_a | Both -> f a | Side_b -> ());
    match s with Side_b | Both -> f b | Side_a -> ()
  in
  let faults f m = try f m with Fault.Fault _ -> () in
  let base p = p * page_size in
  match op with
  | D_write (s, p, o, v) ->
    (* offsets near both ends of the page, and one straddling into the
       next page *)
    let off = [| 0; 1; 100; 2048; 4000; 4094; 4095; 4093 |].(o) in
    on s (faults (fun m -> write32 m (base p + off) (v * 0x01010101)))
  | D_map (s, p) -> on s (fun m -> map m ~addr:(base p) ~len:page_size ~prot:prot_rw)
  | D_unmap (s, p) -> on s (fun m -> unmap m ~addr:(base p) ~len:page_size)
  | D_protect (s, p, w) ->
    on s (fun m ->
        protect m ~addr:(base p) ~len:page_size ~prot:(if w then prot_rw else prot_rx))
  | D_load (s, p, seed) ->
    let data = String.init 6000 (fun i -> Char.chr ((i * (seed + 1)) land 0xFF)) in
    on s (faults (fun m -> load_bytes m (base p + 3000) data))
  | D_push s -> on s Journal.push
  | D_revert s -> on s (fun m -> if Journal.depth m > 0 then ignore (Journal.revert m))

(* Two equal memories, tracked from here on; the first compare is a
   full one. After every step the dirty compare must report what the
   full scan reports, and empty both lists exactly when that is [None]. *)
let dirty_compare_holds ops =
  let open Memory in
  let fresh () =
    let m = create () in
    map m ~addr:(0x10 * page_size) ~len:(4 * page_size) ~prot:prot_rw;
    write32 m (0x11 * page_size) 0xDEADBEEF;
    m
  in
  let a = fresh () and b = fresh () in
  Dirty.track a;
  Dirty.track b;
  let skip p = p = 0x17 in
  let fmt = function Some x -> Printf.sprintf "%#x" x | None -> "None" in
  List.iteri
    (fun i op ->
      apply_dirty_op a b op;
      let la = Dirty.pages a and lb = Dirty.pages b in
      let full = first_diff ~skip a b in
      let got = Dirty.first_diff ~skip a b in
      if got <> full then
        QCheck.Test.fail_reportf "step %d (%s): dirty compare %s, full scan %s" i
          (show_dirty_op op) (fmt got) (fmt full);
      let la' = Dirty.pages a and lb' = Dirty.pages b in
      match got with
      | None ->
        if la' <> [] || lb' <> [] then
          QCheck.Test.fail_reportf "step %d (%s): lists kept after an equal compare"
            i (show_dirty_op op)
      | Some _ ->
        if la' <> la || lb' <> lb then
          QCheck.Test.fail_reportf "step %d (%s): lists changed by an unequal compare"
            i (show_dirty_op op))
    ops;
  true

let qcheck_dirty_compare =
  QCheck.Test.make ~name:"dirty compare agrees with first_diff at every step"
    ~count:400 arbitrary_dirty_ops dirty_compare_holds

let dirty_tests =
  [
    QCheck_alcotest.to_alcotest qcheck_dirty_compare;
    Alcotest.test_case "untracked memories take the full scan" `Quick (fun () ->
        let a = Memory.create () in
        Memory.map a ~addr:0x10000 ~len:Memory.page_size ~prot:Memory.prot_rw;
        let b = Memory.copy a in
        Memory.Dirty.track a;
        Memory.write8 b 0x10020 7;
        check (Alcotest.option int) "difference found" (Some 0x10020)
          (Memory.Dirty.first_diff a b);
        check bool "copy is untracked" false (Memory.Dirty.tracked b);
        Memory.write8 a 0x10020 7;
        check (Alcotest.option int) "equal" None (Memory.Dirty.first_diff a b);
        check (Alcotest.list int) "a tracked list is kept without a tracked partner"
          [ 0x10 ] (Memory.Dirty.pages a));
    Alcotest.test_case "a compare against another memory is a full one" `Quick
      (fun () ->
        let open Memory in
        let fresh () =
          let m = create () in
          map m ~addr:0x10000 ~len:(2 * page_size) ~prot:prot_rw;
          m
        in
        let a = fresh () and b = fresh () and c = fresh () in
        write8 c 0x11005 9;
        List.iter Dirty.track [ a; b; c ];
        let opt = Alcotest.option int in
        check opt "a and b equal" None (Dirty.first_diff a b);
        (* c differs on a page neither list names *)
        check opt "c's difference found" (Some 0x11005) (Dirty.first_diff a c);
        write8 a 0x11005 9;
        check opt "a and c equal" None (Dirty.first_diff a c);
        (* a's list was emptied against c, so b's difference is on no
           list a shares with b *)
        check opt "b's difference found" (Some 0x11005) (Dirty.first_diff a b));
    Alcotest.test_case "two differing pages: the full scan's first address"
      `Quick (fun () ->
        (* Both memories are tracked and equal; then each side writes a
           different page. The compare reports the address the full scan
           visits first, whichever list names it. *)
        let a = Memory.create () in
        Memory.map a ~addr:0x10000 ~len:(8 * Memory.page_size) ~prot:Memory.prot_rw;
        let b = Memory.copy a in
        Memory.Dirty.track a;
        Memory.Dirty.track b;
        check (Alcotest.option int) "equal at the start" None
          (Memory.Dirty.first_diff a b);
        Memory.write8 a 0x15123 1;
        Memory.write8 b 0x12456 2;
        let full = Memory.first_diff a b in
        check bool "full scan finds a difference" true (full <> None);
        check (Alcotest.option int) "same address as the full scan" full
          (Memory.Dirty.first_diff a b);
        check (Alcotest.list int) "a's list kept" [ 0x15 ] (Memory.Dirty.pages a);
        check (Alcotest.list int) "b's list kept" [ 0x12 ] (Memory.Dirty.pages b));
  ]

(* ---------------------------------------------------------------- *)
(* Memory against a naive model                                      *)
(* ---------------------------------------------------------------- *)

(* The model keeps what [Memory] promises and none of its mechanism: a
   map from page number to the page's bytes and protection, a set of
   watched pages, and the journal as a list of saved maps. Every access
   goes byte by byte, so the first inaccessible byte is the fault
   address, and a store notifies when any page it touched is watched. *)
module Model = struct
  module Im = Map.Make (Int)

  type t = {
    mutable pages : (string * Memory.prot) Im.t;
    mutable watched : int list;
    mutable journal : (string * Memory.prot) Im.t list;
  }

  let create () = { pages = Im.empty; watched = []; journal = [] }
  let page a = Word.mask32 a lsr Memory.page_bits
  let off a = Word.mask32 a land (Memory.page_size - 1)
  let fault a acc = raise (Fault.Fault (Fault.Page_fault (Word.mask32 a, acc)))

  let byte ok acc t a =
    match Im.find_opt (page a) t.pages with
    | Some (d, prot) when ok prot -> (d, prot)
    | _ -> fault a acc

  let read8 t a =
    let d, _ = byte (fun p -> p.Memory.read) Fault.Read t a in
    Char.code d.[off a]

  let set8 ok t a v =
    let d, prot = byte ok Fault.Write t a in
    let b = Bytes.of_string d in
    Bytes.set b (off a) (Char.chr (v land 0xFF));
    t.pages <- Im.add (page a) (Bytes.to_string b, prot) t.pages

  (* A read faults at its lowest inaccessible byte. *)
  let read t a n =
    let v = ref 0 in
    for i = 0 to n - 1 do
      v := !v lor (read8 t (a + i) lsl (8 * i))
    done;
    !v

  (* the stores of one [write] call, and the watch callbacks they fire *)
  let write t a n v =
    for i = 0 to n - 1 do
      set8 (fun p -> p.Memory.write) t (a + i) (v lsr (8 * i))
    done;
    if List.exists (fun p -> List.mem p t.watched) [ page a; page (a + n - 1) ]
    then [ (Word.mask32 a, n) ]
    else []

  let map t p n prot =
    for q = p to p + n - 1 do
      t.pages <-
        Im.add q
          (match Im.find_opt q t.pages with
          | Some (d, _) -> (d, prot)
          | None -> (String.make Memory.page_size '\000', prot))
          t.pages
    done

  let unmap t p =
    t.pages <- Im.remove p t.pages;
    t.watched <- List.filter (( <> ) p) t.watched

  let protect t p prot =
    match Im.find_opt p t.pages with
    | Some (d, _) -> t.pages <- Im.add p (d, prot) t.pages
    | None -> ()

  let load t a s =
    String.iteri (fun i c -> set8 (fun _ -> true) t (a + i) (Char.code c)) s
end

type mem_op =
  | M_map of int * int * bool (* page, pages, writable *)
  | M_unmap of int
  | M_protect of int * bool
  | M_watch of int
  | M_unwatch of int
  | M_set_watched of int list
  | M_read of int * int * int (* width, page, offset index *)
  | M_write of int * int * int * int (* width, page, offset index, value *)
  | M_load of int * int * int (* page, offset index, length *)
  | M_push
  | M_revert
  | M_copy

(* Page 0x50 shares a TLB entry with page 0x10; offsets include the
   last bytes of a page, so wider accesses straddle into the next. *)
let model_pages = [| 0x10; 0x11; 0x12; 0x50 |]
let model_offsets = [| 0; 1; 2; 100; 2048; 4092; 4093; 4094; 4095 |]

let show_mem_op = function
  | M_map (p, n, w) -> Printf.sprintf "map %x+%d %s" p n (if w then "rw" else "rx")
  | M_unmap p -> Printf.sprintf "unmap %x" p
  | M_protect (p, w) -> Printf.sprintf "protect %x %s" p (if w then "rw" else "rx")
  | M_watch p -> Printf.sprintf "watch %x" p
  | M_unwatch p -> Printf.sprintf "unwatch %x" p
  | M_set_watched l ->
    "set_watched [" ^ String.concat ";" (List.map (Printf.sprintf "%x") l) ^ "]"
  | M_read (n, p, o) -> Printf.sprintf "read%d %x+%d" (8 * n) p model_offsets.(o)
  | M_write (n, p, o, v) ->
    Printf.sprintf "write%d %x+%d=%d" (8 * n) p model_offsets.(o) v
  | M_load (p, o, len) -> Printf.sprintf "load %x+%d/%d" p model_offsets.(o) len
  | M_push -> "push"
  | M_revert -> "revert"
  | M_copy -> "copy"

let gen_mem_op =
  let open QCheck.Gen in
  let page = oneofa model_pages in
  let offset = int_bound (Array.length model_offsets - 1) in
  let width = oneofa [| 1; 2; 4; 8 |] in
  frequency
    [
      (2, map (fun ((p, n), w) -> M_map (p, n, w)) (pair (pair page (int_range 1 2)) bool));
      (1, map (fun p -> M_unmap p) page);
      (1, map (fun (p, w) -> M_protect (p, w)) (pair page bool));
      (2, map (fun p -> M_watch p) page);
      (2, map (fun p -> M_unwatch p) page);
      (1, map (fun l -> M_set_watched l) (list_size (int_bound 2) page));
      (6, map (fun ((n, p), o) -> M_read (n, p, o)) (pair (pair width page) offset));
      ( 8,
        map
          (fun (((n, p), o), v) -> M_write (n, p, o, v))
          (pair (pair (pair width page) offset) (int_bound 0xFFFF)) );
      (1, map (fun ((p, o), len) -> M_load (p, o, len)) (pair (pair page offset) (int_range 1 6000)));
      (3, return M_push);
      (3, return M_revert);
      (1, return M_copy);
    ]

let arbitrary_mem_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_mem_op)

(* Run [ops] on a memory and the model side by side. After every step
   the two must agree on the step's result (a value or a fault), on the
   watch callbacks it fired, and on the whole address space: the pages
   mapped, their bytes ([first_diff] against a memory built from the
   model, both ways), and which pages are watched. *)
let memory_model_holds ops =
  let open Memory in
  let m = ref (create ()) and md = Model.create () in
  let hits = ref [] in
  let watch_on mem = set_write_watch mem (Some (fun a w -> hits := (a, w) :: !hits)) in
  watch_on !m;
  let prot w = if w then prot_rw else prot_rx in
  let result f g =
    let r = match f () with v -> Ok v | exception Fault.Fault e -> Error e in
    let r' = match g () with v -> Ok v | exception Fault.Fault e -> Error e in
    (r, r')
  in
  let show = function
    | Ok v -> Printf.sprintf "%#x" v
    | Error e -> Fault.to_string e
  in
  let from_model () =
    let f = create () in
    Model.Im.iter
      (fun p (d, pr) ->
        map f ~addr:(p * page_size) ~len:page_size ~prot:pr;
        load_bytes f (p * page_size) d)
      md.Model.pages;
    f
  in
  List.iteri
    (fun step op ->
      let fail fmt =
        QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) step (show_mem_op op)
      in
      let expect = ref [] in
      hits := [];
      (match op with
      | M_map (p, n, w) ->
        map !m ~addr:(p * page_size) ~len:(n * page_size) ~prot:(prot w);
        Model.map md p n (prot w)
      | M_unmap p ->
        unmap !m ~addr:(p * page_size) ~len:page_size;
        Model.unmap md p
      | M_protect (p, w) ->
        protect !m ~addr:(p * page_size) ~len:page_size ~prot:(prot w);
        Model.protect md p (prot w)
      | M_watch p ->
        watch_page !m (p * page_size);
        if not (List.mem p md.Model.watched) then
          md.Model.watched <- p :: md.Model.watched
      | M_unwatch p ->
        unwatch_page !m (p * page_size);
        md.Model.watched <- List.filter (( <> ) p) md.Model.watched
      | M_set_watched l ->
        set_watched_pages !m l;
        md.Model.watched <- List.sort_uniq compare l
      | M_read (n, p, o) ->
        let a = (p * page_size) + model_offsets.(o) in
        let got, want =
          if n = 8 then
            result
              (fun () -> Int64.to_int (read64 !m a))
              (fun () ->
                let lo = Model.read md a 4 in
                Int64.to_int (Word.to_i64 ~lo ~hi:(Model.read md (a + 4) 4)))
          else result (fun () -> read n !m a) (fun () -> Model.read md a n)
        in
        if got <> want then fail "read %s, model %s" (show got) (show want)
      | M_write (n, p, o, v) ->
        let a = (p * page_size) + model_offsets.(o) in
        let v = v * 0x10001 in
        let got, want =
          if n = 8 then
            result
              (fun () -> write64 !m a (Word.to_i64 ~lo:v ~hi:(v lxor 0xFFFF)))
              (fun () ->
                expect := Model.write md a 4 v;
                expect := !expect @ Model.write md (a + 4) 4 (v lxor 0xFFFF))
          else
            result (fun () -> write n !m a v) (fun () -> expect := Model.write md a n v)
        in
        let show = function Ok () -> "ok" | Error e -> Fault.to_string e in
        if got <> want then fail "write %s, model %s" (show got) (show want)
      | M_load (p, o, len) ->
        let a = (p * page_size) + model_offsets.(o) in
        let s = String.init len (fun i -> Char.chr (((i * 7) + step) land 0xFF)) in
        let got, want = result (fun () -> load_bytes !m a s) (fun () -> Model.load md a s) in
        let show = function Ok () -> "ok" | Error e -> Fault.to_string e in
        if got <> want then fail "load %s, model %s" (show got) (show want)
      | M_push ->
        Journal.push !m;
        md.Model.journal <- md.Model.pages :: md.Model.journal
      | M_revert -> (
        match md.Model.journal with
        | saved :: rest ->
          ignore (Journal.revert !m);
          md.Model.pages <- saved;
          md.Model.journal <- rest
        | [] -> ())
      | M_copy ->
        let c = copy !m in
        if first_diff !m c <> None then fail "copy differs";
        m := c;
        watch_on c;
        md.Model.journal <- []);
      if List.rev !hits <> !expect then
        fail "watch callbacks [%s], model [%s]"
          (String.concat ";" (List.map (fun (a, w) -> Printf.sprintf "%#x/%d" a w) (List.rev !hits)))
          (String.concat ";" (List.map (fun (a, w) -> Printf.sprintf "%#x/%d" a w) !expect));
      if Journal.depth !m <> List.length md.Model.journal then
        fail "journal depth %d, model %d" (Journal.depth !m)
          (List.length md.Model.journal);
      let f = from_model () in
      (match (first_diff !m f, first_diff f !m) with
      | None, None -> ()
      | Some a, _ | None, Some a -> fail "memory differs from the model at %#x" a);
      Array.iter
        (fun p ->
          List.iter
            (fun q ->
              let a = q * page_size in
              let mapped = Model.Im.mem q md.Model.pages in
              if (page_gen !m a >= 1) <> mapped then
                fail "page_gen %x = %d, model mapped %b" q (page_gen !m a) mapped;
              if page_watched !m a <> List.mem q md.Model.watched then
                fail "page %x watched %b" q (page_watched !m a))
            [ p; p + 1 ])
        model_pages)
    ops;
  true

let qcheck_memory_model =
  QCheck.Test.make ~name:"memory agrees with a naive model at every step"
    ~count:1000 arbitrary_mem_ops memory_model_holds

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
      ("dirty-compare", dirty_tests);
      ("memory-model", [ QCheck_alcotest.to_alcotest qcheck_memory_model ]);
      ("roundtrip-fuzzgen", fuzzgen_roundtrip_tests);
      ("interp", interp_tests);
      ("asm", asm_tests);
    ]
