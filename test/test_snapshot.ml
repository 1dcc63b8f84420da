(* Snapshot / record-replay robustness suite.

   The tentpole property: a guest reverted to a snapshot and rerun is
   bit-identical — same virtual cycle count, same trace-event stream,
   same exit code and console output — to a fresh run, under both first
   phases and with a translation cache small enough to flush mid-run,
   including a multithreaded guest
   whose run crosses a cross-thread SMC shootdown.
   On top: crash-capsule round trips (watchdog and seeded-divergence
   capsules must replay to the same failure with every commit point
   matching) and fork-server equivalence (a snapshotted/reverted session
   must classify inputs exactly as one-shot lockstep runs do). *)

module E = Ia32el.Engine
module F = Harness.Fuzz
module Cap = Harness.Capsule
module R = Harness.Resilience
module Memory = Ia32.Memory

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Configuration matrix                                                *)
(* ------------------------------------------------------------------ *)

(* first phase x translation-cache size: interpret-first runs cold code
   in the engine's interpreter, so revert+rerun also crosses its heat
   counts and its shared decode cache, not only translated code; the
   small cache flushes wholesale mid-run, on top of the barrier flushes *)
let configs =
  let d = Ia32el.Config.default in
  let i = { d with Ia32el.Config.first_phase = Ia32el.Config.Interpret_first } in
  let flush c = { c with Ia32el.Config.tcache_limit = 100 } in
  [
    ("default", d);
    ("tcache-flush", flush d);
    ("interpret-first", i);
    ("interpret-first-tcache-flush", flush i);
  ]

(* ------------------------------------------------------------------ *)
(* Observables of one engine run                                       *)
(* ------------------------------------------------------------------ *)

type obs = { res : string; clock : int; output : string; events : int }

let pp_obs ppf o =
  Format.fprintf ppf "%s clock=%d events=%d out=%S" o.res o.clock o.events
    o.output

let obs_t = Alcotest.testable pp_obs ( = )

let observe_run eng tr st =
  let i0 = Obs.Trace.absolute_index tr in
  let res =
    match E.run ~fuel:10_000_000 eng st with
    | E.Exited (code, _) -> Printf.sprintf "exit %d" code
    | E.Out_of_fuel -> "fuel"
    | E.Unhandled_fault (f, _) -> "fault " ^ Ia32.Fault.to_string f
  in
  {
    res;
    clock = E.clock eng;
    output = Btlib.Vos.output eng.E.vos;
    events = Obs.Trace.absolute_index tr - i0;
  }

let fresh_engine config image =
  let mem = Memory.create () in
  let st = Ia32.Asm.load ~writable_code:true image mem in
  let eng = E.create ~config ~btlib:(module Btlib.Linuxsim) mem in
  let tr = Obs.Trace.create () in
  E.attach_trace eng tr;
  (eng, tr, st)

(* Deterministically pick fuzz programs whose pools cover the features
   we want the snapshot to cross (generation is seeded, so the search
   result is stable). *)
let find_prog ~want ~max_insns =
  let rng = F.Rng.create 99 in
  let rec go seed =
    if seed > 2000 then
      Alcotest.failf "no generated program with pools [%s]"
        (String.concat "; " want)
    else
      let p = F.generate ~rng ~max_insns seed in
      let pools = F.pools p in
      if List.for_all (fun w -> List.mem w pools) want then p
      else go (seed + 1)
  in
  go 0

(* snapshot(barrier) -> run -> revert -> rerun must equal a fresh run in
   every observable, repeatedly; a committed epoch keeps its run. *)
let revert_rerun_case name image =
  List.map
    (fun (cname, config) ->
      Alcotest.test_case
        (Printf.sprintf "%s bit-identical revert+rerun [%s]" name cname)
        `Quick
        (fun () ->
          let eng_a, tr_a, st_a = fresh_engine config image in
          let fresh = observe_run eng_a tr_a st_a in
          let eng, tr, st = fresh_engine config image in
          (* the snapshot must see the main thread in the Vos table even
             though [E.run] has not registered it yet; reverting then
             restores the initial state back into [st] itself *)
          Btlib.Vos.register_main eng.E.vos st;
          ignore (E.snapshot ~barrier:true eng);
          check obs_t "run 1 (from snapshot) == fresh" fresh
            (observe_run eng tr st);
          ignore (E.revert eng);
          check int "epoch popped" 0 (E.snapshot_depth eng);
          ignore (E.snapshot ~barrier:true eng);
          check obs_t "run 2 (after revert) == fresh" fresh
            (observe_run eng tr st);
          ignore (E.revert eng);
          (* nested: outer epoch around an inner committed one — the
             committed run's changes persist relative to the inner epoch *)
          ignore (E.snapshot ~barrier:true eng);
          ignore (E.snapshot ~barrier:true eng);
          check int "two epochs open" 2 (E.snapshot_depth eng);
          let again = observe_run eng tr st in
          check obs_t "run 3 (nested epoch) == fresh" fresh again;
          E.commit_snapshot eng;
          check int "inner epoch folded away" 1 (E.snapshot_depth eng);
          ignore (E.revert eng);
          ignore (E.snapshot ~barrier:true eng);
          check obs_t "run 4 (outer revert undid the commit)" fresh
            (observe_run eng tr st);
          ignore (E.revert eng)))
    configs

let matrix_tests =
  (* plain single-threaded program with syscalls *)
  let basic = find_prog ~want:[ "alu" ] ~max_insns:32 in
  (* self-modifying code crossing the revert *)
  let smc = find_prog ~want:[ "smc" ] ~max_insns:40 in
  revert_rerun_case "alu" (F.build_image basic)
  @ revert_rerun_case "smc" (F.build_image smc)

(* ------------------------------------------------------------------ *)
(* Cross-thread SMC shootdown crossed by a revert                      *)
(* ------------------------------------------------------------------ *)

let smc_thread_tests =
  (* a program that both spawns guest threads and self-modifies: the
     snapshot/revert must rewind the SMC shootdown (invalidated blocks,
     watch set, pending work) and the whole thread table. Pool labels
     alone don't guarantee the generated program actually spawns and
     self-modifies at runtime (the pool mix shifts as generators are
     added), so run each candidate and demand both event kinds. *)
  let exercises_both image =
    try
      let eng, tr, st = fresh_engine Ia32el.Config.default image in
      let _ = observe_run eng tr st in
      let evs = Obs.Trace.events tr in
      let has p = List.exists p evs in
      has (fun e ->
          match e.Obs.Trace.ev with
          | Obs.Trace.Smc_invalidation _ -> true
          | _ -> false)
      && has (fun e ->
             match e.Obs.Trace.ev with
             | Obs.Trace.Thread_spawn _ -> true
             | _ -> false)
    with _ -> false
  in
  let prog =
    let rng = F.Rng.create 99 in
    let rec go seed =
      if seed > 2000 then
        Alcotest.fail "no generated program exercising smc+threads"
      else
        let p = F.generate ~rng ~max_insns:48 seed in
        let pools = F.pools p in
        if
          List.for_all (fun w -> List.mem w pools) [ "smc"; "threads" ]
          && exercises_both (F.build_image p)
        then p
        else go (seed + 1)
    in
    go 0
  in
  let image = F.build_image prog in
  [
    Alcotest.test_case "guest program exercises SMC and threads" `Quick
      (fun () ->
        let eng, tr, st = fresh_engine Ia32el.Config.default image in
        let _ = observe_run eng tr st in
        let evs = Obs.Trace.events tr in
        let count p = List.length (List.filter p evs) in
        check bool "SMC invalidations happened" true
          (count (fun e ->
               match e.Obs.Trace.ev with
               | Obs.Trace.Smc_invalidation _ -> true
               | _ -> false)
          > 0);
        check bool "guest threads ran" true
          (count (fun e ->
               match e.Obs.Trace.ev with
               | Obs.Trace.Thread_spawn _ -> true
               | _ -> false)
          > 0))
  ]
  @ revert_rerun_case "smc+threads" image

(* ------------------------------------------------------------------ *)
(* Warm (non-barrier) revert: same architectural results, warm blocks  *)
(* ------------------------------------------------------------------ *)

let warm_revert_tests =
  let prog = find_prog ~want:[ "alu" ] ~max_insns:32 in
  let image = F.build_image prog in
  [
    Alcotest.test_case "warm revert preserves results across reruns" `Quick
      (fun () ->
        (* without the barrier, translations stay warm, so virtual time
           can differ from a fresh run (translation overhead is not
           re-paid) — but the architectural observables must not *)
        let eng_a, tr_a, st_a = fresh_engine Ia32el.Config.default image in
        let fresh = observe_run eng_a tr_a st_a in
        let eng, tr, st = fresh_engine Ia32el.Config.default image in
        Btlib.Vos.register_main eng.E.vos st;
        let restored0 = E.pages_restored eng in
        for i = 1 to 4 do
          ignore (E.snapshot eng);
          let r = observe_run eng tr st in
          check string (Printf.sprintf "run %d result" i) fresh.res r.res;
          check string (Printf.sprintf "run %d output" i) fresh.output r.output;
          ignore (E.revert eng)
        done;
        check bool "reverts restored pages" true
          (E.pages_restored eng > restored0));
  ]

(* ------------------------------------------------------------------ *)
(* Recycled epoch tables                                               *)
(* ------------------------------------------------------------------ *)

(* The machine tables a snapshot copies into recycled buffers: the hot
   and edge counters, the dcache model (tags, LRU ranks, hits, misses)
   and the general registers, with the clock. *)
type tables = {
  hotc : int array;
  edgec : int array;
  dcache : Ipf.Dcache.checkpoint;
  gr : int64 list;
  clock : int;
}

let tables (eng : E.t) =
  let m = eng.E.machine in
  {
    hotc = Array.copy m.Ipf.Machine.hotc;
    edgec = Array.copy m.Ipf.Machine.edgec;
    dcache = Ipf.Dcache.checkpoint m.Ipf.Machine.dcache;
    gr = List.init 128 (Bigarray.Array1.get m.Ipf.Machine.gr);
    clock = E.clock eng;
  }

let tables_t =
  Alcotest.testable
    (fun ppf t ->
      Format.fprintf ppf "clock=%d hotc-sum=%d edgec-sum=%d" t.clock
        (Array.fold_left ( + ) 0 t.hotc)
        (Array.fold_left ( + ) 0 t.edgec))
    ( = )

let epoch_table_tests =
  let prog = find_prog ~want:[ "alu"; "mem" ] ~max_insns:32 in
  let image = F.build_image prog in
  (* an engine that has run once, so its counters and dcache are warm *)
  let warmed () =
    let eng, tr, st = fresh_engine Ia32el.Config.default image in
    Btlib.Vos.register_main eng.E.vos st;
    ignore (observe_run eng tr st);
    eng
  in
  (* what a run does to the tables, distinct for each [k] *)
  let perturb (eng : E.t) k =
    let m = eng.E.machine in
    for i = 0 to 99 do
      let j = ((i * 37) + k) land (Ipf.Machine.counter_slots - 1) in
      m.Ipf.Machine.hotc.(j) <- m.Ipf.Machine.hotc.(j) + k;
      m.Ipf.Machine.edgec.(j) <- m.Ipf.Machine.edgec.(j) + 1;
      ignore (Ipf.Dcache.access m.Ipf.Machine.dcache ((k * 0x10000) + (i * 64)));
      Bigarray.Array1.set m.Ipf.Machine.gr (1 + (i land 63)) (Int64.of_int (k * i))
    done
  in
  [
    Alcotest.test_case "a warm epoch nested in a barrier epoch: commit, revert"
      `Quick (fun () ->
        let eng = warmed () in
        ignore (E.snapshot ~barrier:true eng);
        let outer = tables eng in
        perturb eng 1;
        check bool "the tables moved" true (tables eng <> outer);
        ignore (E.snapshot eng);
        perturb eng 2;
        E.commit_snapshot eng;
        (* the next epoch refills the committed child's tables; they
           must not be the outer epoch's, which is still open *)
        ignore (E.snapshot eng);
        let inner = tables eng in
        perturb eng 3;
        ignore (E.revert eng);
        check tables_t "the recycled epoch reverts to its snapshot" inner
          (tables eng);
        ignore (E.revert eng);
        check tables_t "the outer epoch reverts to its snapshot" outer
          (tables eng));
    Alcotest.test_case "a recycled set never backs two open epochs" `Quick
      (fun () ->
        let eng = warmed () in
        ignore (E.snapshot eng);
        perturb eng 1;
        ignore (E.revert eng);
        check int "one spare set" 1 (List.length eng.E.spare_tables);
        ignore (E.snapshot eng);
        check int "the next snapshot takes it" 0
          (List.length eng.E.spare_tables);
        let first = tables eng in
        perturb eng 2;
        ignore (E.snapshot eng);
        let second = tables eng in
        perturb eng 3;
        ignore (E.revert eng);
        check tables_t "inner epoch" second (tables eng);
        ignore (E.revert eng);
        check tables_t "outer epoch" first (tables eng);
        check int "both sets spare again" 2 (List.length eng.E.spare_tables));
  ]

(* ------------------------------------------------------------------ *)
(* Warm revert by content                                              *)
(* ------------------------------------------------------------------ *)

module L = Ia32el.Lockstep
module B = Ia32el.Block
module A = Ia32el.Account

(* A fork-server over a hand-written guest, served like [Fuzz.server_run]:
   both lockstep vehicles snapshot, the pair runs, both revert. *)
type srv = { s : L.session; e : E.t; lookup : string -> int }

let srv_start ?(config = Ia32el.Config.default) ~code ~data () =
  let image = Ia32.Asm.build ~code ~data () in
  let mem = Memory.create () in
  let st = Ia32.Asm.load ~writable_code:true image mem in
  let s = L.create ~config ~btlib:(module Btlib.Linuxsim) mem st in
  { s; e = L.engine s; lookup = image.Ia32.Asm.lookup }

(* What one input did, read before the revert rewinds the counters. *)
type input = { clean : bool; translated : int; smc : int; out : int }

let push x =
  ignore (E.snapshot x.e);
  Memory.Journal.push (L.reference_mem x.s);
  Btlib.Vos.checkpoint (L.reference_vos x.s)

let pop x ck =
  x.e.E.running_block <- None;
  ignore (E.revert x.e);
  ignore (Memory.Journal.revert (L.reference_mem x.s));
  Btlib.Vos.restore (L.reference_vos x.s) ck

let run_input ?(before = ignore) x =
  let ck = push x in
  before x;
  let a = x.e.E.acct in
  let c0 = a.A.cold_blocks + a.A.hot_blocks and s0 = a.A.smc_invalidations in
  let r = L.run_in ~fuel:1_000_000 x.s in
  let clean =
    r.L.divergence = None
    && match r.L.outcome with Some (E.Exited (0, _)) -> true | _ -> false
  in
  let res =
    {
      clean;
      translated = a.A.cold_blocks + a.A.hot_blocks - c0;
      smc = a.A.smc_invalidations - s0;
      out = Memory.read32 x.e.E.mem (x.lookup "out");
    }
  in
  pop x ck;
  res

let live_at x name = B.find_entry x.e.E.cache (x.lookup name)

let blocks_at x name =
  Hashtbl.fold
    (fun _ b acc -> if b.B.entry = x.lookup name then b :: acc else acc)
    x.e.E.cache.B.by_id []

let exit0 =
  Ia32.Asm.
    [
      i (Ia32.Insn.Mov (S32, R Eax, I 1));
      i (Ia32.Insn.Mov (S32, R Ebx, I 0));
      i (Ia32.Insn.Int_n 0x80);
    ]

let out_data = Ia32.Asm.[ label "out"; space 8 ]

(* The block at [start] runs through [target] once; then a second block
   patches the imm32 of [target]'s mov, which kills the first (it covers
   those bytes), and jumps back to run the patched code. *)
let smc_code =
  let open Ia32.Insn in
  Ia32.Asm.(
    [
      label "start";
      i (Mov (S32, R Ebx, I 0));
      label "target";
      i (Mov (S32, R Eax, I 111));
      with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
      i (Test (S32, R Ebx, R Ebx));
      jcc Ne "done";
      i (Mov (S32, R Ebx, I 1));
      with_lab "target" (fun a -> Mov (S32, M (mem_abs (a + 1)), I 777));
      jmp "target";
      label "done";
    ]
    @ exit0)

let expect_clean name r =
  check bool (name ^ ": lockstep-clean exit") true r.clean

let by_content_tests =
  [
    Alcotest.test_case "a block whose rewound bytes come back is kept" `Quick
      (fun () ->
        (* the guest stores into its own code page, past its code: the
           page is rewound every input, the block's bytes never change *)
        let code =
          let open Ia32.Insn in
          Ia32.Asm.(
            [
              label "start";
              i (Mov (S32, R Eax, I 5));
              with_lab "slot" (fun a -> Mov (S32, M (mem_abs a), R Eax));
              with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
            ]
            @ exit0
            @ [ label "slot"; space 8 ])
        in
        let x = srv_start ~code ~data:out_data () in
        let r1 = run_input x in
        expect_clean "input 1" r1;
        check bool "input 1 translated" true (r1.translated > 0);
        let b = Option.get (live_at x "start") in
        let r2 = run_input x in
        expect_clean "input 2" r2;
        check int "input 2 translates nothing" 0 r2.translated;
        check bool "the same block is live" true
          (match live_at x "start" with Some b' -> b' == b | None -> false));
    Alcotest.test_case "SMC-patched code is revived, the patch dropped" `Quick
      (fun () ->
        let x = srv_start ~code:smc_code ~data:out_data () in
        let r1 = run_input x in
        expect_clean "input 1" r1;
        check int "input 1 ran the patched code" 777 r1.out;
        check bool "input 1 caught the SMC" true (r1.smc > 0);
        (* the original translation at [start], killed by the patch, is
           back at its own bundles; the one of the patched bytes is gone *)
        let b =
          match live_at x "start" with
          | Some b -> b
          | None -> Alcotest.fail "original block not revived"
        in
        check bool "revived block is the first translation" true
          (List.for_all (fun b' -> b'.B.id >= b.B.id) (blocks_at x "start"));
        check bool "patched translation dropped" true (live_at x "target" = None);
        check bool "... and kept dormant" true
          (Hashtbl.mem x.e.E.cache.B.dormant (x.lookup "target"));
        check bool "the code page is watched again" true
          (Memory.page_watched x.e.E.mem (x.lookup "target"));
        let tstart = b.B.tstart in
        let r2 = run_input x in
        expect_clean "input 2" r2;
        check int "input 2 ran the patched code" 777 r2.out;
        check bool "input 2 caught the SMC again" true (r2.smc > 0);
        (* the patch recreates the dormant block's source: it wakes *)
        check int "input 2 translates nothing" 0 r2.translated;
        check bool "revived again in place" true
          (match live_at x "start" with
          | Some b' -> b' == b && b'.B.tstart = tstart
          | None -> false));
    Alcotest.test_case "one kept copy revives a block twice" `Quick
      (fun () ->
        (* a revived block's bundles are the cache's own: killing it again
           must not overwrite the copy it was revived from *)
        let x = srv_start ~code:smc_code ~data:out_data () in
        expect_clean "input 1" (run_input x);
        let tc = x.e.E.tcache and cache = x.e.E.cache in
        let b = Option.get (live_at x "start") in
        let k = B.keep tc b in
        let code () = Array.init b.B.tlen (fun i -> Ipf.Tcache.get tc (b.B.tstart + i)) in
        for round = 1 to 2 do
          B.invalidate cache tc b;
          B.revive cache tc k;
          check bool (Printf.sprintf "round %d: code restored" round) true
            (code () = k.B.k_code)
        done;
        let r = run_input x in
        expect_clean "input 2" r;
        check int "input 2 ran the patched code" 777 r.out);
    Alcotest.test_case "a revived block's group programs validate again"
      `Quick (fun () ->
        (* revival restores the bundles' content, so the programs
           compiled from it before the kill are valid again. Input 1's
           revert revives the block at [start] with the chain patches it
           carried when the SMC killed it, which input 1 never ran: input
           2 derives that program from the unpatched one *)
        let x = srv_start ~code:smc_code ~data:out_data () in
        let tc = x.e.E.tcache and ex = x.e.E.exec in
        expect_clean "input 1" (run_input x);
        let first = Ipf.Exec.compiled_slots ex in
        expect_clean "input 2" (run_input x);
        let second = Ipf.Exec.compiled_slots ex - first in
        check bool
          (Printf.sprintf "input 2 compiles %d of input 1's %d slots" second
             first)
          true
          (2 * second < first);
        let b = Option.get (live_at x "start") in
        let valid0 = Ipf.Exec.cached_programs ex in
        let k = B.keep tc b in
        B.invalidate x.e.E.cache tc b;
        check bool "the kill invalidates the block's programs" true
          (Ipf.Exec.cached_programs ex < valid0);
        B.revive x.e.E.cache tc k;
        check int "revival validates them again" valid0
          (Ipf.Exec.cached_programs ex);
        let programs = Ipf.Exec.compiled ex in
        expect_clean "input 3" (run_input x);
        check int "input 3 compiles none" 0 (Ipf.Exec.compiled ex - programs));
    Alcotest.test_case "a rewind that changes bytes or protection drops"
      `Quick (fun () ->
        (* bytes: [target] is first translated after the patch, so the
           rewind takes its source away *)
        let code =
          let open Ia32.Insn in
          Ia32.Asm.(
            [
              label "start";
              with_lab "target" (fun a -> Mov (S32, M (mem_abs (a + 1)), I 777));
              jmp "target";
              label "target";
              i (Mov (S32, R Eax, I 111));
              with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
            ]
            @ exit0)
        in
        let x = srv_start ~code ~data:out_data () in
        let r1 = run_input x in
        expect_clean "bytes input 1" r1;
        check int "patched code ran" 777 r1.out;
        check bool "block of patched bytes dropped" true
          (live_at x "target" = None);
        check bool "unchanged block kept" true (live_at x "start" <> None);
        expect_clean "bytes input 2" (run_input x);
        (* protection: the code page is read-only while the input runs *)
        let code =
          let open Ia32.Insn in
          Ia32.Asm.(
            [
              label "start";
              i (Mov (S32, R Eax, I 5));
              with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
            ]
            @ exit0)
        in
        let x = srv_start ~code ~data:out_data () in
        let protect x =
          List.iter
            (fun mem ->
              Memory.protect mem ~addr:(x.lookup "start") ~len:1
                ~prot:Memory.prot_rx)
            [ x.e.E.mem; L.reference_mem x.s ]
        in
        expect_clean "prot input 1" (run_input ~before:protect x);
        check bool "block translated under other protection dropped" true
          (live_at x "start" = None);
        let r2 = run_input x in
        expect_clean "prot input 2" r2;
        check bool "retranslated" true (r2.translated > 0));
    Alcotest.test_case "a superseded or regenerated block is not revived"
      `Quick (fun () ->
        (* hot: the cold loop block is superseded during the input; the
           store to the code page puts the trace through the keep check *)
        let code =
          let open Ia32.Insn in
          Ia32.Asm.(
            [
              label "start";
              i (Mov (S32, R Ecx, I 200));
              i (Mov (S32, R Eax, I 0));
              label "loop";
              i (Alu (Add, S32, R Eax, R Ecx));
              i (Dec (S32, R Ecx));
              jcc Ne "loop";
              with_lab "slot" (fun a -> Mov (S32, M (mem_abs a), R Eax));
              with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
            ]
            @ exit0
            @ [ label "slot"; space 8 ])
        in
        let config =
          {
            Ia32el.Config.default with
            Ia32el.Config.heat_threshold = 15;
            session_candidates = 2;
          }
        in
        let x = srv_start ~config ~code ~data:out_data () in
        expect_clean "hot input 1" (run_input x);
        (match live_at x "loop" with
        | Some b -> check bool "the hot trace holds the loop" true (b.B.kind = B.Hot)
        | None -> Alcotest.fail "no block at the loop");
        check bool "the superseded cold block stays dead" true
          (List.for_all
             (fun b -> b.B.kind = B.Hot || not b.B.live)
             (blocks_at x "loop"));
        let r2 = run_input x in
        expect_clean "hot input 2" r2;
        check int "hot input 2 translates nothing" 0 r2.translated;
        (* stage 2: a misaligned loop regenerates its stage-1 block *)
        let code =
          let open Ia32.Insn in
          Ia32.Asm.(
            [
              label "start";
              mov_ri_lab Ebx "buf";
              i (Alu (Add, S32, R Ebx, I 2));
              i (Mov (S32, R Ecx, I 30));
              label "loop";
              i (Alu (Add, S32, M (mem_b Ebx), I 1));
              i (Dec (S32, R Ecx));
              jcc Ne "loop";
              with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Ecx));
            ]
            @ exit0)
        in
        let data = out_data @ Ia32.Asm.[ label "buf"; space 16 ] in
        let x = srv_start ~config:Ia32el.Config.cold_only ~code ~data () in
        expect_clean "stage-2 input 1" (run_input x);
        (match live_at x "loop" with
        | Some b -> check int "the stage-2 block holds the loop" 2 b.B.misalign_stage
        | None -> Alcotest.fail "no block at the loop");
        check bool "the stage-1 block stays dead" true
          (List.for_all
             (fun b -> b.B.misalign_stage = 2 || not b.B.live)
             (blocks_at x "loop"));
        expect_clean "stage-2 input 2" (run_input x));
    Alcotest.test_case "a flush inside the epoch revives nothing" `Quick
      (fun () ->
        (* flush the whole cache when the input reaches [done], after the
           patch killed the block at [start] *)
        let armed = ref false and flushed_at = ref (-1) in
        let x = srv_start ~code:smc_code ~data:out_data () in
        x.e.E.on_dispatch <-
          Some
            (fun target ->
              if !armed && target = x.lookup "done" then begin
                armed := false;
                flushed_at := x.e.E.cache.B.next_id;
                E.force_cache_flush x.e
              end);
        armed := true;
        let r1 = run_input x in
        expect_clean "input 1" r1;
        check bool "the cache was flushed" true (!flushed_at >= 0);
        check int "nothing made before the flush is live" 0
          (Hashtbl.fold
             (fun _ b n -> if b.B.live && b.B.id < !flushed_at then n + 1 else n)
             x.e.E.cache.B.by_id 0);
        check bool "no block at start" true (live_at x "start" = None);
        let r2 = run_input x in
        expect_clean "input 2" r2;
        check int "input 2 ran the patched code" 777 r2.out);
    Alcotest.test_case "nested epochs: a committed child's kills revive"
      `Quick (fun () ->
        let x = srv_start ~code:smc_code ~data:out_data () in
        (* input 0 translates everything, so the next input's kill hits
           a block made before both epochs *)
        expect_clean "input 0" (run_input x);
        let b = Option.get (live_at x "start") in
        let ck = push x in
        ignore (E.snapshot x.e);
        let r = L.run_in ~fuel:1_000_000 x.s in
        check bool "nested input lockstep-clean" true (r.L.divergence = None);
        check bool "the patch killed the block" false b.B.live;
        E.commit_snapshot x.e;
        check int "one epoch left" 1 (E.snapshot_depth x.e);
        pop x ck;
        check bool "the outer revert revives the child's kill" true
          (match live_at x "start" with Some b' -> b' == b | None -> false);
        let r2 = run_input x in
        expect_clean "input after" r2;
        check int "input after translates nothing" 0 r2.translated);
  ]

(* ------------------------------------------------------------------ *)
(* The arch layer on its own (Ia32.Snapshot)                           *)
(* ------------------------------------------------------------------ *)

let arch_layer_tests =
  let module S = Ia32.Snapshot in
  [
    Alcotest.test_case "push/revert restores memory, state, watch set" `Quick
      (fun () ->
        let mem = Memory.create () in
        Memory.map mem ~addr:0x1000 ~len:0x3000 ~prot:Memory.prot_rwx;
        Memory.write32 mem 0x1000 0xAAAA;
        Memory.watch_page mem (0x1000 / Memory.page_size);
        let st = Ia32.State.create mem in
        st.Ia32.State.eip <- 0x1234;
        let snap = S.start mem in
        S.push snap [ st ];
        check int "depth" 1 (S.depth snap);
        Memory.write32 mem 0x1000 0xBBBB;
        Memory.write32 mem 0x2000 0x1;
        Memory.unwatch_page mem (0x1000 / Memory.page_size);
        st.Ia32.State.eip <- 0x9999;
        let touched = S.revert snap in
        check int "depth popped" 0 (S.depth snap);
        check int "O(pages touched)" 2 (List.length touched);
        check int "bytes restored" 0xAAAA (Memory.read32 mem 0x1000);
        check int "eip restored in place" 0x1234 st.Ia32.State.eip;
        check bool "watch set restored" true
          (Memory.page_watched mem (0x1000 / Memory.page_size));
        check int "pages_restored counts" 2 (S.pages_restored snap));
    Alcotest.test_case "nested epochs: commit folds, outer reverts" `Quick
      (fun () ->
        let mem = Memory.create () in
        Memory.map mem ~addr:0x1000 ~len:0x1000 ~prot:Memory.prot_rw;
        Memory.write32 mem 0x1000 1;
        let st = Ia32.State.create mem in
        let snap = S.start mem in
        S.push snap [ st ];
        Memory.write32 mem 0x1000 2;
        S.push snap [ st ];
        Memory.write32 mem 0x1000 3;
        S.commit snap;
        check int "committed value kept" 3 (Memory.read32 mem 0x1000);
        ignore (S.revert snap);
        check int "outer revert undoes the commit" 1
          (Memory.read32 mem 0x1000);
        check bool "revert with no epoch raises" true
          (match S.revert snap with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Crash capsules round-trip                                           *)
(* ------------------------------------------------------------------ *)

let tmp_capsule name = Filename.concat (Filename.get_temp_dir_name ()) name

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let capsule_tests =
  [
    Alcotest.test_case "watchdog capsule replays bit-identically" `Quick
      (fun () ->
        let file = tmp_capsule "ia32el-test-watchdog.capsule" in
        let w =
          Workloads.Threads.producer_consumer
            ~workers:Workloads.Threads.default_workers
        in
        (match
           R.run_plain ~max_cycles:30_000 ~snap_every:4 ~capsule:file w
             ~scale:1
         with
        | _ -> Alcotest.fail "watchdog did not trip"
        | exception Ia32el.Bt_error.Error e ->
          check string "watchdog component" "watchdog"
            e.Ia32el.Bt_error.component);
        check bool "capsule file exists" true (Sys.file_exists file);
        let c = Cap.load file in
        let v = Cap.replay c in
        check bool "reproduced" true v.Cap.v_reproduced;
        check int "all recorded commits matched" v.Cap.v_log_total
          v.Cap.v_log_match;
        Sys.remove file);
    Alcotest.test_case "divergence capsule replays deterministically" `Quick
      (fun () ->
        (* seeded register corruption -> lockstep divergence; the capsule
           records the sabotage spec, so replay reinstalls it and must
           reproduce the same diverging commit *)
        let file = tmp_capsule "ia32el-test-divergence.capsule" in
        let sb =
          match Cap.parse_sabotage "40:esi:0xBEEF" with
          | Ok sb -> sb
          | Error e -> Alcotest.fail e
        in
        let w =
          Workloads.Threads.producer_consumer
            ~workers:Workloads.Threads.default_workers
        in
        let r = R.run_lockstep ~sabotage:sb ~capsule:file w ~scale:1 in
        (match r.R.report.Ia32el.Lockstep.divergence with
        | None -> Alcotest.fail "sabotage did not diverge"
        | Some _ -> ());
        check bool "capsule written" true (r.R.capsule_written = Some file);
        let c = Cap.load file in
        let v = Cap.replay c in
        check bool "reproduced" true v.Cap.v_reproduced;
        check int "all recorded commits matched" v.Cap.v_log_total
          v.Cap.v_log_match;
        Sys.remove file);
    Alcotest.test_case "capsule describe is stable across save/load" `Quick
      (fun () ->
        let file = tmp_capsule "ia32el-test-roundtrip.capsule" in
        let w =
          Workloads.Threads.producer_consumer
            ~workers:Workloads.Threads.default_workers
        in
        (try ignore (R.run_plain ~max_cycles:30_000 ~capsule:file w ~scale:1)
         with Ia32el.Bt_error.Error _ -> ());
        let c1 = Cap.load file in
        let c2 = Cap.load file in
        check string "describe" (Cap.describe c1) (Cap.describe c2);
        check bool "mentions the watchdog" true
          (contains ~sub:"watchdog" (Cap.describe c1));
        Sys.remove file);
    Alcotest.test_case "load rejects a non-capsule file" `Quick (fun () ->
        let file = tmp_capsule "ia32el-test-bogus.capsule" in
        let oc = open_out_bin file in
        Marshal.to_channel oc "not a capsule" [];
        close_out oc;
        (match Cap.load file with
        | _ -> Alcotest.fail "bogus file accepted"
        | exception _ -> ());
        Sys.remove file);
    Alcotest.test_case "load rejects a config-fingerprint mismatch" `Quick
      (fun () ->
        let file = tmp_capsule "ia32el-test-fp.capsule" in
        let w =
          Workloads.Threads.producer_consumer
            ~workers:Workloads.Threads.default_workers
        in
        (try ignore (R.run_plain ~max_cycles:30_000 ~capsule:file w ~scale:1)
         with Ia32el.Bt_error.Error _ -> ());
        (* a capsule from a build whose translation semantics drifted:
           same config, different fingerprint *)
        Cap.save file (Cap.corrupt_config_fp (Cap.load file) 0xDEADL);
        (match Cap.load file with
        | _ -> Alcotest.fail "incompatible capsule accepted"
        | exception Ia32el.Bt_error.Error e ->
          check string "structured component" "capsule"
            e.Ia32el.Bt_error.component);
        Sys.remove file);
    Alcotest.test_case "load rejects a policy-field config mismatch" `Quick
      (fun () ->
        (* a capsule recorded under one policy setting must not replay
           against the flipped one: the fingerprint embedded in the
           capsule covers every configuration field *)
        let file = tmp_capsule "ia32el-test-perf-fp.capsule" in
        let w =
          Workloads.Threads.producer_consumer
            ~workers:Workloads.Threads.default_workers
        in
        (try ignore (R.run_plain ~max_cycles:30_000 ~capsule:file w ~scale:1)
         with Ia32el.Bt_error.Error _ -> ());
        let pristine = Cap.load file in
        let d = Ia32el.Config.default in
        List.iter
          (fun (fname, flipped) ->
            Cap.save file
              (Cap.corrupt_config_fp pristine
                 (Persist.config_fingerprint flipped));
            match Cap.load file with
            | _ -> Alcotest.failf "%s-mismatched capsule accepted" fname
            | exception Ia32el.Bt_error.Error e ->
              check string "structured component" "capsule"
                e.Ia32el.Bt_error.component)
          [
            ( "heat-threshold",
              { d with
                Ia32el.Config.heat_threshold =
                  2 * d.Ia32el.Config.heat_threshold } );
            ( "scheduling",
              { d with
                Ia32el.Config.enable_scheduling =
                  not d.Ia32el.Config.enable_scheduling } );
          ];
        Sys.remove file);
    Alcotest.test_case "load rejects an older capsule format" `Quick
      (fun () ->
        (* an older format marshals an older Config.t: the version tag
           must be refused with a structured error before anything is
           unmarshalled *)
        let file = tmp_capsule "ia32el-test-old-format.capsule" in
        let w =
          Workloads.Threads.producer_consumer
            ~workers:Workloads.Threads.default_workers
        in
        (try ignore (R.run_plain ~max_cycles:30_000 ~capsule:file w ~scale:1)
         with Ia32el.Bt_error.Error _ -> ());
        let ic = open_in_bin file in
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let n = String.length Cap.magic in
        let old = "IA32EL-CAPSULE/3" in
        check int "same tag width" n (String.length old);
        let oc = open_out_bin file in
        output_string oc (old ^ String.sub body n (String.length body - n));
        close_out oc;
        (match Cap.load file with
        | _ -> Alcotest.fail "older-format capsule accepted"
        | exception Ia32el.Bt_error.Error e ->
          check string "structured component" "capsule"
            e.Ia32el.Bt_error.component);
        Sys.remove file);
  ]

(* ------------------------------------------------------------------ *)
(* Fork-server equivalence                                             *)
(* ------------------------------------------------------------------ *)

let classify = function
  | F.R_ok { commits; exit_code } ->
    Printf.sprintf "ok commits=%d exit=%d" commits exit_code
  | F.R_halted f -> "halted " ^ Ia32.Fault.to_string f
  | F.R_fuel -> "fuel"
  | F.R_diverged d ->
    Printf.sprintf "diverged@%d" d.Ia32el.Lockstep.commit_index
  | F.R_crash m -> "crash " ^ m

(* A generated SMC-pool program on a fork server: after warm-up, inputs
   translate (almost) nothing and the tcache stops growing. *)
let steady_state_test =
  Alcotest.test_case "fork-server steady state on an SMC-pool program" `Quick
    (fun () ->
      let smc_at_runtime p =
        match F.run_one p with
        | r -> (
          match r.F.result with
          | F.R_ok _ ->
            let eng, tr, st = fresh_engine Ia32el.Config.default (F.build_image p) in
            ignore (observe_run eng tr st);
            eng.E.acct.A.smc_invalidations > 0
          | _ -> false)
        | exception _ -> false
      in
      let prog =
        let rng = F.Rng.create 99 in
        let rec go seed =
          if seed > 2000 then Alcotest.fail "no program self-modifies"
          else
            let p = F.generate ~rng ~max_insns:32 seed in
            if List.mem "smc" (F.pools p) && smc_at_runtime p then p
            else go (seed + 1)
        in
        go 0
      in
      let srv = F.server_start prog in
      let tcache () = Ipf.Tcache.length (F.server_engine srv).E.tcache in
      let mrng = F.Rng.create 17 in
      let input k =
        let muts =
          if k = 0 then []
          else
            List.init
              (1 + F.Rng.int mrng 32)
              (fun _ -> (F.Rng.int mrng F.mutation_span, F.Rng.int mrng 256))
        in
        match F.server_run srv muts with
        | F.R_ok _ | F.R_halted _ | F.R_fuel -> ()
        | r -> Alcotest.failf "input %d: %s" k (classify r)
      in
      input 0;
      input 1;
      let t0 = F.server_translations srv and b0 = tcache () in
      for k = 2 to 199 do
        input k
      done;
      let n = F.server_translations srv - t0 in
      check bool
        (Printf.sprintf "at most 1 translation per input (%d in 198)" n)
        true (n <= 198);
      (* a server whose reverts kept nothing retranslates every input
         into fresh bundles and multiplies its tcache many times over *)
      check bool
        (Printf.sprintf "tcache growth bounded (%d -> %d bundles)" b0 (tcache ()))
        true
        (tcache () <= 2 * b0))

let forkserver_tests =
  [
    Alcotest.test_case "server base run equals one-shot lockstep" `Quick
      (fun () ->
        let rng = F.Rng.create 7 in
        for seed = 0 to 3 do
          let prog = F.generate ~rng ~max_insns:32 seed in
          let expect = classify (F.run_one prog).F.result in
          let srv = F.server_start prog in
          (* the base input, repeatedly: every run goes through a fresh
             snapshot/revert pair and must classify identically *)
          for i = 1 to 3 do
            check string
              (Printf.sprintf "seed %d run %d" seed i)
              expect
              (classify (F.server_run srv []))
          done
        done);
    Alcotest.test_case "mutated runs leave no residue" `Quick (fun () ->
        let rng = F.Rng.create 11 in
        let prog = F.generate ~rng ~max_insns:32 5 in
        let expect = classify (F.run_one prog).F.result in
        let srv = F.server_start prog in
        let mrng = F.Rng.create 13 in
        for _ = 1 to 10 do
          let muts =
            List.init
              (1 + F.Rng.int mrng 32)
              (fun _ -> (F.Rng.int mrng F.mutation_span, F.Rng.int mrng 256))
          in
          (* a mutated run may legitimately change the guest's results;
             it must still be lockstep-clean (no divergence/crash) *)
          (match F.server_run srv muts with
          | F.R_ok _ | F.R_halted _ | F.R_fuel -> ()
          | r -> Alcotest.failf "mutated run misbehaved: %s" (classify r));
          (* and the base input must classify as before afterwards *)
          check string "base input unchanged" expect
            (classify (F.server_run srv []))
        done;
        check bool "reverts restored pages" true
          (F.server_pages_restored srv > 0));
    Alcotest.test_case "forkserver campaign smoke is clean" `Quick (fun () ->
        let r =
          F.forkserver_campaign
            {
              F.fs_seed = 3;
              fs_programs = 2;
              fs_mutations = 8;
              fs_max_insns = 24;
              fs_fuel = 12_000_000;
              fs_max_findings = 5;
              fs_log = ignore;
            }
        in
        check int "bases" 2 r.F.fs_bases;
        check int "runs" (2 * 9) r.F.fs_runs;
        check int "no findings" 0 (List.length r.F.fs_findings));
    steady_state_test;
  ]

(* ------------------------------------------------------------------ *)
(* Auto-snapshot cadence and time-travel anchors                       *)
(* ------------------------------------------------------------------ *)

let cadence_tests =
  [
    Alcotest.test_case "snap-every leaves anchored epochs behind" `Quick
      (fun () ->
        (* needs mid-run syscall commits: thread atoms spawn/join/futex *)
        let prog = find_prog ~want:[ "threads" ] ~max_insns:48 in
        let image = F.build_image prog in
        let eng, tr, st = fresh_engine Ia32el.Config.default image in
        eng.E.snap_every <- Some 1;
        let _ = observe_run eng tr st in
        check bool "epochs were opened" true (E.snapshot_depth eng > 0);
        (* every Snapshot trace event's recorded index must map back to
           its own epoch through the time-travel query *)
        let snaps = ref 0 in
        List.iter
          (fun e ->
            match e.Obs.Trace.ev with
            | Obs.Trace.Snapshot { epoch; event_index } ->
              incr snaps;
              check (Alcotest.option int) "epoch_for_event" (Some epoch)
                (E.epoch_for_event eng event_index)
            | _ -> ())
          (Obs.Trace.events tr);
        check bool "snapshot events traced" true (!snaps > 0));
  ]

let () =
  Alcotest.run "snapshot"
    [
      ("revert-rerun-matrix", matrix_tests);
      ("smc-threads", smc_thread_tests);
      ("warm-revert", warm_revert_tests);
      ("epoch-tables", epoch_table_tests);
      ("warm-revert-by-content", by_content_tests);
      ("arch-layer", arch_layer_tests);
      ("capsules", capsule_tests);
      ("forkserver", forkserver_tests);
      ("cadence", cadence_tests);
    ]
