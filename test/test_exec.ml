(* Execution core tests.

   Translated code runs on {!Ipf.Exec}'s block programs — fall-through
   chains of issue groups — whose timing is resolved per group at compile
   time. The group-vs-reference
   cases run hand-built and generated tcaches through [Exec.run] and
   through [Exec.reference_run], which runs the same instruction closures
   one fetched slot at a time, and require every observable to match.
   Also pinned here: repeat-run determinism of the metrics snapshot, the
   SMC behaviour of the interpreter's decode cache ({!Ia32.Icache},
   against the uncached interpreter), and the allocation budgets of the
   inner loops (the hot paths only pay off if they stay off the minor
   heap). *)

module B = Workloads.Baselines
module E = Ia32el.Engine
module J = Obs.Metrics

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string

(* ---------------- determinism ---------------- *)

(* Run the same workload twice under the same config: the metrics snapshot
   itself must be reproducible (guards hidden wall-clock or hash-order
   nondeterminism in anything [metrics] reports). *)
let test_repeat_determinism () =
  let metrics () =
    match (B.run_el Workloads.Spec_int.gzip ~scale:1).B.engine with
    | Some e -> J.json_to_string (J.to_json (E.metrics e))
    | None -> "none"
  in
  checks "repeat run metrics" (metrics ()) (metrics ())

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

(* Minor words per executed machine slot. What
   remains is Int64 boxing in a few semantic actions plus the run's
   translation and group compilation; the budget has headroom for that
   but catches any reintroduced per-slot tuple, option, closure or
   hashtable traffic (which adds at least a word per slot on top). *)
let test_machine_alloc_budget () =
  (* warm up: translations, lowering and caches allocate freely *)
  ignore (B.run_el Workloads.Spec_int.gzip ~scale:1);
  let slots_of r =
    match r.B.engine with
    | Some e -> e.E.machine.Ipf.Machine.stats.Ipf.Machine.slots_retired
    | None -> 0
  in
  let before = Gc.minor_words () in
  let r = B.run_el Workloads.Spec_int.gzip ~scale:1 in
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

(* Minor words per reference step of a lockstep gzip run, net of a plain
   engine run of the same guest. The reference side steps the interpreter
   through its decode cache, keeps the reproducer window as (eip, insn)
   pairs rendered only on divergence, and settles equal memory pages
   without a byte scan. A per-step decode, [Insn.to_string] or [sprintf]
   costs tens of words per step; the budget catches any of them. *)
let test_lockstep_alloc_budget () =
  let image =
    Workloads.Spec_int.gzip.Workloads.Common.build ~scale:1 ~wide:false
  in
  let btlib = (module Btlib.Linuxsim : Btlib.Btos.S) in
  let load () =
    let mem = Ia32.Memory.create () in
    (mem, Ia32.Asm.load image mem)
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let plain () =
    let mem, st = load () in
    match E.run (E.create ~btlib mem) st with
    | E.Exited (0, _) -> ()
    | _ -> Alcotest.fail "plain gzip run should exit 0"
  in
  let lockstep () =
    let mem, st = load () in
    let r = Ia32el.Lockstep.run ~btlib mem st in
    match (r.Ia32el.Lockstep.divergence, r.Ia32el.Lockstep.outcome) with
    | None, Some (E.Exited (0, _)) -> ()
    | _ -> Alcotest.fail "lockstep gzip run should agree and exit 0"
  in
  let steps =
    let mem, st = load () in
    snd (Ia32el.Refvehicle.run ~btlib (Btlib.Vos.create mem) st)
  in
  plain ();
  lockstep ();
  let per_step =
    (words lockstep -. words plain) /. float_of_int (max 1 steps)
  in
  Printf.eprintf
    "[alloc] lockstep: %.2f minor words/reference step (%d steps)\n%!"
    per_step steps;
  if per_step > 1.0 then
    Alcotest.failf
      "the lockstep reference allocates %.2f minor words per step (budget \
       1, measured ~0.05 at commit time and ~500 with a rendered window); \
       a per-step decode, to_string or sprintf crept back in"
      per_step

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

(* ---------------- group-program cache mechanics ---------------- *)

(* The program cache recompiles only what the tcache actually changed:
   after a gzip run every cached program is validated by its stamps and
   the cache stays within its per-slot bounds. *)
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

(* ---------------- group programs vs the per-slot reference ---------------- *)

(* Hand-built tcaches run twice — by [Exec.reference_run] and by
   [Exec.run] on twin machines — and compared after every call: stop
   reason, every
   stats counter, buckets (bundle b charges bucket b mod 8, so a charge to
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
  fast : bool; (* runs [Exec.run], not [Exec.reference_run] *)
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
  for b = 0 to Ipf.Tcache.length tc + 8 do
    Mc.set_bucket m ~start:b ~len:1 b
  done;
  let probe = Buffer.create 256 in
  m.Mc.charge_probe <- Some (fun ip d -> Printf.bprintf probe "%d:%d " ip d);
  let x = Ipf.Exec.create m in
  (* the default fuel keeps a looping case from running away *)
  let go ?(fuel = 10_000) () =
    match
      if fast then Ipf.Exec.run ~fuel x else Ipf.Exec.reference_run ~fuel x
    with
    | stop -> stop_str stop
    | exception Abort -> "abort"
    | exception Invalid_argument msg -> msg
  in
  { fast; m; tc; x; go; probe }

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

(* Run both sides with [steps]: each step is (fuel, action before it).
   Returns the fast side and, per step, (what, reference, fast). *)
let run_twin ?setup bundles steps =
  let r = side ~fast:false ?setup bundles and f = side ~fast:true ?setup bundles in
  let results =
    List.concat
      (List.mapi
         (fun i (fuel, before) ->
           before r;
           before f;
           let rstop = r.go ?fuel () in
           let fstop = f.go ?fuel () in
           let tag = Printf.sprintf "step %d" i in
           [ (tag ^ " stop", rstop, fstop); (tag ^ " state", observe r, observe f) ])
         steps)
  in
  (f, results)

let twin ?setup bundles tag steps =
  let f, results = run_twin ?setup bundles steps in
  List.iter (fun (what, a, b) -> checks (tag ^ " " ^ what) a b) results;
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
   where [reference_run]'s next fetch raises with the group open. *)
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

let raw_split =
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

let test_raw_split_predicated_off () =
  ignore (twin raw_split "raw" [ (None, keep) ]);
  for fuel = 0 to 10 do
    ignore
      (twin raw_split (Printf.sprintf "raw fuel %d" fuel)
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
   open group's timing exactly like [reference_run]'s unwinding; one
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

(* ---------------- programs taken back by content ---------------- *)

(* A flush, then [bundles] appended again (copies, as a replayed run
   re-installs its blocks), and a restart at the first bundle. *)
let reappend bundles s =
  Ipf.Tcache.clear s.tc;
  List.iter (fun b -> ignore (Ipf.Tcache.append s.tc (Ipf.Bundle.copy b))) bundles;
  at 0 0 s

(* Programs ([count]: or slots) the fast side compiles during each step
   of a twin run, which also compares every step with the reference. *)
let compiles_per_step ?(count = Ipf.Exec.compiled) bundles tag steps =
  let marks = ref [] in
  let note s = if s.fast then marks := count s.x :: !marks in
  let f =
    twin bundles tag
      (List.map
         (fun (fuel, before) ->
           ( fuel,
             fun s ->
               before s;
               note s ))
         steps)
  in
  let rec diffs = function
    | a :: (b :: _ as tl) -> (b - a) :: diffs tl
    | _ -> []
  in
  diffs (List.rev (count f.x :: !marks))

let test_equal_content_reused () =
  List.iter
    (fun (name, bundles) ->
      match
        compiles_per_step bundles name
          [ (None, keep); (None, reappend bundles); (None, reappend bundles) ]
      with
      | [ first; again; again2 ] ->
        check Alcotest.bool (name ^ ": the first run compiles") true (first > 0);
        checki (name ^ ": equal content re-appended compiles nothing") 0 again;
        checki (name ^ ": and again") 0 again2
      | _ -> assert false)
    [ ("long group", long_group); ("raw split", raw_split) ]

(* [bundles] with bundle [idx] rewritten by [f]. *)
let edit bundles idx f =
  List.mapi (fun i b -> if i = idx then f (Ipf.Bundle.copy b) else b) bundles

let test_changed_content_recompiles () =
  let set_slot s insn (b : Ipf.Bundle.t) =
    b.Ipf.Bundle.slots.(s) <- insn;
    b
  in
  let set_stop s (b : Ipf.Bundle.t) =
    b.Ipf.Bundle.stops.(s) <- true;
    b
  in
  List.iter
    (fun (name, bundles, edited) ->
      match
        compiles_per_step bundles name
          [ (None, keep); (None, reappend edited); (None, reappend bundles) ]
      with
      | [ _; changed; back ] ->
        check Alcotest.bool (name ^ ": changed content compiles") true
          (changed > 0);
        (* the position kept the program it held before *)
        checki (name ^ ": changing it back takes the previous one back") 0
          back
      | _ -> assert false)
    [
      ("a slot", long_group, edit long_group 3 (set_slot 2 (movi 12 5)));
      (* the nine-slot group now ends after bundle 3's second slot *)
      ("a stop bit", long_group, edit long_group 3 (set_stop 1));
      (* the slot the RAW split ended a group before no longer reads
         what the group wrote, so the group runs on *)
      ("the RAW-split slot", raw_split, edit raw_split 2 (set_slot 1 (add 11 5 4)));
    ]

(* A program that ran off the end of the tcache, or that finishes a
   group after its first slots ran (a mid-group restart's carry),
   depends on more than the bundles it spans: never taken back. *)
let test_carry_and_open_not_reused () =
  let s = side ~fast:true long_group in
  (* the nine-slot group starts at bundle 2; restart after four slots *)
  let carry =
    Array.init 4 (fun k ->
        (Ipf.Tcache.get s.tc (2 + (k / 3))).Ipf.Bundle.slots.(k mod 3))
  in
  let plain = Ipf.Exec.compile_at s.x 10 in
  let restart = Ipf.Exec.compile_at ~carry s.x 10 in
  check Alcotest.bool "both valid by stamps" true
    (Ipf.Exec.reusable s.x plain && Ipf.Exec.reusable s.x restart);
  reappend long_group s;
  check Alcotest.bool "a program with no carry is taken back" true
    (Ipf.Exec.reusable s.x plain);
  check Alcotest.bool "one with a carry is not" false
    (Ipf.Exec.reusable s.x restart);
  let s = side ~fast:true off_end in
  let open_ = Ipf.Exec.compile_at s.x 6 in
  reappend off_end s;
  check Alcotest.bool "one that ran off the tcache is not" false
    (Ipf.Exec.reusable s.x open_)

(* ---------------- chains of groups ---------------- *)

(* A bundle with a stop bit after each slot [stops] names. *)
let bunz stops a b c =
  {
    Ipf.Bundle.template = Ipf.Bundle.MII;
    slots = [| a; b; c |];
    stops = Array.init 3 (fun i -> List.mem i stops);
  }

let st8 a v = mk (I.St (8, a, v))
let ld8 d a = mk (I.Ld (8, I.Ld_none, d, a))
let br ?qp k = mk ?qp (I.Br (I.To k))

(* One block of seven groups over bundles 2-6, none of which ends in a
   taken branch until the last: a load that misses, a RAW split, a
   not-taken and then a taken conditional exit in later groups (p7 is
   false, p6 true), a store and a long immediate. The exits lead to
   bundle 7 and to a cache exit at bundle 8. *)
let chain =
  prologue
  @ [
      bunz [ 0; 2 ] (add 6 4 5) (ld8 7 2) (add 8 4 4);
      bunz [ 1 ] (add 10 8 5) (br ~qp:7 7) (add 11 7 4);
      bunz [ 0; 2 ] (st8 9 5) (movi 12 3) (add 13 12 4);
      bunz [ 2 ] (add 14 4 5) (mk ~qp:7 (I.Br (I.Out (I.Dispatch 0x77)))) nop;
      bunz [ 2 ] (add 15 14 4) (br ~qp:6 7) (out I.Exit_program);
      bun (add 16 4 4) (add 17 15 4) (out (I.Dispatch 0x1234));
      bun nop nop (out I.Exit_program);
    ]

let test_chain_groups () =
  ignore
    (twin chain "chain"
       [ (None, keep); (None, keep); (None, at 0 0); (None, at 3 1) ]);
  (* a rewind into the middle of the chain, after its store *)
  ignore (twin chain "chain entered mid-way" [ (None, at 4 1); (None, at 5 0) ])

let test_chain_fuel_every_offset () =
  for fuel = 0 to 24 do
    ignore
      (twin chain (Printf.sprintf "chain fuel %d" fuel)
         [ (Some fuel, keep); (Some 2, keep); (Some 1, keep); (None, keep) ])
  done

(* An indirect branch that takes a different target on each run: the
   uop's link to its last target's program must not be taken for the
   next one. *)
let test_chain_indirect_targets () =
  let bundles =
    prologue
    @ [
        bunz [ 0; 2 ] (add 6 4 5) (mk (I.Mov_to_br (1, 16))) (mk (I.Br_ind 1));
        bun (add 17 4 4) nop (out I.Exit_program);
        bun (add 18 4 5) nop (out (I.Dispatch 0x1234));
      ]
  in
  let target k s =
    Mc.set s.m 16 (Int64.of_int k);
    at 0 0 s
  in
  ignore
    (twin bundles "indirect"
       [ (None, target 3); (None, target 4); (None, target 3); (None, target 4) ])

(* A chain that ends where the tcache ended when it was compiled falls
   through to the program at its end once the tcache has grown. *)
let test_chain_tcache_end () =
  let block = prologue @ [ bunz [ 0; 2 ] (add 6 4 5) (add 7 6 4) (add 8 4 4) ] in
  let grow s =
    ignore (Ipf.Tcache.append s.tc (bun (add 9 7 4) nop (out I.Exit_program)));
    at 0 0 s
  in
  ignore
    (twin block "tcache end"
       [ (None, keep); (None, at 0 0); (None, grow); (None, at 0 0) ]);
  (* ... and a tcache that shrank to end after one of its groups ends
     the chain there: the program re-entered is not derived past it *)
  let shrunk = List.filteri (fun i _ -> i <= 4) chain in
  ignore (twin chain "tcache shrunk" [ (None, keep); (None, reappend shrunk) ])

(* A store whose write watch rewrites a later group of the running
   chain: mid-group, as the last slot of a group a stop bit ends, and as
   the last slot of a group a RAW split ends. Each must see the later
   group's new slots, as a per-slot fetch does. *)
let test_chain_store_rewrites_later_group () =
  let watch on_write mem tc =
    Ia32.Memory.watch_page mem data;
    Ia32.Memory.set_write_watch mem (Some (fun _ _ -> on_write tc))
  in
  let later tc =
    Ipf.Tcache.patch_slot tc ~idx:6 ~slot:0 (add 14 7 4);
    Ipf.Tcache.patch_slot tc ~idx:5 ~slot:1 (movi 15 9)
  in
  let store_at stops slots =
    prologue
    @ [
        bunz stops (List.nth slots 0) (List.nth slots 1) (List.nth slots 2);
        bunz [ 2 ] (add 10 4 5) (add 11 5 5) (add 12 4 4);
        bunz [ 1 ] (add 13 4 4) (movi 15 1) (add 16 4 5);
        bunz [ 2 ] (movi 14 2) (add 17 14 5) (out I.Exit_program);
        bun nop nop (out I.Exit_program);
      ]
  in
  (* ... or also the running group's own bundle *)
  let both tc =
    later tc;
    Ipf.Tcache.patch_slot tc ~idx:2 ~slot:2 (movi 8 5)
  in
  List.iter
    (fun (name, bundles) ->
      List.iter
        (fun (what, rewrite) ->
          ignore
            (twin ~setup:(watch rewrite) bundles (name ^ ", " ^ what)
               [ (None, keep); (None, at 0 0); (Some 9, at 0 0); (None, keep) ]))
        [ ("a later group", later); ("its own bundle too", both) ])
    [
      ("store mid-group", store_at [ 2 ] [ add 6 4 5; st8 9 5; add 8 4 4 ]);
      ("store before a stop bit", store_at [ 1; 2 ] [ add 6 4 5; st8 9 5; add 8 4 4 ]);
      (* r6 is written before the store and read after it: a RAW split *)
      ("store before a RAW split", store_at [ 2 ] [ add 6 4 5; st8 9 5; add 8 6 4 ]);
      ("store ending the first bundle", store_at [] [ add 6 4 5; add 8 4 4; st8 9 5 ]);
    ]

(* The chain's exits patched into direct branches between runs, as the
   engine chains blocks, and a patch taken back: each position then holds
   an unpatched and a patched program, which alternate without compiling
   from the third run on. *)
let test_chain_patch_dispatch () =
  let patch s =
    ignore (Ipf.Tcache.patch_dispatch s.tc ~idx:5 ~target:0x77 ~dest:8);
    ignore (Ipf.Tcache.patch_dispatch s.tc ~idx:7 ~target:0x1234 ~dest:8);
    at 0 0 s
  in
  let unpatch s =
    Ipf.Tcache.patch_slot s.tc ~idx:5 ~slot:1
      (mk ~qp:7 (I.Br (I.Out (I.Dispatch 0x77))));
    Ipf.Tcache.patch_slot s.tc ~idx:7 ~slot:2 (out (I.Dispatch 0x1234));
    at 0 0 s
  in
  let rebranch s =
    (* the chain's second exit now goes to the dispatch exit: p7 true *)
    Ipf.Tcache.patch_slot s.tc ~idx:1 ~slot:2 (mk (I.Cmp (I.Ceq, I.Cnorm, 7, 6, 0, 0)));
    at 0 0 s
  in
  let steps =
    [
      (None, keep); (None, at 7 0); (None, patch); (None, at 0 0);
      (None, unpatch); (None, patch); (None, unpatch); (None, patch);
      (None, rebranch); (None, unpatch); (None, patch);
    ]
  in
  let n = Array.of_list (compiles_per_step chain "patch_dispatch" steps) in
  check Alcotest.bool "the patched chain compiles" true (n.(2) > 0);
  for i = 3 to 7 do
    checki (Printf.sprintf "step %d takes a kept program back" i) 0 n.(i)
  done;
  check Alcotest.bool "a third content compiles" true (n.(8) > 0)

(* A chain patch rewrites a block's exit, in its last groups: the program
   for the patched content is derived from the unpatched one, and only
   the groups from the patched slot's on compile. A group that a RAW
   split ended is taken over only while the slot it split before still
   reads the same. *)
let test_chain_patch_derives () =
  let slots = compiles_per_step ~count:Ipf.Exec.compiled_slots in
  let patch s =
    ignore (Ipf.Tcache.patch_dispatch s.tc ~idx:5 ~target:0x77 ~dest:8);
    at 0 0 s
  in
  (match slots chain "derive" [ (None, keep); (None, patch) ] with
  | [ first; patched ] ->
    check Alcotest.bool "the first run compiles the 21-slot chain" true
      (first >= 21);
    (* bundles 5 and 6: the group of the patched slot and the last *)
    checki "the patched chain compiles its last two groups" 6 patched
  | _ -> assert false);
  let edited =
    edit raw_split 2 (fun b ->
        b.Ipf.Bundle.slots.(1) <- add 11 5 4;
        b)
  in
  match
    slots raw_split "derive past a RAW split"
      [ (None, keep); (None, reappend edited) ]
  with
  | [ first; changed ] ->
    checki "the first run compiles 15 slots" 15 first;
    (* the prologue's group is taken over; the split one runs on now *)
    checki "the changed split compiles all but the prologue" 9 changed
  | _ -> assert false

(* ---------------- generated group-vs-reference cases ---------------- *)

(* Random small tcaches after [prologue] (plus r13 = data + 3, a
   misaligned address): ALU ops, long immediates, loads (plain, ld.s,
   ld.a, ld.sa) and stores through the mapped (r2, r9), unmapped (r3) and
   misaligned (r13) addresses or a computed register, chk.s/chk.a,
   compares writing p8-p11, predicated slots, forward branches, cache
   exits, heat exits, nops and random stop bits, ending in an exit
   bundle. Destinations stay in r16-r23, so the address registers
   survive while values, NaT bits and ALAT entries flow between slots.
   Each case runs with fuel at a random offset, then twice more without
   a limit: after an exit a run resumes behind it, after a fault it
   faults again, after the last exit it runs off the tcache. Then it
   runs from the start four more times: after the tcache is flushed and
   the same bundles appended again (programs come back by content), after
   one slot is patched to another instruction, after that slot is
   patched back, and after every cache exit to 0x1234 is patched into a
   branch to a random bundle ([Tcache.patch_dispatch], as the engine
   chains blocks). A third of the cases also watch the data page: every
   store there rewrites one random slot, which may lie in a later group
   of the running chain or in the running group itself. *)
module G = QCheck.Gen

let gen_prologue = prologue @ [ bun (movi 13 (data + 3)) nop nop ]

let gen_insn ~here ~last =
  let open G in
  let dst = int_range 16 23 in
  let src = frequency [ (3, int_range 16 23); (1, oneofl [ 0; 2; 4; 5 ]) ] in
  let addr = frequency [ (3, oneofl [ 2; 9; 3; 13 ]); (1, int_range 16 23) ] in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let pr = int_range 8 11 in
  let rel = oneofl I.[ Ceq; Cne; Clt; Cltu; Cge ] in
  let ct = oneofl I.[ Cnorm; Cunc; Cand_; Cor_ ] in
  let exit_ =
    oneofl I.[ Dispatch 0x1234; Exit_program; Spec_fail (1, 2); Syscall 0x80 ]
  in
  let target =
    frequency
      [
        (3, map (fun k -> I.To k) (int_range (here + 1) last));
        (1, map (fun r -> I.Out r) exit_);
      ]
  in
  let alu =
    oneofl
      [
        (fun d a b -> I.Add (d, a, b));
        (fun d a b -> I.Sub (d, a, b));
        (fun d a b -> I.Shrs (d, a, b));
        (fun d a b -> I.Xma (d, a, b, 4));
        (fun d a b -> I.Dep (d, a, b, 8, 16));
      ]
  in
  let sem =
    frequency
      [
        (5, map3 (fun f d (a, b) -> f d a b) alu dst (pair src src));
        ( 2,
          map2
            (fun d v -> I.Movi (d, Int64.of_int v))
            dst
            (oneofl [ 0; 1; 8; data; data + 4; data + 6; unmapped; -1 ]) );
        ( 4,
          map3
            (fun d (sz, sp) a -> I.Ld (sz, sp, d, a))
            dst
            (pair size (oneofl I.[ Ld_none; Ld_s; Ld_a; Ld_sa ]))
            addr );
        (2, map3 (fun sz a v -> I.St (sz, a, v)) size addr src);
        (1, map2 (fun r t -> I.Chk_s (r, t)) dst target);
        (1, map2 (fun r t -> I.Chk_a (r, t)) dst target);
        ( 2,
          map3
            (fun (rel, ct) (p1, p2) (a, b) -> I.Cmp (rel, ct, p1, p2, a, b))
            (pair rel ct) (pair pr pr) (pair src src) );
        ( 1,
          map3
            (fun (rel, ct) (p1, p2) a -> I.Cmpi (rel, ct, p1, p2, 8, a))
            (pair rel ct) (pair pr pr) src );
        (1, map (fun t -> I.Br t) target);
        (1, map (fun s -> I.Hotc (s, 1, 77)) (int_range 0 3));
        (2, return (I.Nop I.I));
      ]
  in
  let qp =
    frequency [ (3, return None); (1, map Option.some (oneofl [ 6; 7; 8; 9; 10; 11 ])) ]
  in
  map2 (fun qp sem -> I.mk ?qp sem) qp sem

type case = {
  body : Ipf.Bundle.t list;
  fuel : int;
  patch : int * int * I.t; (* bundle, slot, instruction *)
  smc : (int * int * I.t) option; (* what a store to the data page writes *)
  dest : int; (* where the patched cache exits branch to *)
}

let gen_case =
  let open G in
  let base = List.length gen_prologue in
  int_range 1 6 >>= fun n ->
  let last = base + n in
  let bundle here =
    map2
      (fun (a, b, c) stops ->
        { Ipf.Bundle.template = Ipf.Bundle.MII; slots = [| a; b; c |]; stops })
      (triple (gen_insn ~here ~last) (gen_insn ~here ~last) (gen_insn ~here ~last))
      (array_repeat 3 (map (fun k -> k = 0) (int_bound 2)))
  in
  flatten_l (List.init n (fun i -> bundle (base + i))) >>= fun body ->
  let slot_patch =
    int_bound (n - 1) >>= fun bi ->
    map2 (fun si insn -> (base + bi, si, insn)) (int_bound 2)
      (gen_insn ~here:(base + bi) ~last)
  in
  map3
    (fun (fuel, dest) patch smc -> { body; fuel; patch; smc; dest })
    (pair (int_bound ((3 * (last + 1)) + 4)) (int_range base last))
    slot_patch
    (frequency [ (2, return None); (1, map Option.some slot_patch) ])

let print_case { body; fuel; patch = idx, si, insn; smc; dest } =
  let b = Buffer.create 512 in
  Printf.bprintf b "fuel %d, patch %d.%d: %s, dispatch to %d\n" fuel idx si
    (I.to_string insn) dest;
  Option.iter
    (fun (i, s, insn) ->
      Printf.bprintf b "stores rewrite %d.%d: %s\n" i s (I.to_string insn))
    smc;
  List.iteri
    (fun i bundle ->
      Printf.bprintf b "%d:" (List.length gen_prologue + i);
      Array.iteri
        (fun s insn ->
          Printf.bprintf b " %s%s" (I.to_string insn)
            (if bundle.Ipf.Bundle.stops.(s) then " ;;" else " |"))
        bundle.Ipf.Bundle.slots;
      Buffer.add_char b '\n')
    body;
  Buffer.contents b

let test_generated =
  QCheck.Test.make ~count:2000 ~name:"generated-tcaches"
    (QCheck.make ~print:print_case gen_case)
    (fun { body; fuel; patch = idx, si, insn; smc; dest } ->
      let bundles = gen_prologue @ body @ [ bun nop nop (out I.Exit_program) ] in
      let orig = (List.nth bundles idx).Ipf.Bundle.slots.(si) in
      let patch insn s =
        Ipf.Tcache.patch_slot s.tc ~idx ~slot:si insn;
        at 0 0 s
      in
      let dispatch s =
        for idx = 0 to Ipf.Tcache.length s.tc - 1 do
          ignore (Ipf.Tcache.patch_dispatch s.tc ~idx ~target:0x1234 ~dest)
        done;
        at 0 0 s
      in
      let setup mem tc =
        Option.iter
          (fun (idx, slot, insn) ->
            Ia32.Memory.watch_page mem data;
            Ia32.Memory.set_write_watch mem
              (Some (fun _ _ -> Ipf.Tcache.patch_slot tc ~idx ~slot insn)))
          smc
      in
      let _, results =
        run_twin ~setup bundles
          [
            (Some fuel, keep);
            (None, keep);
            (None, keep);
            (None, reappend bundles);
            (None, patch insn);
            (None, patch orig);
            (None, dispatch);
          ]
      in
      match List.find_opt (fun (_, a, b) -> a <> b) results with
      | None -> true
      | Some (what, a, b) ->
        QCheck.Test.fail_reportf "%s differs:\nreference: %s\nfast:      %s" what
          a b)

let () =
  Alcotest.run "exec"
    [
      ( "determinism",
        [
          Alcotest.test_case "repeat-run-metrics" `Quick
            test_repeat_determinism;
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
          Alcotest.test_case "lockstep-budget" `Quick test_lockstep_alloc_budget;
          Alcotest.test_case "instance-build-major-budget" `Quick
            test_instance_build_major_budget;
          Alcotest.test_case "interp-states-major-budget" `Quick
            test_interp_states_major_budget;
        ] );
      ( "program-cache",
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
          Alcotest.test_case "equal-content-reused" `Quick
            test_equal_content_reused;
          Alcotest.test_case "changed-content-recompiles" `Quick
            test_changed_content_recompiles;
          Alcotest.test_case "carry-and-open-not-reused" `Quick
            test_carry_and_open_not_reused;
          Alcotest.test_case "chain-groups" `Quick test_chain_groups;
          Alcotest.test_case "chain-fuel-every-offset" `Quick
            test_chain_fuel_every_offset;
          Alcotest.test_case "chain-store-rewrites-later-group" `Quick
            test_chain_store_rewrites_later_group;
          Alcotest.test_case "chain-patch-dispatch" `Quick
            test_chain_patch_dispatch;
          Alcotest.test_case "chain-patch-derives" `Quick
            test_chain_patch_derives;
          Alcotest.test_case "chain-indirect-targets" `Quick
            test_chain_indirect_targets;
          Alcotest.test_case "chain-tcache-end" `Quick test_chain_tcache_end;
          (* a fixed seed: the same 2000 tcaches on every run *)
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x1a32e1 |])
            test_generated;
        ] );
    ]
