(* Persistent translation cache suite.

   The tentpole property: a warm start from a saved cache — and an AOT
   pre-translated one — is bit-identical in every observable (exit code,
   cycle counts, the full metrics snapshot) to the same run translating
   everything live, under both first phases and with a translation
   cache small enough to flush mid-run, with real cache hits doing the
   work. On top: the robustness ladder — every disk-fault mode (bit
   flip, truncation, partial write, stale fingerprint, held lock, older
   format version) must degrade to retranslation with a structured
   diagnostic, never a crash, never a behaviour change; a single corrupt
   entry drops only itself. *)

module B = Workloads.Baselines
module C = Workloads.Common
module E = Ia32el.Engine
module I = Harness.Inject

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* first phase x translation-cache size: interpret-first stores only hot
   traces, since its cold code is interpreted; the small cache flushes
   wholesale mid-run (interpret-first translates less, so its cache is
   smaller still), so the warm run must hit the store again for every
   block retranslated after a flush *)
let configs =
  let d = Ia32el.Config.default in
  let i = { d with Ia32el.Config.first_phase = Ia32el.Config.Interpret_first } in
  let flush limit c = { c with Ia32el.Config.tcache_limit = limit } in
  [
    ("default", d);
    ("tcache-flush", flush 100 d);
    ("interpret-first", i);
    ("interpret-first-tcache-flush", flush 30 i);
  ]

let workload name =
  List.find
    (fun w -> w.C.name = name)
    (Workloads.Spec_int.all @ Workloads.Spec_fp.all)

(* the three cheapest real workloads; gzip heats into the hot phase *)
let matrix_workloads = [ "gzip"; "mgrid"; "art" ]

(* wholesale translation-cache flushes and cold-translated IA-32
   instructions of the engine [run_with] last ran *)
let last_flushes = ref 0
let last_cold_insns = ref 0

(* One engine run of a workload with a persist session attached over
   [store]; returns (exit code, full metrics snapshot, session). *)
let run_with ~config ?(readonly = false) w store =
  let sref = ref None in
  let r =
    B.run_el ~config
      ~attach:(fun e -> sref := Some (Persist.attach ~readonly store e))
      ~check_exit:false w ~scale:1
  in
  let m =
    match r.B.engine with
    | Some e ->
      last_flushes := e.E.acct.Ia32el.Account.cache_flushes;
      last_cold_insns := e.E.acct.Ia32el.Account.cold_insns;
      Obs.Metrics.to_string (E.metrics e)
    | None -> Alcotest.fail "run_el returned no engine"
  in
  (r.B.exit_code, m, Option.get !sref)

(* A warm start must eliminate at least 80% of the cold-phase
   translation cycles the last run charged: the host-side cold
   translation it skipped by installing stored entries. *)
let check_warm_floor se =
  let eliminated = (Persist.stats se).Persist.eliminated_cold_cycles in
  let charged =
    !last_cold_insns * Ipf.Cost.default.Ipf.Cost.cold_translate_per_insn
  in
  if 5 * eliminated < 4 * charged then
    Alcotest.failf
      "warm start eliminated %d of %d cold translation cycles (floor 80%%)"
      eliminated charged

let fresh_store ~config w =
  let image = w.C.build ~scale:1 ~wide:false in
  Persist.create_store
    ~image_hash:(Persist.image_hash image)
    ~config_fp:(Persist.config_fingerprint config)

let keys ~config w =
  let image = w.C.build ~scale:1 ~wide:false in
  (Persist.image_hash image, Persist.config_fingerprint config)

let tmp = Filename.temp_file "test_persist" ".tc"

let save_ok store =
  (try Sys.remove tmp with Sys_error _ -> ());
  (try Sys.remove (tmp ^ ".lock") with Sys_error _ -> ());
  match Persist.save store ~path:tmp with
  | [] -> ()
  | d :: _ -> Alcotest.failf "save failed: %s" (Fmt.str "%a" Ia32el.Bt_error.pp d)

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* warm == cold across the config matrix                               *)
(* ------------------------------------------------------------------ *)

let warm_case wname =
  List.map
    (fun (cname, config) ->
      Alcotest.test_case
        (Printf.sprintf "%s warm == cold [%s]" wname cname)
        `Quick
        (fun () ->
          let w = workload wname in
          let store = fresh_store ~config w in
          let code_c, m_cold, se_c = run_with ~config w store in
          check int "cold run recorded" (Persist.entry_count store)
            (Persist.stats se_c).Persist.recorded;
          check bool "small cache flushes mid-run"
            (config.Ia32el.Config.tcache_limit
            < Ia32el.Config.default.Ia32el.Config.tcache_limit)
            (!last_flushes > 0);
          (* save / load round trip *)
          save_ok store;
          let image_hash, config_fp = keys ~config w in
          let store2, diags = Persist.load ~path:tmp ~image_hash ~config_fp in
          check int "no load diagnostics" 0 (List.length diags);
          check int "round trip keeps every entry"
            (Persist.entry_count store)
            (Persist.entry_count store2);
          (* warm run over the reloaded store *)
          let code_w, m_warm, se_w = run_with ~config w store2 in
          check int "same exit code" code_c code_w;
          check string "bit-identical metrics (cycles included)" m_cold m_warm;
          let s = Persist.stats se_w in
          check bool "warm run hits the cache" true (s.Persist.hits > 0);
          check int "warm run misses nothing" 0 s.Persist.misses;
          check int "warm run rejects nothing" 0 s.Persist.rejects;
          check bool "cold translation cycles eliminated" true
            (s.Persist.eliminated_cold_cycles > 0);
          check_warm_floor se_w))
    configs

(* ------------------------------------------------------------------ *)
(* AOT sweep == cold                                                   *)
(* ------------------------------------------------------------------ *)

let aot_case wname =
  Alcotest.test_case (wname ^ " AOT sweep then warm == cold") `Quick
    (fun () ->
      let w = workload wname in
      let config = Ia32el.Config.default in
      (* the reference cold run *)
      let cold_store = fresh_store ~config w in
      let code_c, m_cold, _ = run_with ~config w cold_store in
      (* static sweep on a throwaway engine, as ia32el-compile does *)
      let store = fresh_store ~config w in
      let image = w.C.build ~scale:1 ~wide:false in
      let mem = Ia32.Memory.create () in
      let _st = Ia32.Asm.load image mem in
      let eng = E.create ~config ~btlib:(module Btlib.Linuxsim) mem in
      let se = Persist.attach store eng in
      let lo = image.Ia32.Asm.code_base in
      let hi = lo + String.length image.Ia32.Asm.code in
      let n =
        Persist.sweep se
          ~roots:(image.Ia32.Asm.entry :: List.map snd image.Ia32.Asm.labels)
          ~lo ~hi
      in
      check bool "sweep translated blocks" true (n > 0);
      save_ok store;
      let image_hash, config_fp = keys ~config w in
      let store2, diags = Persist.load ~path:tmp ~image_hash ~config_fp in
      check int "no load diagnostics" 0 (List.length diags);
      let code_w, m_warm, se_w = run_with ~config w store2 in
      check int "same exit code" code_c code_w;
      check string "bit-identical metrics after AOT" m_cold m_warm;
      check bool "AOT entries actually hit" true
        ((Persist.stats se_w).Persist.hits > 0);
      (* that run recorded its live translations on top of the sweep, as
         ia32el-compile --train's training run does; a read-only start
         from the trained file must clear the warm-start floor *)
      save_ok store2;
      let store3, diags = Persist.load ~path:tmp ~image_hash ~config_fp in
      check int "no load diagnostics after training" 0 (List.length diags);
      let code_t, m_trained, se_t = run_with ~config ~readonly:true w store3 in
      check int "same exit code after training" code_c code_t;
      check string "bit-identical metrics after training" m_cold m_trained;
      check_warm_floor se_t)

(* ------------------------------------------------------------------ *)
(* robustness ladder                                                   *)
(* ------------------------------------------------------------------ *)

let fault_case fault =
  Alcotest.test_case
    (Fmt.str "fault %a degrades cleanly" I.pp_disk_fault fault)
    `Quick
    (fun () ->
      let w = workload "mgrid" in
      let config = Ia32el.Config.default in
      let store = fresh_store ~config w in
      let code_c, m_cold, _ = run_with ~config w store in
      save_ok store;
      (match I.apply_disk_fault ~path:tmp fault with
      | Ok () -> ()
      | Error m -> Alcotest.failf "fault injection failed: %s" m);
      let image_hash, config_fp = keys ~config w in
      let store2, diags = Persist.load ~path:tmp ~image_hash ~config_fp in
      (match fault with
      | I.Lock_held ->
        (* the lock blocks saving, not loading *)
        check int "no load diagnostics" 0 (List.length diags);
        check bool "save refuses while the lock is held" true
          (Persist.save store2 ~path:tmp <> [])
      | I.Stale_fingerprint ->
        (* the re-stamped header must read as stale, not corrupt *)
        check (Alcotest.list string) "classified as stale"
          [ "stale cache: guest image hash mismatch" ]
          (List.map (fun d -> d.Ia32el.Bt_error.what) diags)
      | _ ->
        check bool "fault surfaced a structured diagnostic" true (diags <> []));
      let code_w, m_warm, _ = run_with ~config w store2 in
      check int "same exit code under the fault" code_c code_w;
      check string "bit-identical metrics under the fault" m_cold m_warm)

let one_bad_entry =
  Alcotest.test_case "one corrupt entry drops only itself" `Quick (fun () ->
      let w = workload "mgrid" in
      let config = Ia32el.Config.default in
      let store = fresh_store ~config w in
      let code_c, m_cold, _ = run_with ~config w store in
      let n = Persist.entry_count store in
      check bool "enough entries to corrupt one" true (n > 1);
      save_ok store;
      (* flip a byte inside the first entry frame's payload: the header
         is 40 bytes, a frame is tag + 4-byte length + payload *)
      let s = read_file tmp in
      let b = Bytes.of_string s in
      let off = 40 + 5 + 3 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
      write_file tmp (Bytes.to_string b);
      let image_hash, config_fp = keys ~config w in
      let store2, diags = Persist.load ~path:tmp ~image_hash ~config_fp in
      check bool "the bad entry is diagnosed" true (diags <> []);
      check int "only the bad entry is dropped" (n - 1)
        (Persist.entry_count store2);
      let code_w, m_warm, se_w = run_with ~config w store2 in
      check int "same exit code" code_c code_w;
      check string "bit-identical metrics" m_cold m_warm;
      let st = Persist.stats se_w in
      check bool "surviving entries still hit" true (st.Persist.hits > 0);
      check bool "the dropped entry retranslates live" true
        (st.Persist.misses + st.Persist.rejects > 0))

let readonly_case =
  Alcotest.test_case "readonly session records nothing" `Quick (fun () ->
      let w = workload "mgrid" in
      let config = Ia32el.Config.default in
      let store = fresh_store ~config w in
      let _, _, se = run_with ~config ~readonly:true w store in
      check int "nothing recorded" 0 (Persist.stats se).Persist.recorded;
      check int "store still empty" 0 (Persist.entry_count store))

let stale_image =
  Alcotest.test_case "cache of a different image is rejected whole" `Quick
    (fun () ->
      let w = workload "mgrid" in
      let config = Ia32el.Config.default in
      let store = fresh_store ~config w in
      let _ = run_with ~config w store in
      save_ok store;
      let _, config_fp = keys ~config w in
      let store2, diags =
        Persist.load ~path:tmp ~image_hash:1234L ~config_fp
      in
      check bool "staleness diagnosed" true (diags <> []);
      check int "no entry survives" 0 (Persist.entry_count store2))

(* Every policy field is part of the config fingerprint: a cache recorded
   under one setting must be rejected whole when loaded under the flipped
   one, and the run must fall back to fresh translation with the same
   exit code. *)
let flag_mismatch (fname, flip) =
  Alcotest.test_case
    (Printf.sprintf "%s flip rejects the whole cache" fname)
    `Quick
    (fun () ->
      let w = workload "mgrid" in
      let config = Ia32el.Config.default in
      let store = fresh_store ~config w in
      let code_c, _, _ = run_with ~config w store in
      save_ok store;
      let flipped = flip config in
      check bool "fingerprint distinguishes the flag" true
        (Persist.config_fingerprint config
        <> Persist.config_fingerprint flipped);
      let image_hash, _ = keys ~config w in
      let store2, diags =
        Persist.load ~path:tmp ~image_hash
          ~config_fp:(Persist.config_fingerprint flipped)
      in
      check bool "mismatch surfaced a diagnostic" true (diags <> []);
      check int "no entry survives the flip" 0 (Persist.entry_count store2);
      (* the fresh fallback still runs the guest to the same exit *)
      let code_w, _, se_w = run_with ~config:flipped w store2 in
      check int "same exit code from the fresh fallback" code_c code_w;
      check int "nothing hits the rejected cache" 0
        (Persist.stats se_w).Persist.hits)

let flag_flips =
  [
    ( "heat_threshold",
      fun c ->
        {
          c with
          Ia32el.Config.heat_threshold = 2 * c.Ia32el.Config.heat_threshold;
        } );
    ( "enable_scheduling",
      fun c ->
        {
          c with
          Ia32el.Config.enable_scheduling =
            not c.Ia32el.Config.enable_scheduling;
        } );
  ]

(* A file from an older format (whose entries marshal an older Config.t)
   is refused on its header, before any entry is unmarshalled, with one
   structured diagnostic; the run translates afresh to the same exit and
   the same observables. *)
let old_format_version =
  Alcotest.test_case "older format version is rejected whole" `Quick
    (fun () ->
      let w = workload "mgrid" in
      let config = Ia32el.Config.default in
      let store = fresh_store ~config w in
      let code_c, m_cold, _ = run_with ~config w store in
      save_ok store;
      (* rewrite the version word, keeping the header checksum valid so
         the load fails on the version, not on corruption *)
      let b = Bytes.of_string (read_file tmp) in
      Bytes.set_int32_be b 16 (Int32.of_int (Persist.format_version - 1));
      Bytes.set_int32_be b 36
        (Int32.of_int (Persist.crc32 (Bytes.sub_string b 16 20)));
      write_file tmp (Bytes.to_string b);
      let image_hash, config_fp = keys ~config w in
      let store2, diags = Persist.load ~path:tmp ~image_hash ~config_fp in
      check
        Alcotest.(list (pair string string))
        "one structured version diagnostic"
        [ ("persist", "cache format version mismatch") ]
        (List.map
           (fun d -> (d.Ia32el.Bt_error.component, d.Ia32el.Bt_error.what))
           diags);
      check int "no entry survives" 0 (Persist.entry_count store2);
      let code_w, m_warm, se_w = run_with ~config w store2 in
      check int "same exit code from the fresh fallback" code_c code_w;
      check string "bit-identical metrics from the fresh fallback" m_cold
        m_warm;
      check int "nothing hits the rejected cache" 0
        (Persist.stats se_w).Persist.hits)

let () =
  Alcotest.run "persist"
    [
      ( "warm-start",
        List.concat_map warm_case matrix_workloads
        @ [ aot_case "gzip"; readonly_case ] );
      ( "robustness",
        List.map fault_case I.all_disk_faults
        @ [ one_bad_entry; stale_image; old_format_version ]
        @ List.map flag_mismatch flag_flips );
    ]
