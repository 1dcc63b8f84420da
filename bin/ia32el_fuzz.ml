(* ia32el-fuzz: coverage-steered differential fuzzing of the translator.

   Generates well-formed guest programs over the Asm DSL from weighted
   feature pools, runs each under the lockstep differential vehicle with
   a clean run plus a set of fault-injection seeds, steers generation
   with an opcode/operand-shape/engine-event coverage map, and shrinks
   any finding to a minimal paste-ready reproducer.

     ia32el-fuzz --smoke
     ia32el-fuzz --seed 7 --runs 2000 --max-insns 48
     ia32el-fuzz --inject-seeds 0-8 --corpus my-corpus
     ia32el-fuzz --fork-server --mutations 256
     ia32el-fuzz --fork-server --smoke *)

module F = Harness.Fuzz

(* --fork-server: persistent lockstep sessions, one per base program;
   each input is served by copy-on-write snapshot / mutate / run /
   revert with translations kept warm. *)
let forkserver_main seed runs max_insns mutations smoke max_findings fuel
    verbose =
  let programs = if smoke then min runs 4 else runs in
  let mutations = if smoke then min mutations 32 else mutations in
  let cfg =
    {
      F.fs_seed = seed;
      fs_programs = programs;
      fs_mutations = mutations;
      fs_max_insns = max_insns;
      fs_fuel = fuel;
      fs_max_findings = max_findings;
      fs_log = (if verbose then prerr_endline else ignore);
    }
  in
  let t0 = Sys.time () in
  let r = F.forkserver_campaign cfg in
  let dt = Sys.time () -. t0 in
  Printf.printf
    "fork-server: %d inputs over %d base programs (seed %d, <= %d insns, %d \
     mutations each), %d pages restored, %.1fs cpu (%.0f inputs/s)\n"
    r.F.fs_runs r.F.fs_bases seed max_insns mutations r.F.fs_pages_restored dt
    (if dt > 0. then float_of_int r.F.fs_runs /. dt else 0.);
  Printf.printf "live translations: %d (%.2f per input)\n" r.F.fs_translations
    (float_of_int r.F.fs_translations /. float_of_int (max 1 r.F.fs_runs));
  match r.F.fs_findings with
  | [] ->
    Printf.printf "no divergences, crashes or livelocks\n";
    exit 0
  | fs ->
    Printf.printf "%d finding(s):\n" (List.length fs);
    List.iter
      (fun (f, muts) ->
        Printf.printf "mutation: [%s]\n"
          (String.concat "; "
             (List.map (fun (o, v) -> Printf.sprintf "+0x%x<-0x%02x" o v) muts));
        Fmt.pr "%a@." F.pp_finding f)
      fs;
    exit 1

(* --persist: persistence-fault campaign. For each generated program: a
   cold lockstep run recording into a fresh store, saved to disk; then a
   clean warm run plus one warm run per disk-fault mode, each over a
   freshly faulted copy of the file. Every warm run must match the cold
   run bit-for-bit — same lockstep result AND the same full metrics
   snapshot, cycle counts included — and every fault must surface a
   structured diagnostic: degraded, never diverged, never crashed. *)
let persist_main seed runs max_insns smoke fuel verbose =
  let runs = if smoke then min runs 10 else runs in
  let log = if verbose then prerr_endline else ignore in
  let rng = F.Rng.create seed in
  let config = Ia32el.Config.default in
  let config_fp = Persist.config_fingerprint config in
  let path = Filename.temp_file "ia32el-fuzz" ".tc" in
  let wpath = Filename.temp_file "ia32el-fuzz-warm" ".tc" in
  let read_file p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let write_file p s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  let result_key = function
    | F.R_ok { commits; exit_code } -> Printf.sprintf "ok:%d:%d" commits exit_code
    | F.R_halted f -> "halted:" ^ Ia32.Fault.to_string f
    | F.R_fuel -> "fuel"
    | F.R_diverged _ -> "diverged"
    | F.R_crash m -> "crash:" ^ m
  in
  let metrics_of (e : F.exec) =
    Option.map
      (fun eng -> Obs.Metrics.to_string (Ia32el.Engine.metrics eng))
      e.F.engine
  in
  let failures = ref 0 in
  let checks = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> incr failures; print_endline m) fmt in
  let t0 = Sys.time () in
  for i = 0 to runs - 1 do
    let prog = F.generate ~rng ~max_insns (seed + i) in
    let image_hash = Persist.image_hash (F.build_image prog) in
    let store = Persist.create_store ~image_hash ~config_fp in
    let cold =
      F.run_one ~config ~fuel
        ~attach_extra:(fun e -> ignore (Persist.attach store e))
        prog
    in
    let cold_key = result_key cold.F.result in
    let cold_m = metrics_of cold in
    (try Sys.remove path with Sys_error _ -> ());
    match Persist.save store ~path with
    | _ :: _ -> fail "program %d: cache save failed" i
    | [] ->
      let saved = read_file path in
      (* a clean warm run, then one warm run per disk-fault mode *)
      let modes =
        None :: List.map Option.some Harness.Inject.all_disk_faults
      in
      List.iter
        (fun mode ->
          incr checks;
          write_file wpath saved;
          (try Sys.remove (wpath ^ ".lock") with Sys_error _ -> ());
          let label =
            match mode with
            | None -> "clean-warm"
            | Some f -> Fmt.str "%a" Harness.Inject.pp_disk_fault f
          in
          (match mode with
          | None -> ()
          | Some f -> (
            match Harness.Inject.apply_disk_fault ~path:wpath f with
            | Ok () -> ()
            | Error m -> fail "program %d %s: fault injection failed: %s" i label m));
          let wstore, diags =
            Persist.load ~path:wpath ~image_hash ~config_fp
          in
          let sref = ref None in
          match
            F.run_one ~config ~fuel
              ~attach_extra:(fun e -> sref := Some (Persist.attach wstore e))
              prog
          with
          | exception e ->
            fail "program %d %s: warm run CRASHED: %s" i label
              (Printexc.to_string e)
          | warm ->
            let wk = result_key warm.F.result in
            if wk <> cold_key then
              fail "program %d %s: warm result %s differs from cold %s" i
                label wk cold_key;
            if metrics_of warm <> cold_m then
              fail "program %d %s: warm metrics differ from cold" i label;
            (match (mode, !sref) with
            | None, Some se ->
              if (Persist.stats se).Persist.hits = 0 then
                fail "program %d clean-warm: no cache hits" i;
              if diags <> [] then
                fail "program %d clean-warm: unexpected load diagnostics" i
            | None, None -> fail "program %d clean-warm: session not attached" i
            | Some Harness.Inject.Lock_held, _ ->
              (* the lock blocks saving, not loading *)
              if diags <> [] then
                fail "program %d lock-held: unexpected load diagnostics" i;
              if Persist.save wstore ~path:wpath = [] then
                fail "program %d lock-held: save ignored the lockfile" i
            | Some _, _ ->
              if diags = [] then
                fail "program %d %s: fault produced no diagnostic" i label);
            log
              (Printf.sprintf "program %d %s: %s, %d load diagnostics" i label
                 wk (List.length diags)))
        modes
  done;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; wpath; wpath ^ ".lock" ];
  Printf.printf
    "persist: %d programs, %d warm runs (clean + %d fault modes each), %.1fs \
     cpu\n"
    runs !checks
    (List.length Harness.Inject.all_disk_faults)
    (Sys.time () -. t0);
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf
    "all warm runs bit-identical to cold; every fault degraded cleanly\n";
  exit 0

let main seed runs max_insns inject_spec shrink smoke fork_server mutations
    corpus max_findings fuel verbose persist =
  if persist then persist_main seed runs max_insns smoke fuel verbose
  else if fork_server then
    forkserver_main seed
      (if runs = 200 then F.default_forkserver.F.fs_programs else runs)
      max_insns mutations smoke max_findings fuel verbose
  else begin
  let inject_seeds =
    match F.parse_seed_spec inject_spec with
    | Ok [] -> [ 1; 2 ]
    | Ok l -> l
    | Error msg ->
      Printf.eprintf "ia32el-fuzz: %s\n" msg;
      exit 2
  in
  (* --smoke: fixed seeds, bounded runs, CI-sized budget *)
  let runs = if smoke then max runs 500 else runs in
  let inject_seeds = if smoke then [ 1; 2 ] else inject_seeds in
  let corpus_dir =
    if smoke then None else if corpus = "" then None else Some corpus
  in
  let cfg =
    {
      F.default_campaign with
      F.seed;
      runs;
      max_insns;
      inject_seeds;
      shrink_findings = shrink;
      corpus_dir;
      max_findings;
      fuel;
      log = (if verbose then prerr_endline else ignore);
    }
  in
  let t0 = Sys.time () in
  let r = F.campaign cfg in
  Printf.printf
    "fuzz: %d programs (seed %d, <= %d insns), %d lockstep executions (%d \
     inject seeds), %.1fs cpu\n"
    r.F.programs seed max_insns r.F.executions
    (List.length inject_seeds)
    (Sys.time () -. t0);
  Printf.printf "pools:";
  List.iter (fun (n, c) -> Printf.printf " %s=%d" n c) r.F.pools_hit;
  Printf.printf "\ncoverage: %d buckets\n" (List.length r.F.coverage);
  if r.F.corpus_saved > 0 then
    Printf.printf "corpus: %d interesting programs saved to %s\n"
      r.F.corpus_saved
      (Option.value ~default:"?" corpus_dir);
  match r.F.findings with
  | [] ->
    Printf.printf "no divergences, crashes or livelocks\n";
    exit 0
  | fs ->
    Printf.printf "%d finding(s):\n" (List.length fs);
    List.iter (fun f -> Fmt.pr "%a@." F.pp_finding f) fs;
    exit 1
  end

open Cmdliner

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed (deterministic).")

let runs_arg =
  Arg.(
    value & opt int 200
    & info [ "n"; "runs" ] ~docv:"N" ~doc:"Programs to generate.")

let max_insns_arg =
  Arg.(
    value & opt int 32
    & info [ "max-insns" ] ~docv:"N"
        ~doc:"Instruction budget per generated program.")

let inject_arg =
  Arg.(
    value & opt string "1,2"
    & info [ "inject-seeds" ] ~docv:"SPEC"
        ~doc:
          "Fault-injection seeds per program, in addition to a clean run: \
           a list and/or ranges ($(b,3), $(b,0-8), $(b,3,7,11)).")

let shrink_arg =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~docv:"BOOL"
        ~doc:"Shrink findings to minimal reproducers (default true).")

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "CI smoke mode: fixed seeds, at least 500 programs, clean run \
           plus 2 injection seeds each, bounded well under a minute.")

let corpus_arg =
  Arg.(
    value & opt string "fuzz-corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Directory for programs that light up new coverage buckets \
           (empty string disables; disabled in $(b,--smoke)).")

let max_findings_arg =
  Arg.(
    value & opt int 5
    & info [ "max-findings" ] ~docv:"N"
        ~doc:"Stop the campaign after this many findings.")

let fuel_arg =
  Arg.(
    value & opt int 12_000_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Engine fuel per lockstep run.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Log findings and shrink progress.")

let fork_server_arg =
  Arg.(
    value & flag
    & info [ "fork-server" ]
        ~doc:
          "Fork-server mode: build one persistent lockstep session per            base program (engine, translations and reference built once),            then serve each input by copy-on-write snapshot / mutate the            scratch region / run / revert, keeping translated code warm            across inputs. $(b,--runs) counts base programs,            $(b,--mutations) inputs per base.")

let mutations_arg =
  Arg.(
    value
    & opt int F.default_forkserver.F.fs_mutations
    & info [ "mutations" ] ~docv:"N"
        ~doc:
          "Mutated inputs per base program in $(b,--fork-server) mode            (each base also runs once unmutated).")

let persist_arg =
  Arg.(
    value & flag
    & info [ "persist" ]
        ~doc:
          "Persistence-fault campaign: for each generated program, record \
           a cold lockstep run into a translation-cache file, then replay \
           it warm — once clean and once per disk-fault mode (bit flip, \
           truncation, partial write, stale fingerprint, held lock). \
           Every warm run must be bit-identical to the cold one and every \
           fault must degrade to retranslation with a structured \
           diagnostic. $(b,--runs) counts programs; exits non-zero on any \
           divergence, crash or silent fault.")

let main_t =
  Term.(
    const main $ seed_arg $ runs_arg $ max_insns_arg $ inject_arg $ shrink_arg
    $ smoke_arg $ fork_server_arg $ mutations_arg $ corpus_arg
    $ max_findings_arg $ fuel_arg $ verbose_arg $ persist_arg)

let cmd =
  Cmd.v
    (Cmd.info "ia32el-fuzz" ~version:"1.0.0"
       ~doc:
         "Differential fuzzing: random well-formed IA-32 guests under \
          lockstep with fault injection, with automatic shrinking.")
    main_t

let () = exit (Cmd.eval cmd)
