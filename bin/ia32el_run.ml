(* ia32el-run: command-line driver for the IA-32 EL simulator.

   Runs any of the bundled synthetic workloads under a chosen execution
   model and prints cycle counts, the time distribution, and the
   translator statistics. The bench harness (bench/main.exe) regenerates
   the paper's tables and figures wholesale; this tool is for poking at a
   single workload/configuration pair.

     ia32el-run list
     ia32el-run run gzip
     ia32el-run run gzip --model cold-only --scale 2 --stats
     ia32el-run run swim --model native
     ia32el-run run office --model xeon
     ia32el-run run gzip --lockstep
     ia32el-run run gzip --lockstep --inject 3
     ia32el-run run gzip --lockstep --inject 1,4-8
     ia32el-run run gzip --trace trace.json --metrics metrics.json
     ia32el-run run gzip --profile
     ia32el-run run gzip --trace-stderr *)

module B = Workloads.Baselines
module C = Workloads.Common

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

type model =
  | M_el of Ia32el.Config.t * string
  | M_native
  | M_circuitry
  | M_xeon

let model_of_string = function
  | "el" | "default" -> Ok (M_el (Ia32el.Config.default, "two-phase IA-32 EL"))
  | "cold-only" ->
    Ok (M_el (Ia32el.Config.cold_only, "cold-only translator"))
  | "interpret-first" ->
    Ok
      (M_el
         ( {
             Ia32el.Config.default with
             Ia32el.Config.first_phase = Ia32el.Config.Interpret_first;
           },
           "interpret-first two-phase" ))
  | "native" -> Ok M_native
  | "circuitry" -> Ok M_circuitry
  | "xeon" -> Ok M_xeon
  | s ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown model %S (el, cold-only, interpret-first, native, \
            circuitry, xeon)"
           s))

let model_conv =
  Cmdliner.Arg.conv
    ( model_of_string,
      fun ppf m ->
        Format.pp_print_string ppf
          (match m with
          | M_el (_, d) -> d
          | M_native -> "native"
          | M_circuitry -> "circuitry"
          | M_xeon -> "xeon") )

(* One source of truth for statistics: the same Obs.Metrics snapshot that
   backs --metrics JSON export and the fuzzer's coverage steering, here
   rendered as grouped text. *)
let print_stats (eng : Ia32el.Engine.t) =
  Fmt.pr "%a" Obs.Metrics.pp_text (Ia32el.Engine.metrics eng)

(* ------------------------------------------------------------------ *)
(* observability plumbing                                              *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  trace_file : string option;
  trace_stderr : bool;
  profile_top : int option;
  metrics_file : string option;
  sample_interval : int option;
  flame_file : string option;
  (* one shared timer set so tcache_setup can record persist-I/O spans
     into the same artifact; Some iff --host-timers *)
  timers : Obs.Timers.t option;
}

let obs_requested o =
  o.trace_file <> None || o.trace_stderr || o.profile_top <> None
  || o.metrics_file <> None || o.sample_interval <> None
  || o.flame_file <> None || o.timers <> None

(* --flame without --sample gets the documented default interval *)
let default_sample_interval = 4096

let sampling_requested o = o.sample_interval <> None || o.flame_file <> None

(* Attach trace/profile/sampler/hists/timers per the flags; called with
   the fresh engine before the run starts. *)
let obs_attach o labels eng =
  if o.trace_file <> None || o.trace_stderr then begin
    let tr = Obs.Trace.create () in
    Ia32el.Engine.attach_trace eng tr;
    if o.trace_stderr then
      Obs.Trace.set_echo tr (fun e -> Fmt.epr "%a@." Obs.Trace.pp_event e)
  end;
  if o.profile_top <> None then
    Ia32el.Engine.attach_profile eng (Obs.Profile.create ());
  if sampling_requested o then begin
    let interval =
      Option.value o.sample_interval ~default:default_sample_interval
    in
    Ia32el.Engine.attach_sample eng (Obs.Sample.create ~interval ~labels);
    (* the sampler and the histogram layer ship together: both feed the
       ia32el-metrics/2 sections the report tool renders *)
    Ia32el.Engine.attach_hists eng (Obs.Hist.create_set ())
  end;
  match o.timers with
  | Some tm -> Ia32el.Engine.attach_timers eng tm
  | None -> ()

(* Map a guest entry EIP to a symbolic name using the workload image's
   label table: exact label, or nearest label below as label+0xOFF.
   Selection is by greatest address at or below the entry regardless of
   the table's order — hot superblock entries (mid-function EIPs) resolve
   to the right symbol even when the label list is not address-sorted. *)
let name_of labels entry =
  let best =
    List.fold_left
      (fun acc (n, a) ->
        if a > entry then acc
        else
          match acc with
          | Some (_, best_a) when best_a >= a -> acc
          | _ -> Some (n, a))
      None labels
  in
  match best with
  | Some (n, a) when a = entry -> Some n
  | Some (n, a) when entry - a < 0x10000 ->
    Some (Printf.sprintf "%s+0x%x" n (entry - a))
  | _ -> None

(* Emit the requested artifacts after the run. *)
let obs_finish o labels eng =
  (match (o.trace_file, Ia32el.Engine.trace eng) with
  | Some file, Some tr ->
    let oc = open_out file in
    Obs.Trace.write_chrome tr oc;
    close_out oc;
    Printf.printf "trace: %d events (%d dropped) -> %s\n" (Obs.Trace.length tr)
      (Obs.Trace.dropped tr) file
  | _ -> ());
  (match (o.profile_top, Ia32el.Engine.profile eng) with
  | Some n, Some p ->
    let samples =
      match Ia32el.Engine.sampler eng with
      | Some s when Obs.Sample.samples s > 0 ->
        Some
          ( (fun entry -> Obs.Sample.entry_samples s entry),
            Obs.Sample.samples s )
      | _ -> None
    in
    Fmt.pr "%a"
      (fun ppf ->
        Obs.Profile.render ~top:n ~name_of:(name_of labels) ?samples ppf)
      p
  | _ -> ());
  (match Ia32el.Engine.sampler eng with
  | Some s ->
    Fmt.pr "%a" (Obs.Sample.render_top ~top_n:10) s;
    (match o.flame_file with
    | Some file ->
      Obs.Sample.write_folded s file;
      Printf.printf "flamegraph: %d samples in %d buckets -> %s\n"
        (Obs.Sample.samples s) (Obs.Sample.bucket_count s) file
    | None -> ())
  | None -> ());
  (match o.timers with
  | Some tm -> Fmt.pr "host phase timers:@.%a" Obs.Timers.pp tm
  | None -> ());
  match o.metrics_file with
  | Some file ->
    let oc = open_out file in
    Obs.Metrics.write (Ia32el.Engine.metrics eng) oc;
    close_out oc;
    Printf.printf "metrics -> %s\n" file
  | None -> ()

(* ------------------------------------------------------------------ *)
(* persistent translation cache plumbing                               *)
(* ------------------------------------------------------------------ *)

type tcache_opts = {
  tc_file : string option;
  tc_readonly : bool;
}

(* Returns (attach, finish): [attach] installs the persistent-store
   translate filter on a fresh engine; [finish] (after the run) saves the
   store back — unless read-only — and reports. Load problems are
   warnings: damaged or stale entries are dropped with a diagnostic and
   the run degrades to live translation. *)
let tcache_setup ?timers tc ~(config : Ia32el.Config.t) (w : C.t) ~scale
    ~stats =
  (* persist-I/O wall spans land in the shared --host-timers set *)
  let timed_io f =
    match timers with
    | None -> f ()
    | Some tm -> Obs.Timers.time tm Obs.Timers.Persist_io f
  in
  match tc.tc_file with
  | None -> ((fun _ -> ()), fun () -> ())
  | Some path ->
    let image = w.C.build ~scale ~wide:false in
    let image_hash = Persist.image_hash image in
    let config_fp = Persist.config_fingerprint config in
    let store, diags =
      timed_io (fun () -> Persist.load ~path ~image_hash ~config_fp)
    in
    List.iter (fun d -> Fmt.epr "tcache: %a@." Ia32el.Bt_error.pp d) diags;
    if diags <> [] then
      Fmt.epr
        "tcache: damaged or stale cache content dropped; affected blocks \
         will retranslate@.";
    let session = ref None in
    let attach eng =
      session :=
        Some
          (Persist.attach ~readonly:tc.tc_readonly store eng)
    in
    let finish () =
      match !session with
      | None -> ()
      | Some se ->
        if stats then Fmt.pr "%a@." Persist.pp_stats (Persist.stats se);
        if not tc.tc_readonly then begin
          let ds = timed_io (fun () -> Persist.save store ~path) in
          List.iter (fun d -> Fmt.epr "tcache: %a@." Ia32el.Bt_error.pp d) ds;
          if ds = [] then
            Printf.printf "tcache: %d entries -> %s\n"
              (Persist.entry_count store) path
        end
    in
    (attach, finish)

let print_inject_stats = function
  | Some s -> Fmt.pr "%a@." Harness.Inject.pp_stats s
  | None -> ()

let print_capsule_written = function
  | Some file -> Printf.printf "crash capsule -> %s\n" file
  | None -> ()

(* The resilience path: --lockstep (the engine against the reference
   interpreter), --inject SEED, and any run that arms --max-cycles,
   --snapshot-every, --capsule or --sabotage. *)
let resilience_cmd w config desc scale stats obs labels
    ((pattach, pfinish) : (Ia32el.Engine.t -> unit) * (unit -> unit))
    ~lockstep seed max_cycles snap_every capsule sabotage =
  let r =
    Harness.Resilience.run ~config ?seed ?max_cycles ?snap_every ?capsule
      ?sabotage ~lockstep
      ~attach:(fun eng ->
        obs_attach obs labels eng;
        pattach eng)
      w ~scale
  in
  let report = r.Harness.Capsule.report in
  (match report.Ia32el.Lockstep.divergence with
  | Some d ->
    Fmt.epr "%s under %s DIVERGED:@.%a@." w.C.name desc
      Ia32el.Lockstep.pp_divergence d;
    print_inject_stats r.Harness.Capsule.inject_stats;
    print_capsule_written r.Harness.Capsule.capsule_written;
    exit 1
  | None -> ());
  (* a lockstep line counts the agreeing commit points; an engine-only
     line names the injection seed *)
  let mode, agree =
    if lockstep then
      ( " in lockstep",
        Printf.sprintf ", %d commit points agree"
          report.Ia32el.Lockstep.commits )
    else
      ( (match seed with
        | Some seed -> Printf.sprintf " with injection seed %d" seed
        | None -> ""),
        "" )
  in
  (match report.Ia32el.Lockstep.outcome with
  | Some (Ia32el.Engine.Exited (code, _)) ->
    Printf.printf "%s under %s%s: exit %d%s\n" w.C.name desc mode code agree
  | Some (Ia32el.Engine.Unhandled_fault (f, st)) ->
    Printf.printf "%s under %s%s: unhandled %s at 0x%x%s%s\n" w.C.name desc
      mode (Ia32.Fault.to_string f) st.Ia32.State.eip
      (if lockstep then " (both vehicles)" else "")
      agree
  | Some Ia32el.Engine.Out_of_fuel | None ->
    Printf.printf "%s under %s%s: out of fuel\n" w.C.name desc mode);
  print_inject_stats r.Harness.Capsule.inject_stats;
  print_capsule_written r.Harness.Capsule.capsule_written;
  if stats then print_stats r.Harness.Capsule.engine;
  obs_finish obs labels r.Harness.Capsule.engine;
  pfinish ()

(* --replay CAPSULE: rebuild the failing run from the capsule file and
   verify it reproduces bit-identically. *)
let replay_cmd file =
  let c =
    try Harness.Capsule.load file
    with
    | Sys_error msg ->
      Printf.eprintf "--replay: %s\n" msg;
      exit 2
    | Invalid_argument msg | Failure msg ->
      Printf.eprintf "--replay: %s\n" msg;
      exit 2
    | Ia32el.Bt_error.Error e ->
      Fmt.epr "--replay: %a@." Ia32el.Bt_error.pp e;
      exit 3
  in
  print_string (Harness.Capsule.describe c);
  let v = Harness.Capsule.replay ~log:prerr_endline c in
  Printf.printf "replay: %d/%d commit points matched; failure now: %s\n"
    v.Harness.Capsule.v_log_match v.Harness.Capsule.v_log_total
    v.Harness.Capsule.v_failure_got;
  if v.Harness.Capsule.v_reproduced then
    print_endline "replay: REPRODUCED bit-identically"
  else begin
    print_endline "replay: did NOT reproduce the recorded run";
    exit 1
  end

let run_cmd name model scale stats lockstep inject trace_file trace_stderr
    profile_top metrics_file sample_interval flame_file host_timers
    threads quantum max_cycles snap_every capsule replay sabotage
    tcache_file tcache_readonly =
  (match replay with
  | Some file -> replay_cmd file; exit 0
  | None -> ());
  let sabotage =
    match sabotage with
    | None -> None
    | Some spec -> (
      match Harness.Capsule.parse_sabotage spec with
      | Ok sb -> Some sb
      | Error msg ->
        Printf.eprintf "--sabotage: %s\n" msg;
        exit 2)
  in
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.eprintf "a WORKLOAD argument is required (unless --replay)\n";
      exit 2
  in
  let obs =
    {
      trace_file;
      trace_stderr;
      profile_top;
      metrics_file;
      sample_interval;
      flame_file;
      timers = (if host_timers then Some (Obs.Timers.create ()) else None);
    }
  in
  let tc = { tc_file = tcache_file; tc_readonly = tcache_readonly } in
  let model =
    match model with
    | M_el (c, d) ->
      M_el
        ( {
            c with
            Ia32el.Config.quantum =
              Option.value quantum ~default:c.Ia32el.Config.quantum;
          },
          d )
    | m -> m
  in
  let inject_seeds =
    match inject with
    | None -> None
    | Some spec -> (
      match Harness.Fuzz.parse_seed_spec spec with
      | Ok [] ->
        Printf.eprintf "--inject: empty seed spec %S\n" spec;
        exit 2
      | Ok seeds -> Some seeds
      | Error msg ->
        Printf.eprintf "--inject: %s\n" msg;
        exit 2)
  in
  match Workloads.Catalog.find ~threads name with
  | None ->
    Printf.eprintf "unknown workload %S; try `ia32el-run list'\n" name;
    exit 1
  | Some w -> (
    try
      let labels =
        if obs_requested obs then (w.C.build ~scale ~wide:false).Ia32.Asm.labels
        else []
      in
      match model with
      | (M_native | M_circuitry | M_xeon)
        when lockstep || inject_seeds <> None || obs_requested obs
             || tc.tc_file <> None ->
        Printf.eprintf
          "--lockstep/--inject/--trace/--profile/--metrics/--tcache-file \
           only apply to the translator models\n";
        exit 1
      | M_el (config, desc)
        when lockstep || inject_seeds <> None || max_cycles <> None
             || snap_every <> None || capsule <> None || sabotage <> None ->
        let pers = tcache_setup ?timers:obs.timers tc ~config w ~scale ~stats in
        let seeds =
          match inject_seeds with
          | Some seeds -> List.map Option.some seeds
          | None -> [ None ]
        in
        List.iter
          (fun seed ->
            resilience_cmd w config desc scale stats obs labels pers
              ~lockstep seed max_cycles snap_every capsule sabotage)
          seeds
      | M_el (config, desc) ->
        let pattach, pfinish = tcache_setup ?timers:obs.timers tc ~config w ~scale ~stats in
        let r =
          B.run_el ~config
            ~attach:(fun eng ->
              obs_attach obs labels eng;
              pattach eng)
            ~check_exit:false w ~scale
        in
        Printf.printf "%s under %s: %d cycles (guest exit %d)\n" w.C.name desc
          r.B.cycles r.B.exit_code;
        (match r.B.distribution with
        | Some d -> Fmt.pr "%a@." Ia32el.Account.pp_distribution d
        | None -> ());
        (match (stats, r.B.engine) with
        | true, Some eng -> print_stats eng
        | _ -> ());
        (match r.B.engine with
        | Some eng -> obs_finish obs labels eng
        | None -> ());
        pfinish ();
        (* the driver exits with the guest process's exit code *)
        if r.B.exit_code <> 0 then exit (r.B.exit_code land 0xff)
      | M_native ->
        let r = B.run_native w ~scale in
        Printf.printf "%s natively compiled (model): %d cycles\n" w.C.name
          r.B.cycles
      | M_circuitry ->
        let r = B.run_circuitry w ~scale in
        Printf.printf "%s on the IA-32 hardware circuitry (model): %d cycles (%d insns)\n"
          w.C.name r.B.cycles r.B.insns
      | M_xeon ->
        let r = B.run_xeon w ~scale in
        Printf.printf "%s on a Xeon-class OOO IA-32 core (model): %d cycles (%d insns)\n"
          w.C.name r.B.cycles r.B.insns
    with
    | B.Workload_failed msg ->
      Printf.eprintf "workload failed: %s\n" msg;
      exit 1
    | Ia32el.Bt_error.Error e ->
      (* structured translator error — the watchdog lands here; the
         capsule (if requested) was written before the raise *)
      Fmt.epr "%s: %a@." w.C.name Ia32el.Bt_error.pp e;
      (match capsule with
      | Some file -> Printf.printf "crash capsule -> %s\n" file
      | None -> ());
      exit 3)

let list_cmd () =
  Printf.printf "%-16s %s\n" "NAME" "PAPER SCORE (Fig. 5/8, percent of native)";
  List.iter
    (fun w ->
      Printf.printf "%-16s %s\n" w.C.name
        (match w.C.paper_score with
        | Some s -> string_of_int s
        | None -> "-"))
    (Workloads.Catalog.all ~threads:Workloads.Threads.default_workers)

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let workload_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:"Workload name; required unless $(b,--replay) is given.")

let model_arg =
  Arg.(
    value
    & opt model_conv (M_el (Ia32el.Config.default, "two-phase IA-32 EL"))
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          "Execution model: $(b,el) (default), $(b,cold-only), \
           $(b,interpret-first), $(b,native), $(b,circuitry), $(b,xeon).")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the full translator statistics.")

let lockstep_arg =
  Arg.(
    value & flag
    & info [ "lockstep" ]
        ~doc:
          "Run the translator against the reference interpreter in \
           lockstep, comparing the full architectural state at every \
           commit point (syscalls, faults, exit). Exits non-zero on the \
           first divergence, with a structured diagnosis.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SEEDS"
        ~doc:
          "Attach the deterministic fault injector: forced speculation \
           misses, spurious SMC invalidations, translation-cache eviction \
           storms and transient system-call failures. $(docv) is a seed, a \
           range or a list ($(b,3), $(b,0-8), $(b,1,4-6)); the workload \
           runs once per seed. Combine with $(b,--lockstep) to verify each \
           run stays semantics-preserving.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record structured engine events (dispatch, translation, heat, \
           speculation misses, faults, SMC, syscalls, degradation) and \
           write the retained window as Chrome trace_event JSON to \
           $(docv), loadable in chrome://tracing or Perfetto.")

let trace_stderr_arg =
  Arg.(
    value & flag
    & info [ "trace-stderr" ]
        ~doc:
          "Pretty-print every trace event to stderr live (replaces the \
           old IA32EL_TRACE environment hook).")

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some 10) (some int) None
    & info [ "profile" ] ~docv:"N"
        ~doc:
          "Attribute executed cycles to guest blocks and print the top \
           $(docv) (default 10) hot spots: self cycles split hot/cold, \
           translation overhead, recovery cycles, with symbolic labels \
           from the workload's assembler label table.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the full metrics snapshot (cycle distribution, counters, \
           machine/tcache/dcache/OS statistics, profile summary when \
           $(b,--profile) is active, histogram/sampler sections when \
           $(b,--sample) is active, host phase timers when \
           $(b,--host-timers) is active) as JSON to $(docv), schema \
           $(b,ia32el-metrics/2). Render or diff it with \
           $(b,ia32el-report).")

let sample_arg =
  Arg.(
    value
    & opt ~vopt:(Some 4096) (some int) None
    & info [ "sample" ] ~docv:"N"
        ~doc:
          "Attach the virtual-cycle sampling profiler: every $(docv) \
           (default 4096) simulated guest cycles, record thread, EIP, \
           owning block, translation phase and degradation state at the \
           next commit point. Sampling is driven by the deterministic \
           virtual clock, so its output is byte-identical across runs — \
           and attaching it never changes observables, cycle counts \
           included. Also attaches the latency histograms (syscall, futex \
           wait, trace length, tcache probe depth, translation cost, \
           snapshot cost) exported in the metrics JSON.")

let flame_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flame" ] ~docv:"FILE"
        ~doc:
          "Write the sampler's collapsed-stack (\"folded\") output to \
           $(docv) — feed it to flamegraph.pl or load it in speedscope. \
           Implies $(b,--sample) at the default interval when $(b,--sample) \
           is not given.")

let host_timers_arg =
  Arg.(
    value & flag
    & info [ "host-timers" ]
        ~doc:
          "Measure host-side wall time per engine phase (translate, \
           execute, persistent-cache I/O, snapshot), print the totals and \
           mirror them into the metrics JSON. Informational: wall times \
           are host-dependent, unlike every simulated counter.")

let threads_arg =
  Arg.(
    value
    & opt int Workloads.Threads.default_workers
    & info [ "threads" ] ~docv:"N"
        ~doc:
          "Worker-thread count for the multithreaded workloads \
           ($(b,threads-pc), $(b,threads-ptask)); clamped to 1-8. \
           Single-threaded workloads ignore it.")

let quantum_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quantum" ] ~docv:"CYCLES"
        ~doc:
          "Scheduler quantum in simulated cycles for multithreaded guests \
           (default 20000). A thread is preempted at its first system-call \
           commit point after running $(docv) cycles; $(docv) <= 0 disables \
           preemption (threads switch only on blocking calls and yields). \
           Scheduling is deterministic for any value.")

let max_cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Runaway-guest watchdog: abort with a structured error \
           (component $(b,watchdog), exit 3) once the virtual clock \
           passes $(docv) cycles — caught even inside fully chained \
           translated loops that never re-enter the dispatcher. Combine \
           with $(b,--capsule) to capture the aborted run.")

let snapshot_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Take a copy-on-write barrier snapshot at every $(docv)-th \
           system-call commit point. Each snapshot is a time-travel \
           anchor: its epoch id and trace-event index are recorded in \
           the trace ($(b,--trace)) and in any crash capsule \
           ($(b,--capsule)), and execution after the snapshot is \
           bit-identical to a revert-and-rerun from it.")

let capsule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "capsule" ] ~docv:"FILE"
        ~doc:
          "On failure — lockstep divergence, unhandled fault, watchdog \
           expiry or any structured translator error — write a \
           self-contained crash capsule to $(docv): initial guest image \
           and state, run parameters, and the commit log (event, EIP, \
           thread, virtual clock per commit point). Replay it with \
           $(b,--replay).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay the crash capsule in $(docv) from the start under its \
           recorded parameters, verifying every commit point against the \
           recorded log. Exits 0 when the failure reproduces \
           bit-identically, 1 otherwise. The $(i,WORKLOAD) argument and \
           the other run flags are ignored.")

let sabotage_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sabotage" ] ~docv:"SPEC"
        ~doc:
          "Lockstep-oracle self-test: at the $(i,DISPATCH)-th slow-path \
           dispatch, silently corrupt the machine's canonical copy of \
           guest register $(i,REG) to $(i,VALUE) \
           ($(docv) = $(i,DISPATCH):$(i,REG):$(i,VALUE), e.g. \
           $(b,10:esi:0xBEEF)). With $(b,--lockstep) the corruption must \
           be diagnosed at the next commit point; with $(b,--capsule) \
           the spec is recorded so $(b,--replay) reproduces the \
           divergence deterministically.")

let tcache_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcache-file" ] ~docv:"FILE"
        ~doc:
          "Persistent translation cache: load verified translations from \
           $(docv) before the run (warm start) and save the run's \
           translations back atomically afterwards. The file is keyed by \
           guest-image hash, configuration fingerprint and format version; \
           stale, truncated or corrupt content is dropped with a \
           diagnostic and the affected blocks simply retranslate — a \
           damaged cache can slow a run, never change it. Warm runs are \
           bit-identical (cycle counts included) to cold ones.")

let tcache_readonly_arg =
  Arg.(
    value & flag
    & info [ "tcache-readonly" ]
        ~doc:
          "Use the persistent translation cache read-only: consume \
           recorded translations but record nothing and never write the \
           file back.")

let run_t =
  Term.(
    const run_cmd $ workload_arg $ model_arg $ scale_arg $ stats_arg
    $ lockstep_arg $ inject_arg $ trace_arg $ trace_stderr_arg $ profile_arg
    $ metrics_arg $ sample_arg $ flame_arg $ host_timers_arg
    $ threads_arg $ quantum_arg $ max_cycles_arg $ snapshot_every_arg $ capsule_arg
    $ replay_arg $ sabotage_arg $ tcache_file_arg $ tcache_readonly_arg)

let run_info =
  Cmd.info "run" ~doc:"Run one workload under a chosen execution model."

let list_t = Term.(const list_cmd $ const ())
let list_info = Cmd.info "list" ~doc:"List the bundled workloads."

let main =
  Cmd.group
    (Cmd.info "ia32el-run" ~version:"1.0.0"
       ~doc:"Run IA-32 programs through the IA-32 Execution Layer simulator.")
    [ Cmd.v run_info run_t; Cmd.v list_info list_t ]

let () = exit (Cmd.eval main)
