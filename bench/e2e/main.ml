(* End-to-end and per-layer host-time benchmark (see README.md here).

     dune exec bench/e2e/main.exe -- --workload W --seed S
       [--seconds N] [--trace 0|1 | --traced] [--out FILE]
     dune exec bench/e2e/main.exe -- --smoke

   One process runs one workload: its set-up (three times, median
   reported as setup_s), then a fixed amount of measured work sized to
   take about --seconds on the reference host. Every output is checked
   against an independent reference. The last line on stdout is one
   JSON object {"correct", "attempted", "failed", "metrics"} holding the
   end-to-end metrics, or with tracing the per-layer ones. Scratch files
   (tcaches, span logs) go to .bench-e2e/ under the working directory. *)

module F = Harness.Fuzz
module L = Ia32el.Lockstep
module E = Ia32el.Engine
module I = Ia32el.Instance

let now = Unix.gettimeofday

(* ---- statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let pct p xs = if xs = [] then nan else Serve.percentile (sorted xs) p
let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* ---- what one run reports ------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;  (** tiny fixed work, set-up once *)
  dir : string;  (** scratch directory *)
}

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** the first few failures, for stderr *)
  metrics : (string, float * string) Hashtbl.t;
}

let set rep name unit v = Hashtbl.replace rep.metrics name (v, unit)

(* Count one checked operation; [Some why] is a failure. *)
let op rep = function
  | None -> rep.attempted <- rep.attempted + 1
  | Some why ->
    rep.attempted <- rep.attempted + 1;
    rep.failed <- rep.failed + 1;
    if List.length rep.problems < 10 then rep.problems <- why :: rep.problems

let end_to_end = [ ("run_s", "s"); ("ops_per_s", "1/s"); ("setup_s", "s") ]

(* Per-layer self time (ms per op) of each span layer; the op's own
   self time is the unattributed remainder. *)
let layer_times =
  Span.
    [
      (Instance_build, "instance.build_ms");
      (Persist_load, "persist.load_ms");
      (Persist_install, "persist.install_ms");
      (Translate_cold, "translate.cold_ms");
      (Translate_hot, "translate.hot_ms");
      (Exec, "exec.self_ms");
      (Engine, "engine.self_ms");
      (Vos_syscall, "vos.syscall_ms");
      (Metrics_json, "serve.metrics_json_ms");
      (Marshal, "serve.marshal_ms");
      (Snapshot, "snapshot.ms");
      (Revert, "revert.ms");
      (Lockstep_ref, "lockstep.ref_ms");
      (Op, "unattributed_ms");
    ]

let gc_name l = match l with Span.Op -> "unattributed" | l -> Span.name l

let guests =
  Workloads.Spec_int.all @ Workloads.Spec_fp.all
  @ [ Workloads.Sysmark.office; Workloads.Sysmark.misalign_stress ]
  @ Workloads.Threads.all ~workers:Workloads.Threads.default_workers

let per_layer =
  List.map (fun (_, n) -> (n, "ms")) layer_times
  @ [
      ("traced.wall_ms", "ms");
      ("translate.cold_n", "count");
      ("translate.hot_n", "count");
      ("vos.syscall_n", "count");
      ("persist.hits", "count");
      ("persist.misses", "count");
      ("journal.pages_restored", "count");
    ]
  @ List.concat_map
      (fun (l, _) ->
        [
          ("gc.minor_mwords." ^ gc_name l, "Mwords");
          ("gc.major_n." ^ gc_name l, "count");
        ])
      layer_times
  @ [
      ("gc.minor_mwords.total", "Mwords");
      ("gc.major_n.total", "count");
      ("serve.svc_ms.p50", "ms");
      ("serve.svc_ms.inproc", "ms");
      ("serve.fork_penalty_ms", "ms");
      ("serve.queue_ipc_ms.r50", "ms");
      ("serve.warmup_ratio", "ratio");
      ("serve.lat_p50_ms.r150", "ms");
      ("serve.lat_p95_ms.r150", "ms");
      ("serve.lat_p99_ms.r150", "ms");
      ("lat_p50_ms", "ms");
      ("lat_p95_ms", "ms");
      ("lat_p99_ms", "ms");
      ("lat_samples", "count");
      ("trace_overhead_frac", "frac");
      ("vcycles", "cycles");
      ("error_rate", "frac");
    ]
  @ List.map
      (fun (w : Workloads.Common.t) -> ("guest." ^ w.name ^ ".run_ms", "ms"))
      guests

(* Per-op layer metrics from the span totals of [walls] traced ops. *)
let record_layers rep ~traced_walls ~untraced_walls =
  let ops = float_of_int (List.length traced_walls) in
  let per_op x = x /. ops in
  List.iter
    (fun (l, n) -> set rep n "ms" (per_op (1e3 *. Span.self_seconds l)))
    layer_times;
  let words = ref 0. and majors = ref 0 in
  List.iter
    (fun (l, _) ->
      let w = Span.self_minor_words l and m = Span.self_majors l in
      words := !words +. w;
      majors := !majors + m;
      set rep ("gc.minor_mwords." ^ gc_name l) "Mwords" (per_op (w /. 1e6));
      set rep ("gc.major_n." ^ gc_name l) "count" (per_op (float_of_int m)))
    layer_times;
  set rep "gc.minor_mwords.total" "Mwords" (per_op (!words /. 1e6));
  set rep "gc.major_n.total" "count" (per_op (float_of_int !majors));
  let n l = per_op (float_of_int (Span.spans l)) in
  set rep "translate.cold_n" "count" (n Span.Translate_cold);
  set rep "translate.hot_n" "count" (n Span.Translate_hot);
  set rep "vos.syscall_n" "count" (n Span.Vos_syscall);
  set rep "traced.wall_ms" "ms" (1e3 *. mean traced_walls);
  set rep "trace_overhead_frac" "frac"
    ((sum traced_walls /. sum untraced_walls) -. 1.)

(* Per-layer metrics of layers a workload does not have read 0. *)
let not_applicable rep prefixes =
  List.iter
    (fun (n, u) ->
      if List.exists (fun p -> String.starts_with ~prefix:p n) prefixes
         && not (Hashtbl.mem rep.metrics n)
      then set rep n u 0.)
    per_layer

let set_latencies rep samples_ms =
  set rep "lat_p50_ms" "ms" (median samples_ms);
  set rep "lat_p95_ms" "ms" (pct 95. samples_ms);
  set rep "lat_p99_ms" "ms" (pct 99. samples_ms);
  set rep "lat_samples" "count" (float_of_int (List.length samples_ms))

(* Run [f] once per set-up repetition, each from a compacted heap;
   setup_s is the median. *)
let timed_setup ctx rep f =
  let times = ref [] and last = ref None in
  for _ = 1 to if ctx.smoke then 1 else 3 do
    Gc.compact ();
    let t0 = now () in
    let x = f () in
    times := (now () -. t0) :: !times;
    last := Some x
  done;
  set rep "setup_s" "s" (median !times);
  Option.get !last

(* [n] measured passes. A run that overruns its budget fourfold stops
   early rather than run into the caller's timeout. *)
let repeat ctx n f =
  let deadline = now () +. (4. *. ctx.seconds) in
  let k = ref 0 in
  while !k < n && (!k = 0 || ctx.smoke || now () < deadline) do
    f !k;
    incr k
  done

(* A fixed amount of work, sized from --seconds by the reference host's
   nominal rate so both sides of a comparison do the same work. *)
let count ctx ~per_s ~min =
  if ctx.smoke then min
  else max min (int_of_float (Float.round (ctx.seconds *. per_s)))

(* Traced work runs inside [Span.on]; everything else runs untraced. *)
let traced_op f =
  Span.on := true;
  Span.op_begin ();
  let r = f () in
  let wall = Span.op_end () in
  Span.on := false;
  (r, wall)

let remove path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".lock" ]

let config_fp = Persist.config_fingerprint Ia32el.Config.default

(* ---- suite-cold / suite-warm ---------------------------------------- *)

type guest = {
  w : Workloads.Common.t;
  image : Ia32.Asm.image;
  image_hash : int64;
  tc : string;  (** this guest's AOT tcache (suite-warm) *)
}

(* How a run stopped, and the final GPRs: what the reference vehicle
   must agree on. *)
let ref_outcome g =
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load g.image mem in
  let vos = Btlib.Vos.create mem in
  match fst (Ia32el.Refvehicle.run ~btlib:Hooks.linux vos st) with
  | Ia32el.Refvehicle.Exited (c, st) ->
    (Printf.sprintf "exited(%d)" c, st.Ia32.State.regs)
  | Ia32el.Refvehicle.Unhandled_fault (f, st) ->
    ("fault:" ^ Ia32.Fault.to_string f, st.Ia32.State.regs)
  | Ia32el.Refvehicle.Out_of_fuel -> ("fuel_exhausted", [||])

(* One standalone guest run in a fresh instance; [warm] installs every
   translation from the guest's AOT tcache. *)
let run_guest ~warm g =
  let inst =
    Span.with_ Span.Instance_build (fun () ->
        I.create ~btlib:(Hooks.btlib ()) g.image)
  in
  let session =
    if not warm then None
    else
      let store =
        Span.with_ Span.Persist_load (fun () ->
            fst (Persist.load ~path:g.tc ~image_hash:g.image_hash ~config_fp))
      in
      Some
        (Span.with_ Span.Persist_install (fun () ->
             Persist.attach ~readonly:true store inst.I.eng))
  in
  if !Span.on then Hooks.attach inst.I.eng;
  let r = Span.with_ Span.Engine (fun () -> I.run inst) in
  (inst, r, session)

let check_guest g (stop, regs) (inst, (r : I.result), session) =
  let got = I.stop_to_string r.I.stop in
  if got <> stop || inst.I.st.Ia32.State.regs <> regs then
    Some
      (Printf.sprintf "%s: stopped %s, reference %s (or GPRs differ)" g.w.name
         got stop)
  else
    match session with
    | Some se when (Persist.stats se).Persist.misses > 0 ->
      Some
        (Printf.sprintf "%s: %d live translations on a warm start" g.w.name
           (Persist.stats se).Persist.misses)
    | _ -> None

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let suite ~warm ctx rep =
  (* set-up: the images, each guest's reference outcome and, warm, its
     AOT tcache -- everything the first measured run needs *)
  let expect =
    timed_setup ctx rep (fun () ->
        Array.of_list
          (List.map
             (fun (w : Workloads.Common.t) ->
               let image = w.build ~scale:1 ~wide:false in
               let g =
                 {
                   w;
                   image;
                   image_hash = Persist.image_hash image;
                   tc = Filename.concat ctx.dir (w.name ^ ".tc");
                 }
               in
               if warm then begin
                 (* a fresh file: compile_tcache adds to an existing one *)
                 remove g.tc;
                 match
                   Serve.compile_tcache ~workload:w ~path:g.tc ~scale:1 ()
                 with
                 | [] -> ()
                 | d :: _ ->
                   op rep (Some (w.name ^ ": " ^ Ia32el.Bt_error.to_string d))
               end;
               (g, ref_outcome g))
             guests))
  in
  let gs = Array.to_list (Array.map fst expect) in
  let walls = Hashtbl.create 32 in
  let traced_walls = ref [] and untraced_walls = ref [] in
  let last_untraced = ref 0. in
  let vcycles = ref None in
  let hits = ref 0 and misses = ref 0 in
  let rng = Random.State.make [| ctx.seed |] in
  let order = ref expect in
  let pass traced =
    let cycles = ref 0 and wall = ref 0. in
    Array.iter
      (fun (g, ex) ->
        let t0 = now () in
        let ((_, r, session) as res) = run_guest ~warm g in
        let dt = now () -. t0 in
        op rep (check_guest g ex res);
        cycles := !cycles + r.I.cycles;
        (match session with
        | Some se when traced ->
          let s = Persist.stats se in
          hits := !hits + s.Persist.hits;
          misses := !misses + s.Persist.misses
        | _ -> ());
        if not traced then begin
          wall := !wall +. dt;
          Hashtbl.replace walls g.w.name
            (dt :: Option.value ~default:[] (Hashtbl.find_opt walls g.w.name))
        end)
      !order;
    (match !vcycles with
    | None -> vcycles := Some !cycles
    | Some c ->
      if c <> !cycles then
        op rep
          (Some
             (Printf.sprintf "virtual cycles per pass moved: %d, then %d" c
                !cycles)));
    !wall
  in
  Span.reset ();
  let n = count ctx ~per_s:(1. /. 2.4) ~min:(if ctx.traced then 2 else 1) in
  repeat ctx n (fun k ->
      if ctx.traced && k mod 2 = 1 then begin
        let _, w = traced_op (fun () -> pass true) in
        traced_walls := w :: !traced_walls;
        untraced_walls := !last_untraced :: !untraced_walls
      end
      else begin
        order := shuffle rng expect;
        last_untraced := pass false
      end);
  let med g = median (Hashtbl.find walls g.w.name) in
  let run_s = sum (List.map med gs) in
  set rep "run_s" "s" run_s;
  set rep "ops_per_s" "1/s" (float_of_int (List.length gs) /. run_s);
  let all = Hashtbl.fold (fun _ l acc -> List.rev_append l acc) walls [] in
  set_latencies rep (List.map (fun s -> 1e3 *. s) all);
  List.iter (fun g -> set rep ("guest." ^ g.w.name ^ ".run_ms") "ms" (1e3 *. med g)) gs;
  set rep "vcycles" "cycles" (float_of_int (Option.value ~default:0 !vcycles));
  if ctx.traced then begin
    record_layers rep ~traced_walls:!traced_walls ~untraced_walls:!untraced_walls;
    let ops = float_of_int (List.length !traced_walls) in
    set rep "persist.hits" "count" (float_of_int !hits /. ops);
    set rep "persist.misses" "count" (float_of_int !misses /. ops)
  end;
  not_applicable rep [ "serve."; "journal." ]

(* ---- serve-echo ------------------------------------------------------ *)

let payload_len = 256
let workers = 2

(* Printable seeded bytes of one fixed length: every request drives the
   same translation stream, so the shared tcache covers all of them. *)
let payload rng =
  String.init payload_len (fun _ -> Char.chr (32 + Random.State.int rng 95))

let check_response payload (r : Serve.response) =
  match (r.Serve.rejected, r.Serve.result) with
  | Some e, _ -> Some ("rejected: " ^ Ia32el.Bt_error.to_string e)
  | None, None -> Some "no result"
  | None, Some x ->
    if x.Serve.r_exit <> Some 0 then Some ("guest stopped " ^ x.Serve.r_stop)
    else if x.Serve.r_response <> Workloads.Serve_echo.expected_response payload
    then Some "response differs from the host model"
    else if x.Serve.r_tc_misses > 0 then
      Some
        (Printf.sprintf "%d live translations despite the shared tcache"
           x.Serve.r_tc_misses)
    else None

(* In-process replica of Serve.exec_job's public calls, each a span,
   plus the marshalling a forked worker's reply goes through. *)
let replica_job (p : Serve.pool) ~image ~store payload =
  let t0 = now () in
  let inst =
    Span.with_ Span.Instance_build (fun () ->
        I.create ~config:p.Serve.config ~btlib:(Hooks.btlib ()) image)
  in
  let session =
    Span.with_ Span.Persist_install (fun () ->
        Persist.attach ~readonly:p.Serve.tcache_readonly store inst.I.eng)
  in
  if !Span.on then Hooks.attach inst.I.eng;
  let r = Span.with_ Span.Engine (fun () -> I.run ~request:payload inst) in
  (* the host timers would add a section to the metrics JSON *)
  inst.I.eng.E.timers <- None;
  let metrics =
    Span.with_ Span.Metrics_json (fun () ->
        Obs.Metrics.to_string (I.metrics inst))
  in
  let s = Persist.stats session in
  let res =
    {
      Serve.r_stop = I.stop_to_string r.I.stop;
      r_exit = (match r.I.stop with I.Exited c -> Some c | _ -> None);
      r_output = r.I.output;
      r_response = r.I.response;
      r_metrics = metrics;
      r_cycles = r.I.cycles;
      r_tc_hits = s.Persist.hits;
      r_tc_misses = s.Persist.misses;
      r_worker = 0;
      r_service_us = (now () -. t0) *. 1e6;
    }
  in
  Span.with_ Span.Marshal (fun () ->
      snd
        (Marshal.from_string (Marshal.to_string (0, res) []) 0
          : int * Serve.result))

(* Everything but the worker slot and the host service time. *)
let same_result (a : Serve.result) (b : Serve.result) =
  let strip (r : Serve.result) = { r with Serve.r_worker = 0; r_service_us = 0. } in
  strip a = strip b

let svc_ms rs =
  List.filter_map
    (fun r -> Option.map (fun x -> x.Serve.r_service_us /. 1e3) r.Serve.result)
    rs

let serve_echo ctx rep =
  let rng = Random.State.make [| ctx.seed |] in
  let tc = Filename.concat ctx.dir "serve-echo.tc" in
  let batch_n = if ctx.smoke then 8 else 400 in
  let jobs ps = List.map (fun payload -> { Serve.payload; max_cycles = None }) ps in
  let pool =
    timed_setup ctx rep (fun () ->
        remove tc;
        (match Serve.compile_tcache ~path:tc ~scale:1 ~payload:(payload rng) () with
        | [] -> ()
        | d :: _ -> op rep (Some ("serve tcache: " ^ Ia32el.Bt_error.to_string d)));
        let pool =
          Serve.pool ~backend:Serve.Forked ~workers ~queue:256 ~tcache:tc ()
        in
        (* first requests after a fork pay copy-on-write faults *)
        ignore (Serve.run_batch pool (jobs (List.init 200 (fun _ -> payload rng))));
        pool)
  in
  let image =
    Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1 ~wide:false
  in
  let store () =
    fst (Persist.load ~path:tc ~image_hash:(Persist.image_hash image) ~config_fp)
  in
  (* the replica must answer byte for byte like the pool *)
  (let p = payload rng in
   let inline = Serve.pool ~backend:Serve.Inline ~tcache:tc () in
   let b = Serve.run_batch inline (jobs [ p ]) in
   let y = replica_job pool ~image ~store:(store ()) p in
   op rep
     (match (List.hd b.Serve.responses).Serve.result with
     | Some x when same_result x y -> None
     | _ -> Some "serve replica differs from the Inline backend"));
  let share_closed, share_r50, share_r150 =
    if ctx.traced then (0.25, 0.30, 0.15) else (0.35, 0.40, 0.25)
  in
  (* closed loop: saturation throughput over several pool lifetimes *)
  let batch_walls = ref [] and svc = ref [] in
  let warmup = ref [] in
  repeat ctx (count ctx ~per_s:(share_closed /. 1.5) ~min:1) (fun _ ->
      let ps = List.init batch_n (fun _ -> payload rng) in
      (* workers inherit the parent heap: keep the benchmark's own
         garbage out of their copy-on-write faults and GC work *)
      Gc.compact ();
      let b = Serve.run_batch pool (jobs ps) in
      List.iter2 (fun p r -> op rep (check_response p r)) ps b.Serve.responses;
      let s = svc_ms b.Serve.responses in
      let served = List.length s in
      batch_walls := b.Serve.wall_s :: !batch_walls;
      svc := s @ !svc;
      let head = min 50 (served / 4) in
      warmup :=
        (mean (List.filteri (fun i _ -> i < head) s)
        /. mean (List.filteri (fun i _ -> i >= head) s))
        :: !warmup);
  let run_s = median !batch_walls in
  set rep "run_s" "s" run_s;
  set rep "ops_per_s" "1/s" (float_of_int batch_n /. run_s);
  set rep "serve.svc_ms.p50" "ms" (median !svc);
  set rep "serve.warmup_ratio" "ratio" (median !warmup);
  (* open loop at two fixed rates, each split over several pool
     lifetimes; a percentile is the median of the segments' *)
  let open_loop rate share =
    let segments = if ctx.smoke then 1 else 4 in
    let n = count ctx ~per_s:(rate *. share /. float_of_int segments) ~min:8 in
    List.init segments (fun _ ->
        let p = payload rng in
        Gc.compact ();
        let l, rs = Serve.run_open_loop pool ~rate_hz:rate ~n ~payload:p () in
        List.iter (fun r -> op rep (check_response p r)) rs;
        (l, median (svc_ms rs)))
  in
  let seg f segments = median (List.map f segments) in
  let r50 = open_loop 50. share_r50 in
  set rep "lat_p50_ms" "ms" (seg (fun (l, _) -> l.Serve.lat_p50_ms) r50);
  set rep "lat_p95_ms" "ms" (seg (fun (l, _) -> l.Serve.lat_p95_ms) r50);
  set rep "lat_p99_ms" "ms" (seg (fun (l, _) -> l.Serve.lat_p99_ms) r50);
  set rep "lat_samples" "count"
    (float_of_int (List.fold_left (fun a (l, _) -> a + l.Serve.served) 0 r50));
  set rep "serve.queue_ipc_ms.r50" "ms"
    (seg (fun (l, s) -> l.Serve.lat_p50_ms -. s) r50);
  let r150 = open_loop 150. share_r150 in
  set rep "serve.lat_p50_ms.r150" "ms" (seg (fun (l, _) -> l.Serve.lat_p50_ms) r150);
  set rep "serve.lat_p95_ms.r150" "ms" (seg (fun (l, _) -> l.Serve.lat_p95_ms) r150);
  set rep "serve.lat_p99_ms.r150" "ms" (seg (fun (l, _) -> l.Serve.lat_p99_ms) r150);
  (* traced: the in-process replica, alternating untraced and traced *)
  if ctx.traced then begin
    let store = store () in
    let traced_walls = ref [] and untraced_walls = ref [] in
    let hits = ref 0 and misses = ref 0 and cycles = ref 0 in
    Span.reset ();
    repeat ctx (count ctx ~per_s:(0.30 /. 0.02) ~min:2) (fun _ ->
        let p = payload rng in
        let t0 = now () in
        let x = replica_job pool ~image ~store p in
        untraced_walls := (now () -. t0) :: !untraced_walls;
        let y, w = traced_op (fun () -> replica_job pool ~image ~store p) in
        traced_walls := w :: !traced_walls;
        let resp = { Serve.rejected = None; result = Some y } in
        op rep
          (match check_response p resp with
          | Some _ as e -> e
          | None when not (same_result x y) ->
            Some "tracing changed a served result"
          | None -> None);
        hits := !hits + y.Serve.r_tc_hits;
        misses := !misses + y.Serve.r_tc_misses;
        cycles := y.Serve.r_cycles);
    record_layers rep ~traced_walls:!traced_walls ~untraced_walls:!untraced_walls;
    let ops = float_of_int (List.length !traced_walls) in
    let inproc = 1e3 *. median !untraced_walls in
    set rep "serve.svc_ms.inproc" "ms" inproc;
    set rep "serve.fork_penalty_ms" "ms" (median !svc -. inproc);
    set rep "persist.hits" "count" (float_of_int !hits /. ops);
    set rep "persist.misses" "count" (float_of_int !misses /. ops);
    set rep "vcycles" "cycles" (float_of_int !cycles)
  end;
  not_applicable rep [ "guest."; "journal." ]

(* ---- fuzz-forkserver ------------------------------------------------- *)

(* In-process replica of Fuzz.server_start/server_run's public calls, so
   the lockstep session can carry the span hooks. *)
let replica_pages s =
  E.pages_restored (L.engine s) + Ia32.Memory.Journal.pages_restored (L.reference_mem s)

let replica_start prog =
  let image = F.build_image prog in
  let mem = Ia32.Memory.create () in
  let st0 = Ia32.Asm.load ~writable_code:true image mem in
  let attach e =
    Hooks.attach e;
    (* runs just before the reference side handles each commit *)
    e.E.on_commit <- Some (fun _ _ -> Span.enter_pending Span.Lockstep_ref)
  in
  L.create ~attach ~btlib:Hooks.traced_linux mem st0

let fuel = 12_000_000

let classify (report : L.report) =
  match report.L.divergence with
  | Some d -> F.R_diverged d
  | None -> (
    match report.L.outcome with
    | Some (E.Exited (code, _)) ->
      F.R_ok { commits = report.L.commits; exit_code = code }
    | Some (E.Unhandled_fault (f, _)) -> F.R_halted f
    | Some E.Out_of_fuel | None -> F.R_fuel)

(* Returns the result and the input's virtual cycles. *)
let replica_run s muts =
  let e = L.engine s in
  let rmem = L.reference_mem s and rvos = L.reference_vos s in
  Hooks.reference_vos := Some rvos;
  let ck =
    Span.with_ Span.Snapshot (fun () ->
        ignore (E.snapshot ~barrier:false e);
        Ia32.Memory.Journal.push rmem;
        Btlib.Vos.checkpoint rvos)
  in
  List.iter
    (fun (off, v) ->
      let a = F.scratch_base + (off mod F.mutation_span) in
      Ia32.Memory.write8 e.E.mem a (v land 0xFF);
      Ia32.Memory.write8 rmem a (v land 0xFF))
    muts;
  let c0 = E.clock e in
  let result =
    Span.with_ Span.Engine (fun () ->
        match L.run_in ~fuel s with
        | report -> classify report
        | exception ex -> F.R_crash (Printexc.to_string ex))
  in
  let cycles = E.clock e - c0 in
  Span.with_ Span.Revert (fun () ->
      e.E.running_block <- None;
      e.E.smc_pending <- [];
      ignore (E.revert e);
      ignore (Ia32.Memory.Journal.revert rmem);
      Btlib.Vos.restore rvos ck);
  (result, cycles)

let result_key = function
  | F.R_ok { commits; exit_code } -> Printf.sprintf "ok %d %d" commits exit_code
  | F.R_halted f -> "halted " ^ Ia32.Fault.to_string f
  | F.R_fuel -> "fuel"
  | F.R_diverged d -> Printf.sprintf "diverged %d" d.L.commit_index
  | F.R_crash s -> "crash " ^ s

let check_input = function
  | (F.R_diverged _ | F.R_crash _) as r -> Some ("fuzz input " ^ result_key r)
  | _ -> None

(* A fixed corpus: the generator's first programs. The seed draws the
   mutated inputs, so runs with different seeds execute the same code
   mix; which programs the seed would draw moves throughput by 2x. *)
let corpus n = List.init n (fun k -> F.generate ~rng:(F.Rng.create k) ~max_insns:32 k)

let mutation rng =
  List.init
    (1 + F.Rng.int rng 48)
    (fun _ -> (F.Rng.int rng F.mutation_span, F.Rng.int rng 256))

(* Each base program gets its own fork server for its share of the
   inputs, as a fuzzing campaign rotates through a corpus. A server's
   translation cache only grows (reverted blocks are retranslated into
   fresh bundles), so no server outlives its base. *)
let fuzz_forkserver ctx rep =
  let bases = if ctx.smoke then 2 else 64 in
  let per_base = count ctx ~per_s:(if ctx.traced then 2.5 else 5.) ~min:4 in
  let progs =
    timed_setup ctx rep (fun () ->
        (* dry-run the corpus: every base input must run clean *)
        List.map
          (fun p ->
            op rep (check_input (F.server_run (F.server_start ~fuel p) []));
            p)
          (corpus bases))
  in
  (* the replica must match server_run input for input *)
  (if not ctx.traced then
     let p = List.hd progs in
     let srv = F.server_start ~fuel p and r = replica_start p in
     let rng = F.Rng.create (0xC0DE + ctx.seed) in
     let same = ref true in
     for _ = 0 to 16 do
       let m = mutation rng in
       if result_key (F.server_run srv m) <> result_key (fst (replica_run r m))
       then same := false
     done;
     if not (!same && replica_pages r = F.server_pages_restored srv) then
       op rep (Some "fuzz replica differs from Fuzz.server_run"));
  let rng = F.Rng.create (0x5EED + ctx.seed) in
  let walls = ref [] and inputs = ref [] in
  let traced_walls = ref [] and untraced_walls = ref [] in
  let cycles = ref 0 and pages = ref 0 in
  Span.reset ();
  let progs = Array.of_list progs in
  repeat ctx bases (fun b ->
        let p = progs.(b) in
        let t0 = now () in
        let srv = F.server_start ~fuel p in
        let wall = ref (now () -. t0) in
        let replica = if ctx.traced then Some (replica_start p) else None in
        for i = 0 to per_base do
          let m = if i = 0 then [] else mutation rng in
          let t0 = now () in
          let res = F.server_run srv m in
          let dt = now () -. t0 in
          op rep (check_input res);
          wall := !wall +. dt;
          inputs := (1e3 *. dt) :: !inputs;
          match replica with
          | None -> ()
          | Some r ->
            let p0 = replica_pages r in
            let (res', c), w = traced_op (fun () -> replica_run r m) in
            traced_walls := w :: !traced_walls;
            untraced_walls := dt :: !untraced_walls;
            cycles := !cycles + c;
            pages := !pages + replica_pages r - p0;
            if result_key res' <> result_key res then
              op rep (Some "fuzz replica result differs from server_run")
        done;
        (match replica with
        | Some r when replica_pages r <> F.server_pages_restored srv ->
          op rep (Some "fuzz replica restored other pages than server_run")
        | _ -> ());
        walls := !wall :: !walls);
  set rep "run_s" "s" (sum !walls);
  set rep "ops_per_s" "1/s" (float_of_int (List.length !inputs) /. sum !walls);
  set_latencies rep !inputs;
  if ctx.traced then begin
    record_layers rep ~traced_walls:!traced_walls ~untraced_walls:!untraced_walls;
    let ops = float_of_int (List.length !traced_walls) in
    set rep "vcycles" "cycles" (float_of_int !cycles /. ops);
    set rep "journal.pages_restored" "count" (float_of_int !pages /. ops)
  end;
  not_applicable rep [ "guest."; "serve."; "persist.hits"; "persist.misses" ]

(* ---- driver ---------------------------------------------------------- *)

let workloads =
  [
    ("suite-cold", suite ~warm:false);
    ("suite-warm", suite ~warm:true);
    ("serve-echo", serve_echo);
    ("fuzz-forkserver", fuzz_forkserver);
  ]

let run ctx name =
  let rep =
    { attempted = 0; failed = 0; problems = []; metrics = Hashtbl.create 128 }
  in
  if ctx.traced then Span.enable ~capacity:(if ctx.smoke then 20_000 else 300_000);
  (List.assoc name workloads) ctx rep;
  set rep "error_rate" "frac"
    (float_of_int rep.failed /. float_of_int (max 1 rep.attempted));
  rep

let metric_json rep (name, unit) =
  let v = match Hashtbl.find_opt rep.metrics name with Some (v, _) -> v | None -> 0. in
  ( name,
    Obs.Metrics.Obj [ ("value", Obs.Metrics.Float v); ("unit", Obs.Metrics.Str unit) ] )

let finite rep (name, _) =
  match Hashtbl.find_opt rep.metrics name with
  | Some (v, _) -> Float.is_finite v
  | None -> false

let result_json rep names =
  let correct = rep.failed = 0 && List.for_all (finite rep) names in
  Obs.Metrics.json_to_string ~pretty:false
    (Obs.Metrics.Obj
       [
         ("correct", Obs.Metrics.Bool correct);
         ("attempted", Obs.Metrics.Int rep.attempted);
         ("failed", Obs.Metrics.Int rep.failed);
         ("metrics", Obs.Metrics.Obj (List.map (metric_json rep) names));
       ])

(* Human-readable summary on stderr: every metric the run measured. *)
let summary name rep =
  Printf.eprintf "%s: %d ops, %d failed\n" name rep.attempted rep.failed;
  List.iter (Printf.eprintf "  FAIL %s\n") (List.rev rep.problems);
  List.iter
    (fun (n, u) ->
      match Hashtbl.find_opt rep.metrics n with
      | Some (v, _) -> Printf.eprintf "  %-32s %14.6g %s\n" n v u
      | None -> ())
    (end_to_end @ per_layer)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed S [--seconds N] [--trace 0|1 | \
     --traced] [--out FILE]\n\
    \       main.exe --smoke";
  exit 2

let scratch_dir () =
  let d = ".bench-e2e" in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat d (string_of_int (Unix.getpid ())) in
  Unix.mkdir d 0o755;
  at_exit (fun () ->
      Array.iter (fun f -> remove (Filename.concat d f)) (Sys.readdir d);
      try Unix.rmdir d with Unix.Unix_error _ -> ());
  d

(* Metric names and units BENCHMARK.json promises, by section. *)
let promised path section =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Metrics.parse s with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> (
    match Obs.Metrics.member section j with
    | Some (Obs.Metrics.List l) ->
      List.map
        (fun m ->
          match (Obs.Metrics.member "name" m, Obs.Metrics.member "unit" m) with
          | Some (Obs.Metrics.Str n), Some (Obs.Metrics.Str u) -> (n, u)
          | _ -> failwith (path ^ ": bad metric entry"))
        l
    | _ -> failwith (path ^ ": no " ^ section))

(* Tiny fixed work per workload, traced (which also runs untraced ops):
   every metric BENCHMARK.json names is emitted, finite and in its unit,
   no operation fails, and the layers account for the traced wall time. *)
let smoke benchmark =
  let dir = scratch_dir () in
  let e2e = promised benchmark "end_to_end" in
  let layers = promised benchmark "per_layer" in
  let ok = ref (e2e = end_to_end && layers = per_layer) in
  if not !ok then prerr_endline "smoke: BENCHMARK.json metrics differ from the code's";
  List.iter
    (fun (name, _) ->
      let t0 = now () in
      Span.reset ();
      let ctx = { seed = 1; seconds = 0.; traced = true; smoke = true; dir } in
      let rep = run ctx name in
      let bad = List.filter (fun m -> not (finite rep m)) (e2e @ layers) in
      let get n = fst (Hashtbl.find rep.metrics n) in
      let unattributed = get "unattributed_ms" /. get "traced.wall_ms" in
      Printf.eprintf "smoke %s: %.1f s, %d ops, %d failed, unattributed %.1f%%\n%!"
        name (now () -. t0) rep.attempted rep.failed (100. *. unattributed);
      List.iter (fun (n, _) -> Printf.eprintf "  missing or not finite: %s\n" n) bad;
      List.iter (Printf.eprintf "  FAIL %s\n") (List.rev rep.problems);
      if bad <> [] || rep.failed > 0 || rep.attempted = 0 || unattributed > 0.10
      then ok := false)
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let traced = ref false and out = ref None in
  let smoke_only = ref false in
  let rec parse = function
    | "--workload" :: w :: r -> workload := Some w; parse r
    | "--seed" :: s :: r -> seed := int_of_string s; parse r
    | "--seconds" :: s :: r -> seconds := float_of_string s; parse r
    | "--trace" :: t :: r -> traced := t = "1"; parse r
    | "--traced" :: r -> traced := true; parse r
    | "--out" :: f :: r -> out := Some f; parse r
    | "--smoke" :: r -> smoke_only := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!smoke_only, !workload) with
  | true, _ -> smoke "BENCHMARK.json"
  | false, Some name when List.mem_assoc name workloads ->
    let ctx =
      {
        seed = !seed;
        seconds = !seconds;
        traced = !traced;
        smoke = false;
        dir = scratch_dir ();
      }
    in
    let rep = run ctx name in
    summary name rep;
    let names = if ctx.traced then per_layer else end_to_end in
    if ctx.traced then
      Span.write
        (match !out with
        | Some f -> f ^ ".spans.jsonl"
        | None -> Filename.concat ".bench-e2e" (name ^ ".spans.jsonl"));
    (match !out with
    | Some f ->
      let oc = open_out f in
      output_string oc (result_json rep (end_to_end @ per_layer));
      output_char oc '\n';
      close_out oc
    | None -> ());
    print_endline (result_json rep names)
  | _ -> usage ()
