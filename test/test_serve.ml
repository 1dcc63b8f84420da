(* Serving-layer tests (DESIGN.md §16):

   - the serve-echo guest end-to-end over the Vos request/response
     channel (response correctness, no-request / short-recv exits);
   - per-instance isolation: memories evolve generation streams
     independently, arenas don't leak across Vos instances;
   - standalone vs served determinism: a guest run alone and the same
     guest run inside a multi-worker batch yield bit-identical
     observables (metrics JSON, exit code, output, response) under both
     first phases;
   - sessions: a worker builds one instance and rewinds it after every
     request, so a mixed batch (payload sizes, a blown budget) served in
     either order, with or without a shared tcache, on inline or forked
     workers, equals request by request its standalone run;
   - admission control (bounded-queue rejection) and per-request budget
     exhaustion;
   - shared read-only AOT tcache: a warm batch retranslates nothing. *)

let payload = "GET /index.html HTTP/1.0\r\nHost: ia32el\r\n\r\n"

let run_echo ?(config = Ia32el.Config.default) ?request ?max_cycles ~scale () =
  let image = Workloads.Serve_echo.workload.Workloads.Common.build ~scale ~wide:false in
  let inst = Ia32el.Instance.create ~config image in
  Ia32el.Instance.run ?request ?max_cycles inst

(* ---- serve-echo guest ------------------------------------------------ *)

let test_echo_response () =
  let r = run_echo ~request:payload ~scale:1 () in
  (match r.Ia32el.Instance.stop with
  | Ia32el.Instance.Exited 0 -> ()
  | s -> Alcotest.failf "stop: %s" (Ia32el.Instance.stop_to_string s));
  Alcotest.(check string)
    "response = xor+checksum model"
    (Workloads.Serve_echo.expected_response payload)
    r.Ia32el.Instance.response

let test_echo_empty_payload () =
  let r = run_echo ~request:"" ~scale:1 () in
  (match r.Ia32el.Instance.stop with
  | Ia32el.Instance.Exited 0 -> ()
  | s -> Alcotest.failf "stop: %s" (Ia32el.Instance.stop_to_string s));
  Alcotest.(check string)
    "empty request -> bare checksum"
    (Workloads.Serve_echo.expected_response "")
    r.Ia32el.Instance.response

let test_echo_no_request () =
  (* no bind_request: accept fails with EAGAIN, guest exits 2 *)
  let r = run_echo ~scale:1 () in
  match r.Ia32el.Instance.stop with
  | Ia32el.Instance.Exited 2 -> ()
  | s -> Alcotest.failf "stop: %s" (Ia32el.Instance.stop_to_string s)

let test_echo_truncates () =
  let big = String.make (Workloads.Serve_echo.buf_cap + 500) 'x' in
  let r = run_echo ~request:big ~scale:1 () in
  (match r.Ia32el.Instance.stop with
  | Ia32el.Instance.Exited 0 -> ()
  | s -> Alcotest.failf "stop: %s" (Ia32el.Instance.stop_to_string s));
  Alcotest.(check string)
    "guest truncates to buf_cap"
    (Workloads.Serve_echo.expected_response big)
    r.Ia32el.Instance.response

(* ---- per-instance isolation ----------------------------------------- *)

let test_memory_generations_independent () =
  let m1 = Ia32.Memory.create () and m2 = Ia32.Memory.create () in
  Ia32.Memory.map m1 ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
  Ia32.Memory.map m2 ~addr:0x1000 ~len:0x1000 ~prot:Ia32.Memory.prot_rw;
  let g2_before = Ia32.Memory.page_gen m2 0x1000 in
  for i = 0 to 99 do
    Ia32.Memory.write8 m1 (0x1000 + i) (i land 0xFF)
  done;
  Alcotest.(check int)
    "m2 generation untouched by 100 writes to m1" g2_before
    (Ia32.Memory.page_gen m2 0x1000);
  Ia32.Memory.write8 m2 0x1000 1;
  Alcotest.(check bool)
    "m2 bumps by exactly one step"
    true
    (Ia32.Memory.page_gen m2 0x1000 = g2_before + 1)

let test_arena_per_instance () =
  let mk () = Btlib.Vos.create (Ia32.Memory.create ()) in
  let v1 = mk () and v2 = mk () in
  let a1 = Btlib.Linuxsim.alloc_region v1 ~len:100 in
  let a1' = Btlib.Linuxsim.alloc_region v1 ~len:100 in
  let a2 = Btlib.Linuxsim.alloc_region v2 ~len:100 in
  Alcotest.(check bool) "second alloc advances" true (a1' > a1);
  Alcotest.(check int) "fresh instance restarts at the base" a1 a2;
  let w1 = mk () and w2 = mk () in
  let b1 = Btlib.Winsim.alloc_region w1 ~len:1 in
  ignore (Btlib.Winsim.alloc_region w1 ~len:1);
  let b2 = Btlib.Winsim.alloc_region w2 ~len:1 in
  Alcotest.(check int) "winsim arena is per-instance too" b1 b2

(* ---- standalone vs served determinism -------------------------------- *)

let config_matrix =
  [
    ("default", Ia32el.Config.default);
    ( "interpret-first",
      {
        Ia32el.Config.default with
        Ia32el.Config.first_phase = Ia32el.Config.Interpret_first;
      } );
  ]

let observables ?config ~request () =
  let image = Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1 ~wide:false in
  let inst = Ia32el.Instance.create ?config image in
  let r = Ia32el.Instance.run ~request inst in
  let m = Obs.Metrics.to_string (Ia32el.Instance.metrics inst) in
  (r.Ia32el.Instance.stop, r.Ia32el.Instance.output, r.Ia32el.Instance.response, m)

let test_standalone_vs_served_inline () =
  List.iter
    (fun (cname, config) ->
      let stop0, out0, resp0, m0 = observables ~config ~request:payload () in
      (* a 6-request batch on the inline backend, 3 distinct payloads *)
      let reqs = [ payload; ""; payload; "abc"; payload; "abc" ] in
      let jobs =
        List.map (fun p -> { Serve.payload = p; max_cycles = None }) reqs
      in
      let batch =
        Serve.run_batch
          (Serve.pool ~backend:Serve.Inline ~workers:1 ~queue:10
             ~config ())
          jobs
      in
      List.iteri
        (fun i (req, res) ->
          if req = payload then begin
            let r = Option.get res.Serve.result in
            Alcotest.(check string)
              (Printf.sprintf "%s: served output %d = standalone" cname i)
              out0 r.Serve.r_output;
            Alcotest.(check string)
              (Printf.sprintf "%s: served response %d = standalone" cname i)
              resp0 r.Serve.r_response;
            Alcotest.(check string)
              (Printf.sprintf "%s: served metrics %d bit-identical" cname i)
              m0 r.Serve.r_metrics;
            Alcotest.(check string)
              (Printf.sprintf "%s: served stop %d = standalone" cname i)
              (Ia32el.Instance.stop_to_string stop0)
              r.Serve.r_stop
          end)
        (List.combine reqs batch.Serve.responses))
    config_matrix

let test_standalone_vs_served_forked () =
  (* the real thing: 4 forked workers, every response must match the
     standalone run bit-for-bit — metrics JSON included *)
  let config = Ia32el.Config.default in
  let _, out0, resp0, m0 = observables ~config ~request:payload () in
  let jobs =
    List.init 8 (fun _ -> { Serve.payload; max_cycles = None })
  in
  let batch =
    Serve.run_batch
      (Serve.pool ~backend:Serve.Forked ~workers:4 ~queue:8 ~config ())
      jobs
  in
  Alcotest.(check int) "all 8 served" 8
    (List.length
       (List.filter (fun r -> r.Serve.result <> None) batch.Serve.responses));
  List.iteri
    (fun i res ->
      let r = Option.get res.Serve.result in
      Alcotest.(check string)
        (Printf.sprintf "fork: output %d" i)
        out0 r.Serve.r_output;
      Alcotest.(check string)
        (Printf.sprintf "fork: response %d" i)
        resp0 r.Serve.r_response;
      Alcotest.(check string)
        (Printf.sprintf "fork: metrics %d bit-identical" i)
        m0 r.Serve.r_metrics)
    batch.Serve.responses;
  Alcotest.(check bool) "workers actually forked" true
    (List.length (List.sort_uniq compare
       (List.filter_map (fun r -> Option.map (fun x -> x.Serve.r_worker) r.Serve.result)
          batch.Serve.responses)) > 1)

(* ---- sessions: rewound instances ----------------------------------- *)

let payload_of_len n = String.init n (fun i -> Char.chr (32 + (i * 7 mod 95)))

(* A budget a scale-1 request blows well before it answers. *)
let small_budget = 2_000

let mixed_jobs =
  [
    { Serve.payload = payload_of_len 256; max_cycles = None };
    { Serve.payload = ""; max_cycles = None };
    { Serve.payload = payload_of_len 256; max_cycles = Some small_budget };
    { Serve.payload = payload_of_len 17; max_cycles = None };
    { Serve.payload = payload_of_len 5000; max_cycles = None };
  ]

let with_tcache_dir f =
  let dir = Filename.temp_file "ia32el_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* The request on a fresh instance, the store (if any) attached to it
   alone: what a worker served it with before sessions. *)
let standalone ~config ?tcache (j : Serve.job) =
  let image =
    Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1 ~wide:false
  in
  let inst = Ia32el.Instance.create ~config image in
  let se =
    Option.map
      (fun path ->
        let store, _ =
          Persist.load ~path ~image_hash:(Persist.image_hash image)
            ~config_fp:(Persist.config_fingerprint config)
        in
        Persist.attach ~readonly:true store inst.Ia32el.Instance.eng)
      tcache
  in
  let r =
    Ia32el.Instance.run ?max_cycles:j.Serve.max_cycles ~request:j.Serve.payload
      inst
  in
  let hits, misses =
    match se with
    | None -> (0, 0)
    | Some se ->
      let s = Persist.stats se in
      (s.Persist.hits, s.Persist.misses)
  in
  ( Ia32el.Instance.stop_to_string r.Ia32el.Instance.stop,
    r.Ia32el.Instance.output,
    r.Ia32el.Instance.response,
    Obs.Metrics.to_string (Ia32el.Instance.metrics inst),
    r.Ia32el.Instance.cycles,
    (hits, misses) )

let test_session_order_independent () =
  with_tcache_dir (fun dir ->
      List.iter
        (fun (cname, config) ->
          let tc = Filename.concat dir (cname ^ ".tc") in
          Alcotest.(check int) (cname ^ ": tcache saved clean") 0
            (List.length
               (Serve.compile_tcache ~config ~path:tc ~scale:1
                  ~payload:(payload_of_len 256) ()));
          List.iter
            (fun tcache ->
              let want = List.map (standalone ~config ?tcache) mixed_jobs in
              List.iter
                (fun (oname, reversed) ->
                  let order l = if reversed then List.rev l else l in
                  let jobs = order mixed_jobs and want = order want in
                  List.iter
                    (fun backend ->
                      let tag =
                        Printf.sprintf "%s, %s tcache, %s order, %s" cname
                          (if tcache = None then "no" else "a")
                          oname (Serve.backend_name backend)
                      in
                      let p =
                        Serve.pool ~backend ~workers:2 ~queue:8 ~config ?tcache ()
                      in
                      let b = Serve.run_batch p jobs in
                      Alcotest.(check int) (tag ^ ": one instance per worker") 2
                        b.Serve.instances;
                      List.iteri
                        (fun i ((stop, out, resp, m, cycles, tc), r) ->
                          let r =
                            match r.Serve.result with
                            | Some r -> r
                            | None -> Alcotest.failf "%s: request %d rejected" tag i
                          in
                          let field what =
                            Printf.sprintf "%s: request %d %s" tag i what
                          in
                          Alcotest.(check string) (field "stop") stop r.Serve.r_stop;
                          Alcotest.(check string) (field "output") out r.Serve.r_output;
                          Alcotest.(check string) (field "response") resp
                            r.Serve.r_response;
                          Alcotest.(check string) (field "metrics JSON") m
                            r.Serve.r_metrics;
                          Alcotest.(check int) (field "cycles") cycles r.Serve.r_cycles;
                          Alcotest.(check (pair int int)) (field "tc hits/misses") tc
                            (r.Serve.r_tc_hits, r.Serve.r_tc_misses))
                        (List.combine want b.Serve.responses))
                    [ Serve.Inline; Serve.Forked ])
                [ ("submission", false); ("reversed", true) ])
            [ None; Some tc ])
        config_matrix)

(* The watchdog is armed per run: a request after a blown budget on the
   same session runs to completion, as it would on a fresh instance. *)
let test_budget_then_unbudgeted () =
  let config = Ia32el.Config.default in
  let image =
    Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1 ~wide:false
  in
  let se = Ia32el.Instance.session (Ia32el.Instance.create ~config image) in
  let inst = Ia32el.Instance.instance se in
  let blown = Ia32el.Instance.run ~max_cycles:small_budget ~request:payload inst in
  Alcotest.(check string) "the budget is blown" "budget_exhausted"
    (Ia32el.Instance.stop_to_string blown.Ia32el.Instance.stop);
  Ia32el.Instance.rewind se;
  let r = Ia32el.Instance.run ~request:payload inst in
  let m = Obs.Metrics.to_string (Ia32el.Instance.metrics inst) in
  let stop, out, resp, m0, cycles, _ =
    standalone ~config { Serve.payload; max_cycles = None }
  in
  Alcotest.(check string) "unbudgeted run exits" stop
    (Ia32el.Instance.stop_to_string r.Ia32el.Instance.stop);
  Alcotest.(check string) "output" out r.Ia32el.Instance.output;
  Alcotest.(check string) "response" resp r.Ia32el.Instance.response;
  Alcotest.(check int) "cycles" cycles r.Ia32el.Instance.cycles;
  Alcotest.(check string) "metrics JSON" m0 m;
  (* and through the pool: one inline worker serves both *)
  let p = Serve.pool ~backend:Serve.Inline ~workers:1 ~queue:4 ~config () in
  let b =
    Serve.run_batch p
      [
        { Serve.payload; max_cycles = Some small_budget };
        { Serve.payload; max_cycles = None };
      ]
  in
  match b.Serve.responses with
  | [ { Serve.result = Some r1; _ }; { Serve.result = Some r2; _ } ] ->
    Alcotest.(check string) "pool: first blown" "budget_exhausted" r1.Serve.r_stop;
    Alcotest.(check string) "pool: second exits" stop r2.Serve.r_stop;
    Alcotest.(check string) "pool: second metrics" m0 r2.Serve.r_metrics;
    Alcotest.(check int) "pool: one instance" 1 b.Serve.instances
  | _ -> Alcotest.fail "expected two served responses"

(* Guests that spawn threads, self-modify or fault on misaligned data
   rewind exactly too: thread table, SMC watch set and degradation
   policy come back with the instance. *)
let test_rewound_workloads () =
  List.iter
    (fun (w : Workloads.Common.t) ->
      let config = Ia32el.Config.default in
      let image = w.Workloads.Common.build ~scale:1 ~wide:false in
      let inst = Ia32el.Instance.create ~config image in
      let r = Ia32el.Instance.run ~request:"" inst in
      let want =
        ( Ia32el.Instance.stop_to_string r.Ia32el.Instance.stop,
          r.Ia32el.Instance.output,
          r.Ia32el.Instance.cycles,
          Obs.Metrics.to_string (Ia32el.Instance.metrics inst) )
      in
      let p =
        Serve.pool ~backend:Serve.Inline ~workers:1 ~queue:4 ~config ~workload:w ()
      in
      let b =
        Serve.run_batch p (List.init 3 (fun _ -> { Serve.payload = ""; max_cycles = None }))
      in
      List.iteri
        (fun i res ->
          match res.Serve.result with
          | Some x ->
            Alcotest.(check (pair (pair string string) (pair int string)))
              (Printf.sprintf "%s: request %d = standalone" w.Workloads.Common.name i)
              (let a, b, c, d = want in ((a, b), (c, d)))
              ((x.Serve.r_stop, x.Serve.r_output), (x.Serve.r_cycles, x.Serve.r_metrics))
          | None -> Alcotest.fail "request rejected")
        b.Serve.responses)
    [
      Workloads.Threads.producer_consumer ~workers:Workloads.Threads.default_workers;
      Workloads.Sysmark.office;
      Workloads.Sysmark.misalign_stress;
    ]

(* A rewound run re-installs its blocks under the same ids at the same
   tcache indices, so the execution core takes back by content the block
   programs the first runs compiled. An entry position keeps its current
   and its previous program, so a block met unpatched and then
   chain-patched in every request has both: from the third request on,
   nothing compiles. *)
let test_rewound_run_reuses_programs () =
  with_tcache_dir (fun dir ->
      let tc = Filename.concat dir "serve.tc" in
      ignore (Serve.compile_tcache ~path:tc ~scale:1 ~payload ());
      List.iter
        (fun tcache ->
          let image =
            Workloads.Serve_echo.workload.Workloads.Common.build ~scale:1
              ~wide:false
          in
          let inst = Ia32el.Instance.create image in
          let pse =
            Option.map
              (fun path ->
                let store, _ =
                  Persist.load ~path ~image_hash:(Persist.image_hash image)
                    ~config_fp:
                      (Persist.config_fingerprint Ia32el.Config.default)
                in
                Persist.attach ~readonly:true store inst.Ia32el.Instance.eng)
              tcache
          in
          let se = Ia32el.Instance.session inst in
          let exec = inst.Ia32el.Instance.eng.Ia32el.Engine.exec in
          let compiles () =
            let c0 = Ipf.Exec.compiled exec in
            Option.iter Persist.restart pse;
            ignore (Ia32el.Instance.run ~request:payload inst);
            Ia32el.Instance.rewind se;
            Ipf.Exec.compiled exec - c0
          in
          let first = compiles () in
          let second = compiles () in
          let later = List.init 3 (fun _ -> compiles ()) in
          let tag = if tcache = None then "no tcache" else "a tcache" in
          if 20 * second >= first then
            Alcotest.failf "%s: a rewound run compiled %d of the first run's %d"
              tag second first;
          Alcotest.(check (list int))
            (tag ^ ": the third request on compiles nothing")
            [ 0; 0; 0 ] later)
        [ None; Some tc ])

(* ---- admission control and budgets ----------------------------------- *)

let test_admission_rejection () =
  (* capacity = workers + queue = 2; the third concurrent submission must
     be rejected with a structured serve error *)
  let p = Serve.pool ~backend:Serve.Inline ~workers:1 ~queue:1 () in
  let jobs = List.init 3 (fun _ -> { Serve.payload; max_cycles = None }) in
  let batch = Serve.run_batch ~drain_between:false p jobs in
  let rejected =
    List.filter (fun r -> r.Serve.rejected <> None) batch.Serve.responses
  in
  Alcotest.(check int) "exactly one rejection" 1 (List.length rejected);
  (match rejected with
  | [ { Serve.rejected = Some e; _ } ] ->
    Alcotest.(check string) "component" "serve" e.Ia32el.Bt_error.component
  | _ -> Alcotest.fail "expected a structured rejection");
  Alcotest.(check int) "the other two were served" 2
    (List.length
       (List.filter (fun r -> r.Serve.result <> None) batch.Serve.responses))

let test_budget_exhaustion () =
  let r = run_echo ~request:payload ~max_cycles:2_000 ~scale:50 () in
  (match r.Ia32el.Instance.stop with
  | Ia32el.Instance.Budget_exhausted e ->
    Alcotest.(check string) "watchdog component" "watchdog"
      e.Ia32el.Bt_error.component
  | s -> Alcotest.failf "expected budget exhaustion, got %s"
           (Ia32el.Instance.stop_to_string s));
  (* and through the pool: the response reports the blown budget *)
  let p = Serve.pool ~backend:Serve.Inline ~workers:1 ~queue:4 ~scale:50 () in
  let batch =
    Serve.run_batch p [ { Serve.payload; max_cycles = Some 2_000 } ]
  in
  match batch.Serve.responses with
  | [ { Serve.result = Some r; _ } ] ->
    Alcotest.(check string) "pool reports budget_exhausted"
      "budget_exhausted" r.Serve.r_stop
  | _ -> Alcotest.fail "expected one served response"

(* One worker and a rate far above its capacity: every request is due
   within a millisecond, so the last one waits for all the service ahead
   of it. Latency runs from the due time, so p99 (the maximum of 12
   samples) must cover that whole queue, however late the generator got
   round to sending it. *)
let test_open_loop_counts_queueing () =
  let n = 12 and rate_hz = 100_000. in
  let p = Serve.pool ~backend:Serve.Forked ~workers:1 ~queue:n () in
  let load, responses = Serve.run_open_loop p ~rate_hz ~n ~payload () in
  Alcotest.(check int) "all served" n load.Serve.served;
  Alcotest.(check int) "none rejected" 0 load.Serve.load_rejected;
  let service_ms =
    List.fold_left
      (fun acc r ->
        match r.Serve.result with
        | Some r -> acc +. (r.Serve.r_service_us /. 1e3)
        | None -> Alcotest.fail "request not served")
      0. responses
  in
  let last_due_ms = float_of_int (n - 1) /. rate_hz *. 1e3 in
  if load.Serve.lat_p99_ms < service_ms -. last_due_ms then
    Alcotest.failf
      "p99 %.2f ms is below the %.2f ms of service queued ahead of the \
       last request"
      load.Serve.lat_p99_ms (service_ms -. last_due_ms)

(* ---- shared read-only AOT tcache ------------------------------------- *)

let test_warm_batch_no_retranslation () =
  let dir = Filename.temp_file "ia32el_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let tc = Filename.concat dir "serve.tc" in
  Alcotest.(check int) "tcache saved clean" 0
    (List.length (Serve.compile_tcache ~path:tc ~scale:1 ~payload ()));
  let p =
    Serve.pool ~backend:Serve.Inline ~workers:2 ~queue:8 ~tcache:tc
      ~tcache_readonly:true ()
  in
  let jobs = List.init 6 (fun _ -> { Serve.payload; max_cycles = None }) in
  let batch = Serve.run_batch p jobs in
  List.iter
    (fun res ->
      match res.Serve.result with
      | Some r ->
        Alcotest.(check int)
          "zero cache misses: no warm code retranslated" 0 r.Serve.r_tc_misses;
        Alcotest.(check bool) "every translation served from AOT store" true
          (r.Serve.r_tc_hits > 0)
      | None -> Alcotest.fail "request rejected unexpectedly")
    batch.Serve.responses;
  Sys.remove tc;
  Unix.rmdir dir

(* ---- roll-up metrics -------------------------------------------------- *)

let test_rollup_schema () =
  let p = Serve.pool ~backend:Serve.Inline ~workers:2 ~queue:8 () in
  let jobs = List.init 3 (fun _ -> { Serve.payload; max_cycles = None }) in
  let batch = Serve.run_batch p jobs in
  let j = Serve.rollup batch in
  (* the rendered JSON must round-trip through the metrics parser *)
  let m =
    match Obs.Metrics.parse (Obs.Metrics.to_string j) with
    | Ok v -> v
    | Error e -> Alcotest.failf "rollup JSON does not parse: %s" e
  in
  (match Obs.Metrics.member "schema" m with
  | Some (Obs.Metrics.Str s) ->
    Alcotest.(check string) "schema" "ia32el-serve/1" s
  | _ -> Alcotest.fail "schema field missing");
  match Obs.Metrics.member "requests" m with
  | Some req ->
    (match Obs.Metrics.member "served" req with
    | Some (Obs.Metrics.Int n) -> Alcotest.(check int) "served" 3 n
    | _ -> Alcotest.fail "requests.served missing")
  | None -> Alcotest.fail "requests section missing"

let () =
  Alcotest.run "serve"
    [
      ( "echo-guest",
        [
          Alcotest.test_case "response model" `Quick test_echo_response;
          Alcotest.test_case "empty payload" `Quick test_echo_empty_payload;
          Alcotest.test_case "no request bound" `Quick test_echo_no_request;
          Alcotest.test_case "oversize truncates" `Quick test_echo_truncates;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "memory generations independent" `Quick
            test_memory_generations_independent;
          Alcotest.test_case "arena per instance" `Quick test_arena_per_instance;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "latency counts queueing" `Quick
            test_open_loop_counts_queueing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "standalone = served (config matrix)" `Quick
            test_standalone_vs_served_inline;
          Alcotest.test_case "standalone = served (4 forked workers)" `Quick
            test_standalone_vs_served_forked;
        ] );
      ( "session",
        [
          Alcotest.test_case "mixed batch: served = standalone in any order"
            `Quick test_session_order_independent;
          Alcotest.test_case "budget then unbudgeted on one session" `Quick
            test_budget_then_unbudgeted;
          Alcotest.test_case "a rewound run reuses group programs" `Quick
            test_rewound_run_reuses_programs;
          Alcotest.test_case "threaded, syscall and misaligned guests rewind"
            `Quick test_rewound_workloads;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue rejects" `Quick
            test_admission_rejection;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
        ] );
      ( "aot",
        [
          Alcotest.test_case "warm batch: zero retranslation" `Quick
            test_warm_batch_no_retranslation;
        ] );
      ( "rollup",
        [ Alcotest.test_case "schema ia32el-serve/1" `Quick test_rollup_schema ] );
    ]
