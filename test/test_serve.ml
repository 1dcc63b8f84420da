(* Serving-layer tests (DESIGN.md §16):

   - the serve-echo guest end-to-end over the Vos request/response
     channel (response correctness, no-request / short-recv exits);
   - per-instance isolation: memories evolve generation streams
     independently, arenas don't leak across Vos instances;
   - standalone vs served determinism: a guest run alone and the same
     guest run inside a multi-worker batch yield bit-identical
     observables (metrics JSON, exit code, output, response) under both
     first phases;
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
