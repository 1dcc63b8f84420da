(* ia32el-serve: run a batch of guest requests through the serving pool.

   Requests come from --requests N (N copies of --payload) or --jobs FILE
   (one payload per line). Each worker (forked process by default,
   inline by flag) builds one Engine/Vos/Memory instance and rewinds it
   to its unrun state after every request; requests run under an
   optional per-request virtual-cycle budget, with bounded-queue
   admission control. With
   --tcache-file the AOT store is shared read-only across all workers —
   no worker retranslates warm code (assert with --require-warm).

     ia32el-compile serve-echo -o serve.tc --train --train-payload "$REQ"
     ia32el-serve --workers 4 --tcache-file serve.tc --requests 32 \
                  --payload "$REQ" --require-warm --out rollup.json

   Exit codes: 0 served; 1 bad usage; 2 a served guest failed (non-zero
   exit or fault) unless --allow-failures; 4 --require-warm violated;
   5 --check-standalone mismatch. Admission rejections (possible only
   with --reject) and budget exhaustions are reported in the roll-up,
   not exit codes. *)

module C = Workloads.Common

let read_jobs_file path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let serve_cmd workload_name scale workers queue backend_name_arg tcache_file
    tcache_readonly max_cycles requests payload jobs_file reject require_warm
    check_standalone allow_failures out =
  let backend =
    match backend_name_arg with
    | "fork" | "forked" -> Serve.Forked
    | "inline" -> Serve.Inline
    | s ->
      Printf.eprintf "unknown backend %S (fork|inline)\n" s;
      exit 1
  in
  let workload =
    match
      Workloads.Catalog.find ~threads:Workloads.Threads.default_workers
        workload_name
    with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S; try `ia32el-run list'\n"
        workload_name;
      exit 1
  in
  let payloads =
    match jobs_file with
    | Some path -> read_jobs_file path
    | None -> List.init requests (fun _ -> payload)
  in
  if payloads = [] then begin
    Printf.eprintf "no requests (use --requests or --jobs)\n";
    exit 1
  end;
  let p =
    Serve.pool ~backend ~workers ~queue ~scale ~workload ?tcache:tcache_file
      ~tcache_readonly ()
  in
  let jobs =
    List.map (fun payload -> { Serve.payload; max_cycles }) payloads
  in
  let batch = Serve.run_batch ~drain_between:(not reject) p jobs in
  let rollup = Serve.rollup batch in
  (match out with
  | Some path ->
    let oc = open_out path in
    Obs.Metrics.write rollup oc;
    close_out oc
  | None -> print_string (Obs.Metrics.to_string rollup));
  let served =
    List.filter_map (fun r -> r.Serve.result) batch.Serve.responses
  in
  List.iter
    (fun (r : Serve.response) ->
      match r.Serve.rejected with
      | Some e -> Fmt.epr "rejected: %a@." Ia32el.Bt_error.pp e
      | None -> ())
    batch.Serve.responses;
  (* --require-warm: every request must have installed all translations
     from the shared store *)
  if require_warm then begin
    if tcache_file = None then begin
      Printf.eprintf "--require-warm needs --tcache-file\n";
      exit 1
    end;
    let misses =
      List.fold_left (fun a (r : Serve.result) -> a + r.Serve.r_tc_misses) 0 served
    in
    let hits =
      List.fold_left (fun a (r : Serve.result) -> a + r.Serve.r_tc_hits) 0 served
    in
    if misses > 0 || hits = 0 then begin
      Printf.eprintf
        "require-warm violated: %d live translations, %d AOT installs\n"
        misses hits;
      exit 4
    end
  end;
  (* --check-standalone: re-run every served request alone, on a fresh
     instance in this process, and diff every observable against what
     its worker's rewound session served *)
  if check_standalone then begin
    let image = workload.C.build ~scale ~wide:false in
    let bad = ref 0 and checked = ref 0 in
    List.iteri
      (fun idx (req, (r : Serve.response)) ->
        match r.Serve.result with
        | None -> ()
        | Some res ->
          incr checked;
          let inst = Ia32el.Instance.create ~config:p.Serve.config image in
          let sr = Ia32el.Instance.run ?max_cycles ~request:req inst in
          let sm = Obs.Metrics.to_string (Ia32el.Instance.metrics inst) in
          let diffs =
            List.filter_map
              (fun (what, same) -> if same then None else Some what)
              [
                ("metrics JSON", sm = res.Serve.r_metrics);
                ("guest output", sr.Ia32el.Instance.output = res.Serve.r_output);
                ( "response bytes",
                  sr.Ia32el.Instance.response = res.Serve.r_response );
                ( "stop reason",
                  Ia32el.Instance.stop_to_string sr.Ia32el.Instance.stop
                  = res.Serve.r_stop );
                ("cycles", sr.Ia32el.Instance.cycles = res.Serve.r_cycles);
              ]
          in
          if diffs <> [] then begin
            incr bad;
            Printf.eprintf "check-standalone: request %d (worker %d): %s differ\n"
              idx res.Serve.r_worker (String.concat ", " diffs)
          end)
      (List.combine payloads batch.Serve.responses);
    if !bad > 0 then exit 5;
    Printf.eprintf
      "check-standalone: %d served runs bit-identical to standalone\n" !checked
  end;
  let failed =
    List.filter
      (fun (r : Serve.result) ->
        r.Serve.r_exit <> Some 0 && r.Serve.r_stop <> "budget_exhausted")
      served
  in
  if failed <> [] && not allow_failures then begin
    List.iter
      (fun (r : Serve.result) ->
        Printf.eprintf "guest failed: %s (worker %d)\n" r.Serve.r_stop
          r.Serve.r_worker)
      failed;
    exit 2
  end

open Cmdliner

let workload_arg =
  Arg.(
    value & opt string "serve-echo"
    & info [ "workload" ] ~docv:"NAME" ~doc:"Guest workload to serve.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "w"; "workers" ] ~docv:"N" ~doc:"Worker count.")

let queue_arg =
  Arg.(
    value & opt int 8
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission queue depth; capacity = workers + queue.")

let backend_arg =
  Arg.(
    value & opt string "fork"
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Worker backend: $(b,fork) (worker processes) or $(b,inline) \
           (synchronous, for testing).")

let tcache_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcache-file" ] ~docv:"FILE"
        ~doc:
          "AOT translation cache shared by all workers (see \
           `ia32el-compile').")

let tcache_readonly_arg =
  Arg.(
    value & opt bool true
    & info [ "tcache-readonly" ] ~docv:"BOOL"
        ~doc:
          "Attach the shared tcache read-only (default true; forked \
           workers cannot usefully record anyway).")

let max_cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Per-request virtual-cycle budget; a request past it stops \
           with budget_exhausted (reported in the roll-up).")

let requests_arg =
  Arg.(
    value & opt int 8
    & info [ "n"; "requests" ] ~docv:"N"
        ~doc:"Number of requests (copies of --payload).")

let payload_arg =
  Arg.(
    value
    & opt string "GET /index.html HTTP/1.0\r\nHost: ia32el\r\n\r\n"
    & info [ "payload" ] ~docv:"STR"
        ~doc:"Request payload bound on the Vos channel.")

let jobs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jobs" ] ~docv:"FILE"
        ~doc:"Job spec: one request payload per line (overrides \
              --requests/--payload).")

let reject_arg =
  Arg.(
    value & flag
    & info [ "reject" ]
        ~doc:
          "Open admission: reject requests that find the pool at \
           capacity instead of applying backpressure.")

let require_warm_arg =
  Arg.(
    value & flag
    & info [ "require-warm" ]
        ~doc:
          "Fail (exit 4) unless every translation of every request was \
           installed from the shared tcache — zero warm-code \
           retranslation.")

let check_standalone_arg =
  Arg.(
    value & flag
    & info [ "check-standalone" ]
        ~doc:
          "Re-run every served request standalone on a fresh instance \
           and fail (exit 5) unless every observable — cycles and \
           metrics JSON included — is bit-identical.")

let allow_failures_arg =
  Arg.(
    value & flag
    & info [ "allow-failures" ]
        ~doc:"Do not exit 2 when served guests fail.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the roll-up JSON here instead of stdout.")

let main =
  Cmd.v
    (Cmd.info "ia32el-serve" ~version:"1.0.0"
       ~doc:
         "Serve a batch of guest requests on a worker pool with a shared \
          read-only AOT translation cache.")
    Term.(
      const serve_cmd $ workload_arg $ scale_arg $ workers_arg $ queue_arg
      $ backend_arg $ tcache_file_arg $ tcache_readonly_arg $ max_cycles_arg
      $ requests_arg $ payload_arg $ jobs_arg $ reject_arg $ require_warm_arg
      $ check_standalone_arg $ allow_failures_arg $ out_arg)

let () = exit (Cmd.eval main)
