(* Multi-guest serving harness (DESIGN.md §16).

   A pool admits guest-run requests, runs them on workers that each
   hold one session — an Ia32el.Instance built once and rewound to its
   unrun state after every request — enforces a per-request
   virtual-cycle budget through the engine watchdog, and applies
   bounded-queue admission control: capacity = workers + queue, and a
   submission past capacity is rejected with a structured Bt_error
   (component "serve") instead of being buffered without bound.

   Backends:
   - Inline: requests run synchronously in the caller's process, in
     submission order, request [id] on worker [id mod workers]. The
     admission bookkeeping is identical to the forked backend, so
     rejection tests and roll-ups are deterministic.
   - Forked: persistent worker processes in the PR 6 fork-server style —
     forked once per batch, each building its session as it starts,
     request/response records marshalled over pipes, [Unix._exit] on
     shutdown so no at_exit handler runs twice. The AOT store is loaded
     ONCE in the parent before forking; children inherit it
     copy-on-write, so N workers share one warmed code store with zero
     per-worker load or retranslation cost. A worker is a process of its
     own, so one can die without taking the pool down.

   A request is bind -> run -> metrics -> rewind. The rewind is a barrier
   revert: memory, OS state, counters and block ids go back to the unrun
   instance and the translation cache is flushed to empty, so the next
   request replays exactly the translations, persist installs and chain
   patches a fresh instance would. With the metrics JSON purely
   virtual-time, a request served by any backend is bit-identical —
   metrics included — to the same guest run standalone, whatever ran on
   its worker before. That is the serving-isolation contract the tests
   pin. What survives a rewind is host-side only: the block programs the
   execution core compiled, which it reuses where the re-installed
   bundles hold the same content. *)

type backend = Inline | Forked

let backend_name = function Inline -> "inline" | Forked -> "forked"

type job = { payload : string; max_cycles : int option }

type result = {
  r_stop : string; (* Instance.stop_to_string *)
  r_exit : int option; (* guest exit code, when it exited *)
  r_output : string;
  r_response : string;
  r_metrics : string; (* full metrics JSON — bit-comparable *)
  r_cycles : int; (* virtual clock at stop *)
  r_tc_hits : int; (* AOT store installs (0 without a tcache) *)
  r_tc_misses : int; (* live translations despite the store *)
  r_worker : int;
  r_service_us : float; (* host wall time of the guest run *)
}

type response = {
  rejected : Ia32el.Bt_error.t option;
  result : result option;
}

type pool = {
  backend : backend;
  workers : int;
  queue : int; (* admission queue depth; capacity = workers + queue *)
  config : Ia32el.Config.t;
  scale : int;
  workload : Workloads.Common.t;
  tcache : string option;
  tcache_readonly : bool;
}

type batch = {
  responses : response list; (* submission order *)
  wall_s : float;
  pool : pool;
  instances : int; (* Instance.create calls the workers made *)
}

let pool ?(backend = Inline) ?(workers = 1) ?(queue = 4)
    ?(config = Ia32el.Config.default) ?(scale = 1)
    ?(workload = Workloads.Serve_echo.workload) ?tcache
    ?(tcache_readonly = true) () =
  if workers < 1 then invalid_arg "Serve.pool: workers must be >= 1";
  if queue < 0 then invalid_arg "Serve.pool: queue must be >= 0";
  { backend; workers; queue; config; scale; workload; tcache; tcache_readonly }

let capacity p = p.workers + p.queue

let reject_error p =
  Ia32el.Bt_error.make ~component:"serve"
    ~detail:
      (Printf.sprintf "capacity %d (%d workers + %d queue slots)"
         (capacity p) p.workers p.queue)
    "admission queue full"

let build_image p = p.workload.Workloads.Common.build ~scale:p.scale ~wide:false

let load_store p image =
  match p.tcache with
  | None -> None
  | Some path ->
    let image_hash = Persist.image_hash image in
    let config_fp = Persist.config_fingerprint p.config in
    let store, _diags = Persist.load ~path ~image_hash ~config_fp in
    Some store

(* One worker's session: the instance it built once, rewound after
   every request, and the AOT session attached to it. *)
type session = {
  se : Ia32el.Instance.session;
  persist : Persist.session option;
}

let open_session p ~image ~store =
  let inst = Ia32el.Instance.create ~config:p.config image in
  let persist =
    Option.map
      (fun s ->
        Persist.attach ~readonly:p.tcache_readonly s inst.Ia32el.Instance.eng)
      store
  in
  { se = Ia32el.Instance.session inst; persist }

(* Run one admitted request on a worker's session: bind, run under the
   budget, render the metrics, rewind. This is the only function worker
   processes execute per request. *)
let exec_job session ~worker (j : job) : result =
  let t0 = Unix.gettimeofday () in
  let inst = Ia32el.Instance.instance session.se in
  Option.iter Persist.restart session.persist;
  let r =
    Ia32el.Instance.run ?max_cycles:j.max_cycles ~request:j.payload inst
  in
  let metrics = Obs.Metrics.to_string (Ia32el.Instance.metrics inst) in
  let hits, misses =
    match session.persist with
    | None -> (0, 0)
    | Some se ->
      let s = Persist.stats se in
      (s.Persist.hits, s.Persist.misses)
  in
  Ia32el.Instance.rewind session.se;
  {
    r_stop = Ia32el.Instance.stop_to_string r.Ia32el.Instance.stop;
    r_exit =
      (match r.Ia32el.Instance.stop with
      | Ia32el.Instance.Exited c -> Some c
      | _ -> None);
    r_output = r.Ia32el.Instance.output;
    r_response = r.Ia32el.Instance.response;
    r_metrics = metrics;
    r_cycles = r.Ia32el.Instance.cycles;
    r_tc_hits = hits;
    r_tc_misses = misses;
    r_worker = worker;
    r_service_us = (Unix.gettimeofday () -. t0) *. 1e6;
  }

(* ---- inline backend --------------------------------------------------- *)

(* Worker [w]'s session is built at its first request. *)
let run_inline ~drain_between p jobs responses =
  let image = build_image p in
  let store = load_store p image in
  let sessions = Array.make p.workers None in
  let session w =
    match sessions.(w) with
    | Some s -> s
    | None ->
      let s = open_session p ~image ~store in
      sessions.(w) <- Some s;
      s
  in
  let inflight : (int * job) Queue.t = Queue.create () in
  let reap_one () =
    let id, j = Queue.pop inflight in
    let worker = id mod p.workers in
    responses.(id) <-
      { rejected = None; result = Some (exec_job (session worker) ~worker j) }
  in
  List.iteri
    (fun id j ->
      if Queue.length inflight >= capacity p then
        if drain_between then begin
          reap_one ();
          Queue.push (id, j) inflight
        end
        else responses.(id) <- { rejected = Some (reject_error p); result = None }
      else Queue.push (id, j) inflight)
    jobs;
  while not (Queue.is_empty inflight) do
    reap_one ()
  done

(* ---- forked backend --------------------------------------------------- *)

type wslot = {
  w_pid : int;
  w_out : out_channel; (* requests to the child *)
  w_in : in_channel; (* responses from the child *)
  w_in_fd : Unix.file_descr;
  mutable w_busy : int option; (* job id in flight *)
  mutable w_built : int; (* instances the child reported building *)
}

(* A worker builds its session as it starts, then serves requests on it
   until told to stop. Each reply carries the instances the child has
   built so far. A worker holds at most one outstanding response (it
   only gets the next request after the parent reaped the previous
   reply), so select on the raw fd never races the channel's
   buffering. *)
let spawn_worker p ~image ~store idx =
  let req_r, req_w = Unix.pipe () in
  let rsp_r, rsp_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rsp_r;
    let built0 = Ia32el.Instance.created () in
    let ic = Unix.in_channel_of_descr req_r in
    let oc = Unix.out_channel_of_descr rsp_w in
    (try
       let session = open_session p ~image ~store in
       let rec loop () =
         match (Marshal.from_channel ic : (int * job) option) with
         | None -> ()
         | Some (id, j) ->
           let r = exec_job session ~worker:idx j in
           Marshal.to_channel oc (id, r, Ia32el.Instance.created () - built0) [];
           flush oc;
           loop ()
       in
       loop ()
     with End_of_file | Sys_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rsp_w;
    {
      w_pid = pid;
      w_out = Unix.out_channel_of_descr req_w;
      w_in = Unix.in_channel_of_descr rsp_r;
      w_in_fd = rsp_r;
      w_busy = None;
      w_built = 0;
    }

let read_reply slot =
  let id, (r : result), built = Marshal.from_channel slot.w_in in
  slot.w_built <- built;
  (id, r)

let dispatch slot id j =
  slot.w_busy <- Some id;
  Marshal.to_channel slot.w_out (Some (id, j)) [];
  flush slot.w_out

let free_slot slots =
  let found = ref None in
  Array.iter (fun s -> if !found = None && s.w_busy = None then found := Some s) slots;
  !found

let shutdown slots =
  Array.iter
    (fun s ->
      (try
         Marshal.to_channel s.w_out (None : (int * job) option) [];
         flush s.w_out;
         close_out s.w_out
       with Sys_error _ -> ());
      ignore (Unix.waitpid [] s.w_pid);
      try close_in s.w_in with Sys_error _ -> ())
    slots

(* Block until one busy worker replies; hand it the next queued job. *)
let reap_one slots pending responses on_reap =
  let busy = Array.to_list slots |> List.filter (fun s -> s.w_busy <> None) in
  match busy with
  | [] -> invalid_arg "Serve: reap with no request in flight"
  | _ -> (
    let fds = List.map (fun s -> s.w_in_fd) busy in
    match Unix.select fds [] [] (-1.0) with
    | fd :: _, _, _ ->
      let s = List.find (fun s -> s.w_in_fd = fd) busy in
      let id, r = read_reply s in
      responses.(id) <- { rejected = None; result = Some r };
      on_reap ~id ~slot:s;
      s.w_busy <- None;
      (match Queue.take_opt pending with
      | Some (id', j') -> dispatch s id' j'
      | None -> ())
    | [], _, _ -> ())

let run_forked ~drain_between p jobs responses =
  let image = build_image p in
  let store = load_store p image in
  let slots = Array.init p.workers (spawn_worker p ~image ~store) in
  let pending : (int * job) Queue.t = Queue.create () in
  let no_reap ~id:_ ~slot:_ = () in
  (try
     List.iteri
       (fun id j ->
         let rec admit () =
           match free_slot slots with
           | Some s -> dispatch s id j
           | None ->
             if Queue.length pending < p.queue then Queue.push (id, j) pending
             else if drain_between then begin
               reap_one slots pending responses no_reap;
               admit ()
             end
             else
               responses.(id) <-
                 { rejected = Some (reject_error p); result = None }
         in
         admit ())
       jobs;
     while Array.exists (fun s -> s.w_busy <> None) slots do
       reap_one slots pending responses no_reap
     done
   with e ->
     shutdown slots;
     raise e);
  shutdown slots;
  Array.fold_left (fun n s -> n + s.w_built) 0 slots

(* ---- batch entry point ------------------------------------------------ *)

let run_batch ?(drain_between = true) p jobs =
  let t0 = Unix.gettimeofday () in
  let n = List.length jobs in
  let responses = Array.make n { rejected = None; result = None } in
  let instances =
    match p.backend with
    | Inline ->
      let built0 = Ia32el.Instance.created () in
      run_inline ~drain_between p jobs responses;
      Ia32el.Instance.created () - built0
    | Forked -> run_forked ~drain_between p jobs responses
  in
  {
    responses = Array.to_list responses;
    wall_s = Unix.gettimeofday () -. t0;
    pool = p;
    instances;
  }

(* ---- open-loop load generation ---------------------------------------- *)

(* Arrivals at a fixed rate, independent of completions (open loop): a
   request that finds workers and queue full is REJECTED, never delays
   the arrival process. Latency is completion - arrival, queueing
   included, where a request arrives when it is DUE (t0 + id / rate),
   not when the generator gets round to sending it: a stalled generator
   would otherwise hide the queueing it causes (coordinated omission).
   Forked backend only: open-loop needs real concurrency. *)

type load_summary = {
  offered : int;
  served : int;
  load_rejected : int;
  load_wall_s : float;
  guests_per_s : float;
  lat_p50_ms : float;
  lat_p95_ms : float;
  lat_p99_ms : float;
  lat_mean_ms : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let run_open_loop p ~rate_hz ~n ~payload ?max_cycles () =
  if p.backend <> Forked then
    invalid_arg "Serve.run_open_loop: forked backend only";
  if rate_hz <= 0. then invalid_arg "Serve.run_open_loop: rate must be > 0";
  let image = build_image p in
  let store = load_store p image in
  let slots = Array.init p.workers (spawn_worker p ~image ~store) in
  let job = { payload; max_cycles } in
  let pending : (int * job) Queue.t = Queue.create () in
  let t0 = Unix.gettimeofday () in
  let due id = t0 +. (float_of_int id /. rate_hz) in
  let latencies = ref [] in
  let served = ref 0 in
  let rejected = ref 0 in
  let responses = Array.make n { rejected = None; result = None } in
  let reap_ready timeout =
    let busy = Array.to_list slots |> List.filter (fun s -> s.w_busy <> None) in
    if busy <> [] then begin
      let fds = List.map (fun s -> s.w_in_fd) busy in
      match Unix.select fds [] [] timeout with
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let s = List.find (fun s -> s.w_in_fd = fd) busy in
            let id, r = read_reply s in
            responses.(id) <- { rejected = None; result = Some r };
            latencies :=
              ((Unix.gettimeofday () -. due id) *. 1e3) :: !latencies;
            incr served;
            s.w_busy <- None;
            match Queue.take_opt pending with
            | Some (id', j') -> dispatch s id' j'
            | None -> ())
          ready
    end
    else if timeout > 0. then ignore (Unix.select [] [] [] timeout)
  in
  let next = ref 0 in
  (try
     while
       !next < n
       || Queue.length pending > 0
       || Array.exists (fun s -> s.w_busy <> None) slots
     do
       let now = Unix.gettimeofday () in
       if !next < n && now >= due !next then begin
         let id = !next in
         incr next;
         match free_slot slots with
         | Some s -> dispatch s id job
         | None ->
           if Queue.length pending < p.queue then Queue.push (id, job) pending
           else begin
             responses.(id) <- { rejected = Some (reject_error p); result = None };
             incr rejected
           end
       end
       else begin
         let timeout =
           if !next < n then max 0. (due !next -. now) else 0.05
         in
         reap_ready timeout
       end
     done
   with e ->
     shutdown slots;
     raise e);
  shutdown slots;
  let wall = Unix.gettimeofday () -. t0 in
  let lats = Array.of_list !latencies in
  Array.sort compare lats;
  let mean =
    if Array.length lats = 0 then 0.
    else Array.fold_left ( +. ) 0. lats /. float_of_int (Array.length lats)
  in
  ( {
      offered = n;
      served = !served;
      load_rejected = !rejected;
      load_wall_s = wall;
      guests_per_s = (if wall > 0. then float_of_int !served /. wall else 0.);
      lat_p50_ms = percentile lats 50.;
      lat_p95_ms = percentile lats 95.;
      lat_p99_ms = percentile lats 99.;
      lat_mean_ms = mean;
    },
    Array.to_list responses )

(* ---- AOT compilation for serving -------------------------------------- *)

(* Sweep + train the pool workload into a tcache file, binding [payload]
   during the training run so the recorded translation-request order is
   exactly what every same-payload served request replays. Returns the
   save diagnostics (empty on success). *)
let compile_tcache ?(config = Ia32el.Config.default)
    ?(workload = Workloads.Serve_echo.workload) ~path ~scale ?payload () =
  let image = workload.Workloads.Common.build ~scale ~wide:false in
  let image_hash = Persist.image_hash image in
  let config_fp = Persist.config_fingerprint config in
  let store, _diags = Persist.load ~path ~image_hash ~config_fp in
  let mem = Ia32.Memory.create () in
  let _st = Ia32.Asm.load image mem in
  let eng = Ia32el.Engine.create ~config ~btlib:(module Btlib.Linuxsim) mem in
  let se = Persist.attach store eng in
  let roots = image.Ia32.Asm.entry :: List.map snd image.Ia32.Asm.labels in
  let lo = image.Ia32.Asm.code_base in
  let hi = lo + String.length image.Ia32.Asm.code in
  ignore (Persist.sweep se ~roots ~lo ~hi);
  let inst = Ia32el.Instance.create ~config image in
  ignore (Persist.attach store inst.Ia32el.Instance.eng);
  ignore (Ia32el.Instance.run ?request:payload inst);
  Persist.save store ~path

(* ---- roll-up metrics -------------------------------------------------- *)

let rollup ?load (b : batch) =
  let open Obs.Metrics in
  let t = make ~schema:"ia32el-serve/1" in
  let served = List.filter (fun r -> r.result <> None) b.responses in
  let rejected = List.length b.responses - List.length served in
  let count f = List.length (List.filter f served) in
  let sum f =
    List.fold_left (fun a r -> a + f (Option.get r.result)) 0 served
  in
  let ok = count (fun r -> (Option.get r.result).r_exit = Some 0) in
  let budget =
    count (fun r -> (Option.get r.result).r_stop = "budget_exhausted")
  in
  section t "pool"
    [
      ("backend", Str (backend_name b.pool.backend));
      ("workers", Int b.pool.workers);
      ("queue", Int b.pool.queue);
      ("capacity", Int (capacity b.pool));
      ("tcache", Bool (b.pool.tcache <> None));
      ("tcache_readonly", Bool b.pool.tcache_readonly);
      ("workload", Str b.pool.workload.Workloads.Common.name);
      ("scale", Int b.pool.scale);
    ];
  section t "requests"
    [
      ("submitted", Int (List.length b.responses));
      ("served", Int (List.length served));
      ("rejected", Int rejected);
      ("exit_ok", Int ok);
      ("budget_exhausted", Int budget);
      ("failed", Int (List.length served - ok - budget));
    ];
  section t "work"
    [
      ("virtual_cycles", Int (sum (fun r -> r.r_cycles)));
      ("tc_hits", Int (sum (fun r -> r.r_tc_hits)));
      ("tc_misses", Int (sum (fun r -> r.r_tc_misses)));
      ("wall_s", Float b.wall_s);
      ( "served_per_s",
        Float
          (if b.wall_s > 0. then float_of_int (List.length served) /. b.wall_s
           else 0.) );
    ];
  let per_worker =
    let a = Array.make b.pool.workers 0 in
    List.iter
      (fun r ->
        match r.result with
        | Some x when x.r_worker < b.pool.workers ->
          a.(x.r_worker) <- a.(x.r_worker) + 1
        | _ -> ())
      b.responses;
    Array.to_list a
  in
  section t "workers"
    [
      ("served_per_worker", List (List.map (fun n -> Int n) per_worker));
      ("instances_built", Int b.instances);
    ];
  (match load with
  | None -> ()
  | Some l ->
    section t "load"
      [
        ("offered", Int l.offered);
        ("served", Int l.served);
        ("rejected", Int l.load_rejected);
        ("wall_s", Float l.load_wall_s);
        ("guests_per_s", Float l.guests_per_s);
        ("lat_p50_ms", Float l.lat_p50_ms);
        ("lat_p95_ms", Float l.lat_p95_ms);
        ("lat_p99_ms", Float l.lat_p99_ms);
        ("lat_mean_ms", Float l.lat_mean_ms);
      ]);
  t
