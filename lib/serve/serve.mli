(** Multi-guest serving harness (DESIGN.md §16).

    A {!pool} admits guest-run requests and runs them on workers. Each
    worker builds one Engine/Vos/Memory instance per batch and keeps it
    as a session ({!Ia32el.Instance.session}): a request binds its
    payload, runs, renders its metrics and rewinds the instance to its
    unrun state, translation cache flushed. The pool enforces
    per-request virtual-cycle budgets through the engine watchdog and
    applies bounded-queue admission control: capacity = workers + queue,
    and a submission past capacity is rejected with a structured
    [Bt_error] (component ["serve"]).

    Serving isolation contract: a request served by any backend is
    bit-identical in every observable — guest output, response bytes,
    exit code, cycles, the full metrics JSON — to the same guest run
    standalone on a fresh instance, whatever its worker served before,
    because the rewind restores everything the run can observe and the
    metrics are purely virtual-time. With a shared read-only AOT tcache
    ({!pool}[ ~tcache ~tcache_readonly:true]), warm requests install all
    their translations from the store: zero retranslation, verified by
    the per-request hit/miss counters. *)

(** Worker backends. [Inline] runs requests synchronously in the caller
    (same admission bookkeeping, deterministic order — the testing
    backend), request [i] on worker [i mod workers]. [Forked] forks
    worker processes per batch, marshalling requests over pipes; the AOT
    store is loaded once in the parent and inherited copy-on-write. *)
type backend = Inline | Forked

val backend_name : backend -> string

type job = {
  payload : string;  (** bound on the Vos request channel before the run *)
  max_cycles : int option;  (** per-request virtual-cycle budget *)
}

type result = {
  r_stop : string;  (** {!Ia32el.Instance.stop_to_string} *)
  r_exit : int option;
  r_output : string;
  r_response : string;
  r_metrics : string;  (** full metrics JSON — bit-comparable *)
  r_cycles : int;
  r_tc_hits : int;  (** translations installed from the AOT store *)
  r_tc_misses : int;  (** live translations despite the store *)
  r_worker : int;
  r_service_us : float;  (** host wall time of the guest run *)
}

type response = {
  rejected : Ia32el.Bt_error.t option;  (** admission rejection *)
  result : result option;
}

type pool = {
  backend : backend;
  workers : int;
  queue : int;
  config : Ia32el.Config.t;
  scale : int;
  workload : Workloads.Common.t;
  tcache : string option;
  tcache_readonly : bool;
}

type batch = {
  responses : response list;  (** submission order *)
  wall_s : float;
  pool : pool;
  instances : int;
      (** {!Ia32el.Instance.create} calls the workers made for the batch:
          one per worker that started *)
}

val pool :
  ?backend:backend ->
  ?workers:int ->
  ?queue:int ->
  ?config:Ia32el.Config.t ->
  ?scale:int ->
  ?workload:Workloads.Common.t ->
  ?tcache:string ->
  ?tcache_readonly:bool ->
  unit ->
  pool
(** Defaults: inline backend, 1 worker, queue 4, default config, scale 1,
    the [serve-echo] workload, no tcache, [tcache_readonly:true]. *)

val run_batch : ?drain_between:bool -> pool -> job list -> batch
(** Submit [jobs] in order and collect every response.
    [drain_between] (default true) applies backpressure: a submission
    that finds the pool at capacity waits for a completion. With
    [drain_between:false] it is rejected instead — the open-admission
    mode the rejection tests and load generator use. *)

(** {1 Open-loop load} *)

type load_summary = {
  served : int;
  load_rejected : int;
  lat_p50_ms : float;
      (** completion - due arrival time, queueing included *)
  lat_p95_ms : float;
  lat_p99_ms : float;
}

val run_open_loop :
  pool ->
  rate_hz:float ->
  n:int ->
  payload:string ->
  unit ->
  load_summary * response list
(** Fixed-rate arrivals independent of completions (open loop): an
    arrival that finds workers and queue full is rejected, never
    delayed. Latency is completion minus the time the request was due
    ([t0 + id / rate_hz]), so generator stalls count as queueing rather
    than being omitted. Forked backend only.
    @raise Invalid_argument on other backends. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [sorted] ascending, [p] in [0,100]. *)

(** {1 AOT compilation} *)

val compile_tcache :
  ?config:Ia32el.Config.t ->
  ?workload:Workloads.Common.t ->
  path:string ->
  scale:int ->
  ?payload:string ->
  unit ->
  Ia32el.Bt_error.t list
(** Static sweep plus one training run (with [payload] bound, so the
    recorded translation-request order matches what same-payload served
    requests replay) into the tcache file at [path]. Returns the save
    diagnostics — empty on success. *)

(** {1 Roll-up} *)

val rollup : batch -> Obs.Metrics.t
(** One schema'd JSON ([ia32el-serve/1]) rolling up the whole batch:
    pool shape, request counts (served / rejected / budget-exhausted /
    failed), aggregate work (virtual cycles, tcache hits/misses,
    throughput), per-worker served counts and the instances the workers
    built. *)
