(** One self-contained guest instance: memory + engine + architectural
    state built from an assembled image.

    Everything an instance touches is owned by it — memory (with its own
    write-generation counter), Vos (request/response channel, arena
    cursor, thread table), block cache, machine — so any number of
    instances can live in one process (a serving worker pool, lockstep
    pairs, A/B experiments) without sharing mutable state. A {!session}
    rewinds one instance after each run, so it serves any number of runs
    each bit-identical to a run on a fresh instance; the serving layer
    ([Serve]) keeps one session per worker. *)

type t = {
  eng : Engine.t;
  mutable st : Ia32.State.t;  (** updated with the final precise state *)
}

(** Why a run stopped. A blown per-request cycle budget is a normal
    outcome here (not an exception): pool layers account and report it. *)
type stop =
  | Exited of int
  | Faulted of Ia32.Fault.t
  | Budget_exhausted of Bt_error.t
      (** the engine watchdog fired ([max_cycles] passed) *)
  | Fuel_exhausted

type result = {
  stop : stop;
  cycles : int;  (** virtual clock at stop *)
  output : string;  (** console output so far *)
  response : string;  (** request-channel response so far *)
}

val create :
  ?config:Config.t ->
  ?btlib:(module Btlib.Btos.S) ->
  Ia32.Asm.image ->
  t
(** Fresh memory, image loaded, engine created ([Btlib.Linuxsim] by
    default). No sharing with any other instance. *)

val created : unit -> int
(** Instances {!create}d by this process so far (diagnostics: what a
    serving worker spends on builds). *)

val fuel : int
(** Guest instructions a run may execute before it stops with
    [Fuel_exhausted]: the one fuel bound of every whole-workload run
    (instances, the resilience runner, the baseline models). *)

val run : ?max_cycles:int -> ?request:string -> t -> result
(** Run the guest from its current state. [max_cycles] arms the engine
    watchdog (absolute virtual-clock bound) for this run; without it the
    watchdog is off, whatever an earlier run set. The resulting
    structured [Bt_error] (component ["watchdog"]) is converted to
    [Budget_exhausted] — any other [Bt_error] escapes. [request] binds a
    payload on the Vos request channel first
    ({!Btlib.Vos.bind_request}). *)

(** {1 Sessions} *)

type session
(** An instance that goes back to its unrun state after every run. *)

val session : t -> session
(** Open a barrier snapshot ({!Engine.snapshot}) on an instance that has
    not run: the engine is unrun and its translation cache empty, so the
    barrier flushes and counts nothing. Attach a persistent-cache
    session, if any, before.
    @raise Invalid_argument when the instance has run or has a snapshot
    open. *)

val instance : session -> t

val rewind : session -> unit
(** Revert the instance to the snapshot and open it again. The revert
    flushes the translation cache back to empty and restores memory,
    the OS state, every counter, the block ids and the initial
    architectural state, so the next {!run} replays the same
    translations, persist installs and chain patches as a run on a fresh
    instance and is bit-identical to it: stop, output, response, cycles
    and metrics JSON. Only host-side caches survive: decoded
    instructions and {!Ipf.Exec}'s block programs, which are judged by
    content. A persistent-cache session's per-run state is the caller's
    to restart. *)

val metrics : t -> Obs.Metrics.t
val stop_to_string : stop -> string
