(** Lockstep differential vehicle.

    Runs the translator engine and the reference interpreter side-by-side
    over the same guest, synchronising at the engine's commit events —
    system calls, precise architectural faults, program exit — and
    comparing the full architectural state (GPRs, EFLAGS, the logical x87
    stack, XMM registers, guest memory) at every one.

    Commit events are exactly the points where guest behaviour becomes
    observable, i.e. the translator's precise-state contract (paper §4);
    everything between them (block shapes, speculation recoveries, cache
    flushes, injected chaos) is free as long as the states agree at the
    next event. On the first disagreement the run stops with a structured
    diagnosis: the ordinal of the diverging commit point, a per-field
    diff, and a minimized reproducer window of the guest instructions
    executed since the last good commit point. *)

type divergence = {
  commit_index : int;  (** ordinal of the first diverging commit point *)
  event : Engine.commit_event;
  diffs : string list;  (** per-field differences, human-readable *)
  engine_state : Ia32.State.t;
  reference_state : Ia32.State.t;
  window : string list;
      (** minimized reproducer: the reference instructions executed since
          the previous matched commit point, the last 32 at most, oldest
          first, each as ["0x…: insn"] with the bytes as executed, or
          ["0x…: <unfetchable>"] *)
}

type report = {
  commits : int;  (** commit events compared *)
  outcome : Engine.outcome option;  (** [None] when the run diverged *)
  divergence : divergence option;
}

val pp_event : Format.formatter -> Engine.commit_event -> unit
val pp_divergence : Format.formatter -> divergence -> unit

val diff_states : Ia32.State.t -> Ia32.State.t -> string list
(** Full architectural diff (empty = equal). The x87 comparison is
    TOS-relative ({!Ia32.Fpu.logical_equal}); the memory comparison skips
    the translator's profile arena. *)

type session
(** A persistent differential session: the engine plus the reference
    vehicle (its deep memory copy, state and OS), created once and
    reusable across several runs. The fork-server keeps one alive and
    snapshots/reverts both sides around each mutated input. *)

val create :
  ?config:Config.t ->
  ?cost:Ipf.Cost.t ->
  ?dcache:Ipf.Dcache.t ->
  ?attach:(Engine.t -> unit) ->
  btlib:(module Btlib.Btos.S) ->
  Ia32.Memory.t ->
  Ia32.State.t ->
  session
(** Build a session over a loaded guest. The reference gets a deep copy
    of [mem] taken before the engine maps its runtime structures.
    [attach] is called with the engine after creation, for installing a
    chaos injector ({!Engine.t.on_dispatch}). *)

val engine : session -> Engine.t
val reference_mem : session -> Ia32.Memory.t
val reference_vos : session -> Btlib.Vos.t

val run_in : ?fuel:int -> ?max_gap:int -> session -> report
(** Execute the guest from the session's main-thread states, comparing
    at every commit event. Installs a fresh observer on each call, so a
    session whose engine and reference sides have been reverted to a
    pre-run snapshot can be re-run. [max_gap] bounds the reference steps
    between two commit events (livelock guard). *)

val run :
  ?config:Config.t ->
  ?cost:Ipf.Cost.t ->
  ?dcache:Ipf.Dcache.t ->
  ?fuel:int ->
  ?max_gap:int ->
  ?attach:(Engine.t -> unit) ->
  btlib:(module Btlib.Btos.S) ->
  Ia32.Memory.t ->
  Ia32.State.t ->
  report
(** [run ~btlib mem st0] = {!create} + one {!run_in}: executes the guest
    under the engine with a shadow reference interpreter. *)
