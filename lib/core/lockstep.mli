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

val pp_divergence : Format.formatter -> divergence -> unit

type session
(** A persistent differential session: the engine plus the reference
    vehicle (its deep memory copy, state and OS), created once and
    reusable across several runs. The fork-server keeps one alive and
    rewinds both sides around each mutated input ({!snapshot},
    {!revert}). *)

val create :
  ?config:Config.t ->
  ?attach:(Engine.t -> unit) ->
  btlib:(module Btlib.Btos.S) ->
  Ia32.Memory.t ->
  Ia32.State.t ->
  session
(** Build a session over a loaded guest. The reference gets a deep copy
    of [mem] taken before the engine maps its runtime structures. Both
    memories are then tracked ({!Ia32.Memory.Dirty.track}), so each
    commit point compares only the pages written since the last one that
    matched; the first compare is a full one. [attach] is called with
    the engine after creation, for installing a chaos injector
    ({!Engine.t.on_dispatch}). *)

val engine : session -> Engine.t
val reference_mem : session -> Ia32.Memory.t
val reference_vos : session -> Btlib.Vos.t

val snapshot : session -> unit
(** Open an epoch over both sides: a warm {!Engine.snapshot}, a
    {!Ia32.Memory.Journal.push} on the reference memory
    and a {!Btlib.Vos.checkpoint} of the reference OS. Epochs nest.
    Only legal at rest, between runs. *)

val revert : session -> unit
(** Pop the innermost epoch on both sides: {!Engine.revert}, the
    reference memory's journal revert and the reference OS restore.
    @raise Invalid_argument when no epoch is open. *)

val pages_restored : session -> int
(** Cumulative pages restored by reverts, engine and reference memory
    together. *)

val run_in : ?fuel:int -> session -> report
(** Execute the guest from the session's main-thread states, comparing
    at every commit event. Installs a fresh observer on each call, so a
    session {!revert}ed to a pre-run {!snapshot} can be re-run. A fixed
    bound on the reference steps between two commit events guards
    against livelock. *)

val run :
  ?config:Config.t ->
  ?fuel:int ->
  ?attach:(Engine.t -> unit) ->
  btlib:(module Btlib.Btos.S) ->
  Ia32.Memory.t ->
  Ia32.State.t ->
  report
(** [run ~btlib mem st0] = {!create} + one {!run_in}: executes the guest
    under the engine with a shadow reference interpreter. *)
