(** Resilience harness: one-call runners tying a workload to the lockstep
    differential vehicle ({!Ia32el.Lockstep}) and the deterministic fault
    injector ({!Inject}). *)

type lockstep_result = {
  report : Ia32el.Lockstep.report;
  engine : Ia32el.Engine.t;
  inject_stats : Inject.stats option;
  output : string;  (** guest console output (engine side) *)
  capsule_written : string option;
      (** crash-capsule file written, when [capsule] was given and the
          run failed *)
}

val run_lockstep :
  ?config:Ia32el.Config.t ->
  ?seed:int ->
  ?max_cycles:int ->
  ?snap_every:int ->
  ?capsule:string ->
  ?sabotage:Capsule.sabotage ->
  ?attach_extra:(Ia32el.Engine.t -> unit) ->
  Workloads.Common.t ->
  scale:int ->
  lockstep_result
(** Run a workload under the engine with the reference interpreter in
    lockstep. [seed] attaches the chaos injector; [attach_extra] runs
    after it (test hook for seeding deliberate bugs). [max_cycles] arms
    the runaway-guest watchdog, [snap_every] the auto-snapshot cadence.
    [capsule] names a crash-capsule file: written when the run diverges,
    ends in an unhandled fault, or raises a structured
    [Ia32el.Bt_error.Error] (the error is re-raised after the capsule is
    saved). [sabotage] installs a deterministic register corruption
    (recorded in the capsule, reinstalled on replay) — the lockstep
    oracle's self-test. *)

type plain_result = {
  outcome : Ia32el.Engine.outcome;
  engine : Ia32el.Engine.t;
  inject_stats : Inject.stats option;
  capsule_written : string option;
}

val run_plain :
  ?config:Ia32el.Config.t ->
  ?seed:int ->
  ?max_cycles:int ->
  ?snap_every:int ->
  ?capsule:string ->
  ?sabotage:Capsule.sabotage ->
  ?attach:(Ia32el.Engine.t -> unit) ->
  Workloads.Common.t ->
  scale:int ->
  plain_result
(** Run a workload under the engine alone (no reference), optionally with
    the injector attached. [attach] runs after the injector, before the
    run — the CLI uses it to install traces and profiles. [max_cycles],
    [snap_every], [capsule] and [sabotage] as in {!run_lockstep}. *)
