(** Resilience harness: one call runs a workload through {!Capsule.run},
    tying it to the lockstep differential vehicle
    ({!Ia32el.Lockstep}) and the deterministic fault injector
    ({!Inject}). *)

val run :
  ?config:Ia32el.Config.t ->
  ?seed:int ->
  ?max_cycles:int ->
  ?snap_every:int ->
  ?capsule:string ->
  ?sabotage:Capsule.sabotage ->
  ?attach:(Ia32el.Engine.t -> unit) ->
  lockstep:bool ->
  Workloads.Common.t ->
  scale:int ->
  Capsule.run_result
(** Build the workload's image and run it for {!Ia32el.Instance.fuel}
    guest instructions under the engine, with the reference interpreter
    in lockstep when [lockstep] is set. [seed] attaches the chaos
    injector; [attach] runs after it, before the run (the CLI installs
    traces and profiles with it, tests seed deliberate bugs).
    [max_cycles] arms the runaway-guest watchdog, [snap_every] the
    auto-snapshot cadence. [capsule] names a crash-capsule file, written
    when the run diverges, ends in an unhandled fault, or raises a
    structured [Ia32el.Bt_error.Error] (re-raised after the capsule is
    saved). [sabotage] installs a deterministic register corruption,
    recorded in the capsule and reinstalled on replay: the lockstep
    oracle's self-test. *)
