(* Resilience harness: runs a workload through the capsule runner
   ([Capsule.run]), in lockstep with the reference interpreter or not,
   with the fault injector, watchdog, snapshot cadence, sabotage and
   crash capsule it is given. Used by the CLI driver and the resilience
   test suite. *)

module C = Workloads.Common

let run ?(config = Ia32el.Config.default) ?seed ?max_cycles ?snap_every
    ?capsule ?sabotage ?attach ~lockstep (w : C.t) ~scale =
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load (w.C.build ~scale ~wide:false) mem in
  Capsule.run ?capsule ?attach
    {
      Capsule.p_config = config;
      p_fuel = Ia32el.Instance.fuel;
      p_max_cycles = max_cycles;
      p_snap_every = snap_every;
      p_inject_seed = seed;
      p_sabotage = sabotage;
      p_lockstep = lockstep;
    }
    mem st
