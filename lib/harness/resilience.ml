(* Resilience harness: one-call runners tying a workload to the lockstep
   differential vehicle and the deterministic fault injector. Used by the
   CLI driver (--lockstep / --inject) and the resilience test suite. *)

module C = Workloads.Common
module E = Ia32el.Engine

(* Fuel (guest instructions) of every resilience run. *)
let fuel = 2_000_000_000

type lockstep_result = {
  report : Ia32el.Lockstep.report;
  engine : E.t; (* for output, accounting, degradation counters *)
  inject_stats : Inject.stats option;
  output : string; (* guest console output (engine side) *)
  capsule_written : string option; (* crash-capsule file, on failure *)
}

(* Shared watchdog/snapshot-cadence/capsule plumbing: build the recorder
   before the engine exists (the initial image must not contain the
   profile arena), apply the engine knobs from inside [attach], and
   write the capsule only when the run actually failed. *)
let apply_knobs ?max_cycles ?snap_every (eng : E.t) =
  if max_cycles <> None then eng.E.max_cycles <- max_cycles;
  if snap_every <> None then eng.E.snap_every <- snap_every

let write_capsule capsule recorder failure =
  match (capsule, recorder) with
  | Some file, Some r ->
    Capsule.save file (Capsule.finalize r failure);
    Some file
  | _ -> None

(* Run [w] under the engine with the reference interpreter in lockstep,
   optionally with the chaos injector attached. [attach_extra] runs after
   the injector (test hook for seeding deliberate bugs). *)
let run_lockstep ?config ?seed ?max_cycles ?snap_every ?capsule ?sabotage
    ?(attach_extra = fun (_ : E.t) -> ()) (w : C.t) ~scale =
  let image = w.C.build ~scale ~wide:false in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let recorder =
    Option.map
      (fun _ ->
        Capsule.recorder ?max_cycles ?snap_every ?inject_seed:seed ?sabotage
          ~lockstep:true
          ~config:(Option.value config ~default:Ia32el.Config.default)
          ~fuel mem st)
      capsule
  in
  let injector = Option.map (fun seed -> Inject.create ~seed ()) seed in
  let captured = ref None in
  let attach eng =
    captured := Some eng;
    apply_knobs ?max_cycles ?snap_every eng;
    Option.iter (fun i -> Inject.attach i eng) injector;
    Option.iter (fun sb -> Capsule.sabotage_attach sb eng) sabotage;
    attach_extra eng;
    Option.iter (fun r -> Capsule.observe r eng) recorder
  in
  match
    Ia32el.Lockstep.run ?config ~fuel ~attach
      ~btlib:(module Btlib.Linuxsim)
      mem st
  with
  | report ->
    let engine = Option.get !captured in
    let capsule_written =
      match report.Ia32el.Lockstep.divergence with
      | Some d ->
        write_capsule capsule recorder (Capsule.failure_of_divergence d)
      | None -> (
        match report.Ia32el.Lockstep.outcome with
        | Some (E.Unhandled_fault (f, _)) ->
          write_capsule capsule recorder
            (Capsule.F_unhandled_fault (Ia32.Fault.to_string f))
        | _ -> None)
    in
    {
      report;
      engine;
      inject_stats = Option.map Inject.stats injector;
      output = Btlib.Vos.output engine.E.vos;
      capsule_written;
    }
  | exception Ia32el.Bt_error.Error e ->
    (* structured translator error (watchdog included): capture, then let
       the caller render the diagnosis *)
    ignore (write_capsule capsule recorder (Capsule.failure_of_bt e));
    raise (Ia32el.Bt_error.Error e)

type plain_result = {
  outcome : E.outcome;
  engine : E.t;
  inject_stats : Inject.stats option;
  capsule_written : string option;
}

(* Run [w] under the engine alone (no reference), optionally injected. *)
let run_plain ?config ?seed ?max_cycles ?snap_every ?capsule ?sabotage
    ?(attach = fun _ -> ()) (w : C.t) ~scale =
  let image = w.C.build ~scale ~wide:false in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let recorder =
    Option.map
      (fun _ ->
        Capsule.recorder ?max_cycles ?snap_every ?inject_seed:seed ?sabotage
          ~lockstep:false
          ~config:(Option.value config ~default:Ia32el.Config.default)
          ~fuel mem st)
      capsule
  in
  let engine = E.create ?config ~btlib:(module Btlib.Linuxsim) mem in
  apply_knobs ?max_cycles ?snap_every engine;
  let injector = Option.map (fun seed -> Inject.create ~seed ()) seed in
  Option.iter (fun i -> Inject.attach i engine) injector;
  Option.iter (fun sb -> Capsule.sabotage_attach sb engine) sabotage;
  attach engine;
  Option.iter (fun r -> Capsule.observe r engine) recorder;
  match E.run ~fuel engine st with
  | outcome ->
    let capsule_written =
      match outcome with
      | E.Unhandled_fault (f, _) ->
        write_capsule capsule recorder
          (Capsule.F_unhandled_fault (Ia32.Fault.to_string f))
      | _ -> None
    in
    {
      outcome;
      engine;
      inject_stats = Option.map Inject.stats injector;
      capsule_written;
    }
  | exception Ia32el.Bt_error.Error e ->
    ignore (write_capsule capsule recorder (Capsule.failure_of_bt e));
    raise (Ia32el.Bt_error.Error e)
