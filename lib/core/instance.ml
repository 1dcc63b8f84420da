(* One self-contained guest instance: memory + engine + architectural
   state built from an assembled image. Everything an instance touches is
   owned by it — memory (with its own write-generation counter), Vos
   (request channel, arena cursor, thread table), block cache, machine —
   so any number of instances can live in one process (a serving worker
   pool, lockstep pairs, A/B experiments) without sharing mutable state.
   A session makes one instance serve many runs: a barrier snapshot taken
   before the first run, reverted after each, so every run starts from
   the unrun instance with an empty translation cache and is
   bit-identical to a run on a fresh one. The serving layer keeps one
   session per worker. *)

type t = {
  eng : Engine.t;
  mutable st : Ia32.State.t;
}

type stop =
  | Exited of int
  | Faulted of Ia32.Fault.t
  | Budget_exhausted of Bt_error.t
  | Fuel_exhausted

type result = {
  stop : stop;
  cycles : int; (* virtual clock at stop *)
  output : string; (* console output so far *)
  response : string; (* channel response so far *)
}

let built = Atomic.make 0
let created () = Atomic.get built

let create ?config ?(btlib : (module Btlib.Btos.S) = (module Btlib.Linuxsim))
    (image : Ia32.Asm.image) =
  Atomic.incr built;
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let eng = Engine.create ?config ~btlib mem in
  { eng; st }

(* Fuel (guest instructions) of every instance run. *)
let fuel = 2_000_000_000

(* The watchdog surfaces as a structured [Bt_error] out of [Engine.run];
   an instance run converts exactly that error — component "watchdog" —
   into a [Budget_exhausted] stop so pool layers can treat a blown budget
   as a normal per-request outcome rather than a harness crash. Any other
   [Bt_error] still escapes: those are translator invariant violations. *)
let run ?max_cycles ?request t =
  t.eng.Engine.max_cycles <- max_cycles;
  (match request with
  | Some payload -> Btlib.Vos.bind_request t.eng.Engine.vos payload
  | None -> ());
  let finish stop =
    {
      stop;
      cycles = Engine.clock t.eng;
      output = Btlib.Vos.output t.eng.Engine.vos;
      response = Btlib.Vos.response t.eng.Engine.vos;
    }
  in
  match Engine.run ~fuel t.eng t.st with
  | Engine.Exited (code, st) ->
    t.st <- st;
    finish (Exited code)
  | Engine.Unhandled_fault (f, st) ->
    t.st <- st;
    finish (Faulted f)
  | Engine.Out_of_fuel -> finish Fuel_exhausted
  | exception Bt_error.Error e when e.Bt_error.component = "watchdog" ->
    finish (Budget_exhausted e)

(* The barrier flushes nothing on an unrun engine, and its revert puts
   back the block ids, so a rewound run translates (or installs) the
   same blocks under the same ids at the same tcache indices as a fresh
   instance would. The main thread is registered before the snapshot so
   the revert restores the initial state into [st0] itself. *)
type session = { inst : t; st0 : Ia32.State.t }

let session t =
  if Engine.clock t.eng <> 0 || Engine.snapshot_depth t.eng <> 0 then
    invalid_arg "Instance.session: the instance has run or is snapshotted";
  Btlib.Vos.register_main t.eng.Engine.vos t.st;
  ignore (Engine.snapshot ~barrier:true t.eng);
  { inst = t; st0 = t.st }

let instance s = s.inst

let rewind s =
  ignore (Engine.revert s.inst.eng);
  ignore (Engine.snapshot ~barrier:true s.inst.eng);
  s.inst.st <- s.st0

let metrics t = Engine.metrics t.eng

let stop_to_string = function
  | Exited c -> Printf.sprintf "exited(%d)" c
  | Faulted f -> "fault:" ^ Ia32.Fault.to_string f
  | Budget_exhausted _ -> "budget_exhausted"
  | Fuel_exhausted -> "fuel_exhausted"
