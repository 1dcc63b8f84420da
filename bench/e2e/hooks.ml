(* What a traced run installs to time the program's layers from outside,
   through public entry points only: a BTLib that wraps the simulated
   Linux services, a wrapper over the engine's translate filter, and the
   engine's host timers driven by the span clock. None of them changes
   what the guest observes or the virtual cycles it is charged. *)

(* The lockstep reference vehicle shares the engine's BTLib. Its calls
   nest inside the open [Lockstep_ref] span instead of closing it. *)
let reference_vos : Btlib.Vos.t option ref = ref None

let syscall vos f =
  match !reference_vos with
  | Some r when r == vos -> Span.with_nested Span.Vos_syscall f
  | _ -> Span.with_ Span.Vos_syscall f

module Traced_linux : Btlib.Btos.S = struct
  include Btlib.Linuxsim

  let perform vos st call =
    syscall vos (fun () -> Btlib.Linuxsim.perform vos st call)

  let deliver_exception vos st f =
    syscall vos (fun () -> Btlib.Linuxsim.deliver_exception vos st f)
end

let linux : (module Btlib.Btos.S) = (module Btlib.Linuxsim)
let traced_linux : (module Btlib.Btos.S) = (module Traced_linux)
let btlib () = if !Span.on then traced_linux else linux

(* Time the live translator by phase. Whatever a persist filter already
   installed spends around [live] is its install time. *)
let wrap_filter (eng : Ia32el.Engine.t) =
  let inner = eng.Ia32el.Engine.translate_filter in
  eng.Ia32el.Engine.translate_filter <-
    Some
      (fun ~phase ~entry ~entry_tos ~flag ~live ->
        let layer =
          match phase with
          | Obs.Trace.Cold -> Span.Translate_cold
          | Obs.Trace.Hot -> Span.Translate_hot
        in
        let live () = Span.with_ layer live in
        match inner with
        | None -> live ()
        | Some f ->
          Span.with_ Span.Persist_install (fun () ->
              f ~phase ~entry ~entry_tos ~flag ~live))

(* The timers' readings are unused: [Span.tick] records the span. *)
let attach (eng : Ia32el.Engine.t) =
  wrap_filter eng;
  Ia32el.Engine.attach_timers eng
    (Obs.Timers.create
       ~clock:(fun () ->
         Span.tick ();
         0.)
       ())
