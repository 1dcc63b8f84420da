(** Baseline execution models (DESIGN.md S7) for the Figure 5/8 and
    circuitry comparisons.

    - [native]: the natively compiled Itanium program, modeled by
      running the workload's [wide] (LP64-flavoured) variant through the
      hot pipeline in "static compile" mode: no first-phase
      instrumentation, zero run-time translation charges, native-grade
      branch costs. Deliberately conservative — our "native" is never
      better scheduled than our best hot translation.
    - [circuitry]: the Itanium processors' IA-32 hardware unit that
      IA-32 EL replaces — a microcoded, low-IPC in-order engine, modeled
      as per-instruction costs on the reference interpreter.
    - [xeon]: an out-of-order IA-32 processor (the paper's 1.6 GHz
      Xeon), modeled with per-class half-cycle costs on the reference
      interpreter. Figure 8 divides by clock frequency to compare
      wall-clock time. *)

type result = {
  cycles : int;
  insns : int;  (** retired IA-32 instructions (interpreter models) *)
  exit_code : int;  (** guest process exit code *)
  distribution : Ia32el.Account.distribution option;
  engine : Ia32el.Engine.t option;
}

exception Workload_failed of string

val run_el :
  ?config:Ia32el.Config.t ->
  ?attach:(Ia32el.Engine.t -> unit) ->
  ?check_exit:bool ->
  Common.t ->
  scale:int ->
  result
(** Run a workload under IA-32 EL (the narrow, IA-32 build). [attach] is
    called with the fresh engine before the run — the hook observability
    consumers use to install traces and profiles. [check_exit] (default
    true) raises {!Workload_failed} on a nonzero guest exit; pass false
    to get the exit code in the result instead (the runner propagates it
    to the host shell). *)

val run_native : Common.t -> scale:int -> result
(** Run the [wide] variant under the native-compiler model. *)

val run_circuitry : Common.t -> scale:int -> result
val run_xeon : Common.t -> scale:int -> result
