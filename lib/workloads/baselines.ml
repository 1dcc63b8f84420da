(* Baseline execution models (DESIGN.md S7):

   - [native]: the natively compiled Itanium program. Modeled by running
     the workload's wide (LP64-flavoured) variant through the hot pipeline
     in "static compile" mode: no first-phase instrumentation (the program
     goes hot immediately), zero run-time translation charges (compilation
     is offline), native-grade branch costs, and no IA-32 state checks
     beyond what correctness requires. Conservative: our "native" is never
     better scheduled than our best hot translation.

   - [circuitry]: the Itanium processors' IA-32 hardware unit that IA-32 EL
     replaces — a microcoded, low-IPC in-order engine. Modeled as a fixed
     per-instruction cost on the reference interpreter.

   - [xeon]: an out-of-order IA-32 processor (the paper's 1.6 GHz Xeon),
     modeled with per-class instruction costs on the reference interpreter.
     Figure 8 divides by clock frequency to compare wall-clock time. *)

type result = {
  cycles : int;
  insns : int; (* retired IA-32 instructions (interpreter models) *)
  exit_code : int; (* guest process exit code *)
  distribution : Ia32el.Account.distribution option;
  engine : Ia32el.Engine.t option;
}

exception Workload_failed of string

(* ------------------------------------------------------------------ *)
(* IA-32 EL itself                                                     *)
(* ------------------------------------------------------------------ *)

let run_el ?config ?(attach = fun _ -> ()) ?(check_exit = true)
    (w : Common.t) ~scale =
  let inst =
    Ia32el.Instance.create ?config (w.Common.build ~scale ~wide:false)
  in
  let eng = inst.Ia32el.Instance.eng in
  attach eng;
  match (Ia32el.Instance.run inst).Ia32el.Instance.stop with
  | Ia32el.Instance.Exited c when c = 0 || not check_exit ->
    let d = Ia32el.Engine.distribution eng in
    {
      cycles = d.Ia32el.Account.total;
      insns = 0;
      exit_code = c;
      distribution = Some d;
      engine = Some eng;
    }
  | Ia32el.Instance.Exited c ->
    raise (Workload_failed (Printf.sprintf "%s: exit code %d" w.Common.name c))
  | Ia32el.Instance.Faulted f ->
    raise
      (Workload_failed
         (Printf.sprintf "%s: fault %s at 0x%x" w.Common.name
            (Ia32.Fault.to_string f) inst.Ia32el.Instance.st.Ia32.State.eip))
  | Ia32el.Instance.Budget_exhausted e -> raise (Ia32el.Bt_error.Error e)
  | Ia32el.Instance.Fuel_exhausted ->
    raise (Workload_failed (w.Common.name ^ ": out of fuel"))

(* ------------------------------------------------------------------ *)
(* Native Itanium model                                                *)
(* ------------------------------------------------------------------ *)

(* The native model is deliberately conservative: the "compiled" code is
   exactly our best hot translation (same scheduling, same commit-point
   discipline), so native is never credited with optimizations the
   simulator cannot actually perform. Its advantages are: no run-time
   translation/dispatch/lookup charges (native_cost), good profile
   knowledge at compile time, and per-workload LP64/ISA idioms through the
   [wide] build variants. *)
let native_config =
  {
    Ia32el.Config.default with
    Ia32el.Config.first_phase = Ia32el.Config.Interpret_first;
    session_candidates = 1;
  }

let native_cost =
  {
    Ipf.Cost.default with
    Ipf.Cost.interp_per_insn = 0; (* offline compilation *)
    cold_translate_per_insn = 0;
    hot_translate_per_insn = 0;
    dispatch_cost = 4; (* plain control transfer *)
    indirect_lookup_cost = 2; (* hardware-predicted indirect branch *)
    exception_filter_cost = 200;
    syscall_cost = 400; (* no 32->64 marshalling *)
  }

let run_native (w : Common.t) ~scale =
  let image = w.Common.build ~scale ~wide:true in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let eng =
    Ia32el.Engine.create ~config:native_config ~cost:native_cost
      ~btlib:(module Btlib.Linuxsim) mem
  in
  match Ia32el.Engine.run ~fuel:Ia32el.Instance.fuel eng st with
  | Ia32el.Engine.Exited (0, _) ->
    let d = Ia32el.Engine.distribution eng in
    {
      cycles = d.Ia32el.Account.total;
      insns = 0;
      exit_code = 0;
      distribution = Some d;
      engine = Some eng;
    }
  | _ -> raise (Workload_failed (w.Common.name ^ ": native run failed"))

(* ------------------------------------------------------------------ *)
(* Interpreter-based hardware cost models                              *)
(* ------------------------------------------------------------------ *)

(* Step the reference interpreter, charging [cost_of] per instruction. *)
let run_costed (w : Common.t) ~scale ~wide ~cost_of =
  let image = w.Common.build ~scale ~wide in
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let vos = Btlib.Vos.create mem in
  let module L = Btlib.Linuxsim in
  let cycles = ref 0 in
  let insns = ref 0 in
  (* the cost models' virtual clock, so thread quanta expire here too *)
  vos.Btlib.Vos.clock <- (fun _ -> !cycles);
  Btlib.Vos.register_main vos st;
  let cur = ref st in
  let rec go () =
    let st = !cur in
    let at = st.Ia32.State.eip in
    match Ia32.Decode.decode mem at with
    | exception _ -> raise (Workload_failed (w.Common.name ^ ": decode"))
    | insn, _ -> (
      match Ia32.Interp.step st with
      | Ia32.Interp.Normal ->
        incr insns;
        cycles := !cycles + cost_of insn st;
        go ()
      | Ia32.Interp.Syscall n ->
        incr insns;
        cycles := !cycles + cost_of insn st;
        if n <> L.syscall_vector then
          raise (Workload_failed (w.Common.name ^ ": bad syscall vector"))
        else begin
          match L.perform vos st (L.decode_syscall st) with
          | Btlib.Syscall.Exited 0 -> ()
          | Btlib.Syscall.Exited c ->
            raise (Workload_failed (Printf.sprintf "%s: exit %d" w.Common.name c))
          | Btlib.Syscall.Ret v ->
            L.encode_result st v;
            if Btlib.Vos.need_resched vos ~now:!cycles then resched ()
            else go ()
          | Btlib.Syscall.Block -> resched ()
        end
      | Ia32.Interp.Faulted f ->
        raise (Workload_failed (w.Common.name ^ ": " ^ Ia32.Fault.to_string f)))
  and resched () =
    match Btlib.Vos.reschedule vos ~now:!cycles with
    | Btlib.Vos.Run th ->
      cur := th.Btlib.Vos.state;
      (match Btlib.Vos.take_wake th with
      | Some v -> L.encode_result th.Btlib.Vos.state v
      | None -> ());
      go ()
    | Btlib.Vos.Deadlock ->
      raise (Workload_failed (w.Common.name ^ ": guest thread deadlock"))
  in
  go ();
  (* kernel time is native on every platform; idle is idle *)
  let kernel = vos.Btlib.Vos.kernel_cycles and idle = vos.Btlib.Vos.idle_cycles in
  (!cycles, kernel + idle, !insns)

(* The IA-32 hardware circuitry on Itanium: microcoded, in-order, slow —
   roughly a fixed CPI regardless of instruction class, with painful string
   and FP operations. *)
let circuitry_cost (insn : Ia32.Insn.insn) (st : Ia32.State.t) =
  let base = 6 in
  match insn with
  | Ia32.Insn.Movs (s, r) | Ia32.Insn.Stos (s, r) | Ia32.Insn.Scas (s, r)
  | Ia32.Insn.Lods (s, r) ->
    ignore s;
    let n =
      match r with
      | Ia32.Insn.No_rep -> 1
      | _ -> max 1 (Ia32.State.get32 st Ia32.Insn.Ecx)
    in
    base + (3 * n)
  | Ia32.Insn.Div _ | Ia32.Insn.Idiv _ -> 60
  | Ia32.Insn.Mul1 _ | Ia32.Insn.Imul1 _ | Ia32.Insn.Imul_rr _
  | Ia32.Insn.Imul_rri _ ->
    12
  | Ia32.Insn.Fp _ -> 10
  | Ia32.Insn.Mmx _ | Ia32.Insn.Sse _ -> 9
  | Ia32.Insn.Call _ | Ia32.Insn.Call_ind _ | Ia32.Insn.Ret _
  | Ia32.Insn.Jmp_ind _ ->
    base + 4
  | _ -> base

let run_circuitry (w : Common.t) ~scale =
  let raw, os, insns = run_costed w ~scale ~wide:false ~cost_of:circuitry_cost in
  { cycles = raw + os; insns; exit_code = 0; distribution = None; engine = None }

(* An out-of-order IA-32 core of the NetBurst era (the paper's 1.6 GHz
   Xeon): deep pipeline, IPC well below 1 on irregular integer code, slow
   x87, cheap misalignment. Costs are in half-cycles to keep integers. *)
let xeon_cost_halves (insn : Ia32.Insn.insn) (st : Ia32.State.t) =
  let mem_extra = if Ia32.Insn.mem_refs insn = [] then 0 else 6 in
  match insn with
  | Ia32.Insn.Div _ | Ia32.Insn.Idiv _ -> 70 * 2
  | Ia32.Insn.Mul1 _ | Ia32.Insn.Imul1 _ -> 13 * 2
  | Ia32.Insn.Imul_rr _ | Ia32.Insn.Imul_rri _ -> 8 * 2
  | Ia32.Insn.Fp Ia32.Insn.Fsqrt -> 38 * 2
  | Ia32.Insn.Fp (Ia32.Insn.Fop_m (Ia32.Insn.FDiv, _, _))
  | Ia32.Insn.Fp (Ia32.Insn.Fop_st0_st ((Ia32.Insn.FDiv | Ia32.Insn.FDivr), _))
  | Ia32.Insn.Fp (Ia32.Insn.Fop_st_st0 ((Ia32.Insn.FDiv | Ia32.Insn.FDivr), _, _)) ->
    32 * 2
  | Ia32.Insn.Fp _ -> 17 (* x87 stack code on a deep pipeline *)
  | Ia32.Insn.Sse _ -> 14
  | Ia32.Insn.Mmx _ -> 7
  | Ia32.Insn.Movs (_, r) | Ia32.Insn.Stos (_, r) | Ia32.Insn.Scas (_, r)
  | Ia32.Insn.Lods (_, r) -> (
    match r with
    | Ia32.Insn.No_rep -> 8
    | _ -> 4 * max 1 (Ia32.State.get32 st Ia32.Insn.Ecx))
  (* control transfers off the fall-through path: mispredict flushes on
     the 20-stage pipeline plus trace-cache misses — NetBurst's trace
     cache held ~12k uops, so the flat call-heavy footprints of
     interactive code decode from L2 constantly *)
  | Ia32.Insn.Call_ind _ | Ia32.Insn.Jmp_ind _ -> 26 * 2
  | Ia32.Insn.Call _ -> 14
  | Ia32.Insn.Ret _ -> 16
  | Ia32.Insn.Jcc _ -> 11 (* mispredictions on a 20-stage pipeline *)
  | _ -> 7 + mem_extra (* ~3.5 cycles base, ~6.5 with a memory operand *)

let run_xeon (w : Common.t) ~scale =
  let raw, os, insns = run_costed w ~scale ~wide:false ~cost_of:xeon_cost_halves in
  { cycles = (raw / 2) + os; insns; exit_code = 0; distribution = None; engine = None }
