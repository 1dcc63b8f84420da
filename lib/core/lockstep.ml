(* Lockstep differential vehicle: run the translator engine and the
   reference interpreter side-by-side over the same guest, synchronising
   at the engine's commit events (syscalls, precise faults, exit) and
   comparing the full architectural state at each one — GPRs, EFLAGS, the
   logical x87 stack, XMM registers and guest memory.

   The engine's internal structure (block shapes, hot commit points,
   speculation recoveries) is invisible to the comparison: only the
   points where guest behaviour is observable are compared, which is
   exactly the translator's precise-state contract (paper §4). A chaos
   injector (Harness.Inject) can perturb the engine between commits; any
   perturbation that is not semantics-preserving shows up here as a
   divergence with a structured diagnosis. *)

module M = Ipf.Machine

(* One architectural-state mismatch at a commit event. [window] is the
   minimized reproducer: the reference instructions executed since the
   previous matched commit point, i.e. the guest code whose translation
   went wrong. *)
type divergence = {
  commit_index : int; (* ordinal of the first diverging commit point *)
  event : Engine.commit_event;
  diffs : string list; (* per-field differences, human-readable *)
  window : string list; (* reference insns since the last good commit *)
}

type report = {
  commits : int; (* commit events compared *)
  outcome : Engine.outcome option; (* None when the run diverged *)
  divergence : divergence option;
}

exception Diverged of divergence

let pp_event ppf = function
  | Engine.Commit_syscall n -> Fmt.pf ppf "syscall %d" n
  | Engine.Commit_fault f -> Fmt.pf ppf "fault %s" (Ia32.Fault.to_string f)
  | Engine.Commit_exit c -> Fmt.pf ppf "exit %d" c

let pp_divergence ppf d =
  Fmt.pf ppf "@[<v>divergence at commit point #%d (%a):@," d.commit_index
    pp_event d.event;
  List.iter (fun s -> Fmt.pf ppf "  %s@," s) d.diffs;
  if d.window <> [] then begin
    Fmt.pf ppf "reproducer window (reference, since last good commit):@,";
    List.iter (fun s -> Fmt.pf ppf "  %s@," s) d.window
  end;
  Fmt.pf ppf "@]"

(* Skip the translator's profile arena: it lives in engine memory only. *)
let arena_page p =
  p >= Block.arena_base lsr Ia32.Memory.page_bits
  && p < (Block.arena_base + Block.arena_size) lsr Ia32.Memory.page_bits

(* Full architectural diff between the engine's precise state and the
   reference's, as a list of per-field descriptions (empty = equal). The
   x87 comparison is TOS-relative: a physical rotation recovery leaves
   the engine's TOP legitimately different. Memory is compared on the
   pages written since the last equal compare when both memories are
   tracked (a session's are), with the full scan as the fallback on a
   difference, so the first differing address is the full scan's. *)
let diff_states (est : Ia32.State.t) (rst : Ia32.State.t) =
  let ds = ref [] in
  let add fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
  if est.Ia32.State.eip <> rst.Ia32.State.eip then
    add "eip: engine %#x vs reference %#x" est.Ia32.State.eip
      rst.Ia32.State.eip;
  for i = 0 to 7 do
    if est.Ia32.State.regs.(i) <> rst.Ia32.State.regs.(i) then
      add "%s: engine %#x vs reference %#x"
        (Ia32.Insn.reg_name (Ia32.Insn.reg_of_index i))
        est.Ia32.State.regs.(i) rst.Ia32.State.regs.(i)
  done;
  let flag name a b = if a <> b then add "%s: engine %b vs reference %b" name a b in
  flag "cf" est.Ia32.State.cf rst.Ia32.State.cf;
  flag "pf" est.Ia32.State.pf rst.Ia32.State.pf;
  flag "af" est.Ia32.State.af rst.Ia32.State.af;
  flag "zf" est.Ia32.State.zf rst.Ia32.State.zf;
  flag "sf" est.Ia32.State.sf rst.Ia32.State.sf;
  flag "of" est.Ia32.State.of_ rst.Ia32.State.of_;
  flag "df" est.Ia32.State.df rst.Ia32.State.df;
  if not (Ia32.Fpu.logical_equal est.Ia32.State.fpu rst.Ia32.State.fpu) then
    add "x87: engine [%s] vs reference [%s]"
      (Fmt.str "%a" Ia32.Fpu.pp est.Ia32.State.fpu)
      (Fmt.str "%a" Ia32.Fpu.pp rst.Ia32.State.fpu);
  for i = 0 to 7 do
    if
      not
        (Int64.equal est.Ia32.State.xmm_lo.(i) rst.Ia32.State.xmm_lo.(i)
        && Int64.equal est.Ia32.State.xmm_hi.(i) rst.Ia32.State.xmm_hi.(i))
    then
      add "xmm%d: engine %Lx:%Lx vs reference %Lx:%Lx" i
        est.Ia32.State.xmm_hi.(i) est.Ia32.State.xmm_lo.(i)
        rst.Ia32.State.xmm_hi.(i) rst.Ia32.State.xmm_lo.(i)
  done;
  (match
     Ia32.Memory.Dirty.first_diff ~skip:arena_page est.Ia32.State.mem
       rst.Ia32.State.mem
   with
  | Some addr ->
    let b m = try Ia32.Memory.read8 m addr with _ -> -1 in
    add "memory: first difference at %#x (engine %02x vs reference %02x)"
      addr
      (b est.Ia32.State.mem)
      (b rst.Ia32.State.mem)
  | None -> ());
  List.rev !ds

(* The reference vehicle's next observable event. *)
type ref_event =
  | R_syscall of int
  | R_fault of Ia32.Fault.t
  | R_timeout (* no event within the step bound: control-flow divergence *)

let window_cap = 32

(* A persistent differential session: the engine and the reference
   vehicle, created once and reusable across many runs. [run] builds a
   throwaway session; the fork-server ({!Harness.Fuzz}) keeps one alive
   and rewinds both sides around each mutated input ([snapshot] /
   [revert]). *)
type session = {
  engine : Engine.t;
  ref_mem : Ia32.Memory.t;
  ref_vos : Btlib.Vos.t;
  st0 : Ia32.State.t; (* engine main-thread state *)
  rst0 : Ia32.State.t; (* reference main-thread state *)
  btlib : (module Btlib.Btos.S);
  base_commit : (Engine.commit_event -> Ia32.State.t -> unit) option;
      (* observer [attach] installed (e.g. a capsule recorder): composed
         before the lockstep observer on every [run_in], so it sees the
         diverging commit before [Diverged] raises and survives repeated
         runs without chaining onto stale closures *)
  mutable ref_cks : Btlib.Vos.checkpoint list;
      (* reference OS checkpoints of the open epochs, innermost first *)
}

let create ?config ?(attach = fun (_ : Engine.t) -> ()) ~btlib mem
    (st0 : Ia32.State.t) =
  (* deep-copy guest memory for the reference BEFORE the engine maps its
     profile arena into the shared image *)
  let ref_mem = Ia32.Memory.copy mem in
  let rst = { (Ia32.State.copy st0) with Ia32.State.mem = ref_mem } in
  let ref_vos = Btlib.Vos.create ref_mem in
  (* The reference is thread-aware but never schedules: its thread
     selection is slaved to the engine's commit stream (see [sync_thread]
     below), so both vehicles always run the same guest thread at each
     commit point. *)
  Btlib.Vos.register_main ref_vos rst;
  let engine = Engine.create ?config ~btlib mem in
  (* Register the engine's main thread now rather than waiting for
     [Engine.run] (which does so idempotently): a snapshot taken before
     the first run must already see it in the thread table, or reverting
     would not restore the main state. *)
  Btlib.Vos.register_main engine.Engine.vos st0;
  (* Track the pages each side writes from here on: after the engine
     mapped its profile arena, which the compare skips anyway. *)
  Ia32.Memory.Dirty.track mem;
  Ia32.Memory.Dirty.track ref_mem;
  attach engine;
  let base_commit = engine.Engine.on_commit in
  { engine; ref_mem; ref_vos; st0; rst0 = rst; btlib; base_commit; ref_cks = [] }

let engine s = s.engine
let reference_mem s = s.ref_mem
let reference_vos s = s.ref_vos

(* One epoch over the pair: the engine's own (which journals its memory
   and checkpoints its Vos), the reference memory's journal and the
   reference Vos. *)
let snapshot s =
  ignore (Engine.snapshot ~barrier:false s.engine);
  Ia32.Memory.Journal.push s.ref_mem;
  s.ref_cks <- Btlib.Vos.checkpoint s.ref_vos :: s.ref_cks

let revert s =
  match s.ref_cks with
  | [] -> invalid_arg "Lockstep.revert: no snapshot epoch open"
  | ck :: rest ->
    (* the engine's revert raises before it changes anything when its
       epoch is gone, so the reference side is only popped after it *)
    ignore (Engine.revert s.engine);
    s.ref_cks <- rest;
    ignore (Ia32.Memory.Journal.revert s.ref_mem);
    Btlib.Vos.restore s.ref_vos ck

let pages_restored s =
  Engine.pages_restored s.engine + Ia32.Memory.Journal.pages_restored s.ref_mem

(* Livelock guard: the most reference steps allowed between two commit
   events before the run is declared a timeout. *)
let max_gap = 1_000_000_000

let run_in ?(fuel = max_int) s =
  let module L = (val s.btlib : Btlib.Btos.S) in
  let engine = s.engine in
  let ref_vos = s.ref_vos in
  let cur = ref s.rst0 in
  let commits = ref 0 in
  let ref_exited = ref None in
  (* Reproducer ring buffer: the reference instructions since the last
     good commit, kept as (eip, decoded insn) and rendered to text only
     when a divergence is raised. The insn comes from the reference
     state's decode cache, so the [Interp.step] that follows hits the
     same entry: each step decodes at most once, and a hit allocates
     nothing. [wfetched.(i)] is false where the EIP could not be
     decoded. *)
  let weip = Array.make window_cap 0 in
  let winsn = Array.make window_cap Ia32.Insn.Nop in
  let wfetched = Array.make window_cap false in
  let wlen = ref 0 and wnext = ref 0 in
  let wreset () =
    wlen := 0;
    wnext := 0
  in
  let wpush () =
    let rst = !cur in
    let eip = rst.Ia32.State.eip in
    let ic = rst.Ia32.State.icache and mem = rst.Ia32.State.mem in
    let i = !wnext in
    let slot = Ia32.Icache.find ic mem eip in
    weip.(i) <- eip;
    wfetched.(i) <-
      (if slot >= 0 then begin
         winsn.(i) <- Ia32.Icache.insn ic slot;
         true
       end
       else
         match Ia32.Decode.decode mem eip with
         | insn, len ->
           Ia32.Icache.fill ic mem eip insn len;
           winsn.(i) <- insn;
           true
         | exception _ -> false);
    wnext := (i + 1) mod window_cap;
    if !wlen < window_cap then incr wlen
  in
  let wcontents () =
    List.init !wlen (fun k ->
        let i = (!wnext - !wlen + k + window_cap) mod window_cap in
        if wfetched.(i) then
          Printf.sprintf "%#x: %s" weip.(i) (Ia32.Insn.to_string winsn.(i))
        else Printf.sprintf "%#x: <unfetchable>" weip.(i))
  in
  let diverge event diffs =
    raise
      (Diverged
         { commit_index = !commits; event; diffs; window = wcontents () })
  in
  (* advance the reference interpreter to its next observable event *)
  let step_ref_to_event () =
    let rst = !cur in
    let steps = ref 0 in
    let rec go () =
      if !steps > max_gap then R_timeout
      else begin
        wpush ();
        match Ia32.Interp.step rst with
        | Ia32.Interp.Normal ->
          incr steps;
          go ()
        | Ia32.Interp.Syscall n -> R_syscall n
        | Ia32.Interp.Faulted f -> R_fault f
      end
    in
    go ()
  in
  let compare_at event est =
    match diff_states est !cur with
    | [] ->
      incr commits;
      wreset ()
    | diffs -> diverge event diffs
  in
  (* Select the reference thread matching the engine's committing thread.
     At a commit the engine has not yet rescheduled, so [current_tid] is
     the thread whose syscall/fault this is. A thread resuming from a
     blocking syscall is owed its wake value (join result, futex wake) —
     the engine encodes it at resume; the reference encodes it here, at
     the thread's first commit after waking, which is the same
     architectural point. *)
  let sync_thread () =
    let tid = Engine.current_tid engine in
    Btlib.Vos.set_current ref_vos tid;
    match Btlib.Vos.find_thread ref_vos tid with
    | Some th ->
      cur := th.Btlib.Vos.state;
      (match Btlib.Vos.take_wake th with
      | Some v -> L.encode_result th.Btlib.Vos.state v
      | None -> ())
    | None -> ()
  in
  let mismatch event got =
    let expected = Fmt.str "%a" pp_event event in
    diverge event
      [ Printf.sprintf "event: engine reached %s, reference %s" expected got ]
  in
  let on_commit event (est : Ia32.State.t) =
    sync_thread ();
    match event with
    | Engine.Commit_syscall n -> (
      match step_ref_to_event () with
      | R_syscall rn when rn = n -> (
        compare_at event est;
        let rst = !cur in
        let call = L.decode_syscall rst in
        match L.perform ref_vos rst call with
        | Btlib.Syscall.Exited code -> ref_exited := Some code
        | Btlib.Syscall.Ret v -> L.encode_result rst v
        | Btlib.Syscall.Block ->
          (* thread parked in the reference table; the engine's commit
             stream will select the next thread via [sync_thread] *)
          ())
      | R_syscall rn ->
        mismatch event (Printf.sprintf "syscall %d" rn)
      | R_fault f ->
        mismatch event ("fault " ^ Ia32.Fault.to_string f)
      | R_timeout -> mismatch event "no commit event (step bound hit)")
    | Engine.Commit_fault f -> (
      let deliver rf =
        compare_at event est;
        match L.deliver_exception ref_vos !cur rf with
        | Btlib.Vos.Resumed -> ()
        | Btlib.Vos.Unhandled _ -> ()
        (* unhandled on both sides: the outcomes are compared at the end *)
      in
      match step_ref_to_event () with
      | R_fault rf when Ia32.Fault.equal rf f -> deliver rf
      | R_syscall rn when rn <> L.syscall_vector && f = Ia32.Fault.Breakpoint
        ->
        (* a foreign syscall vector traps: the engine reports it as a
           breakpoint fault; the reference sees the raw syscall *)
        deliver Ia32.Fault.Breakpoint
      | R_fault rf ->
        mismatch event ("fault " ^ Ia32.Fault.to_string rf)
      | R_syscall rn ->
        mismatch event (Printf.sprintf "syscall %d" rn)
      | R_timeout -> mismatch event "no commit event (step bound hit)")
    | Engine.Commit_exit code -> (
      match !ref_exited with
      | Some rc when rc = code -> compare_at event est
      | Some rc ->
        mismatch event (Printf.sprintf "exit %d" rc)
      | None ->
        (* engine exit without a preceding exit syscall (machine-level
           program end): the reference cannot observe this *)
        mismatch event "still running")
  in
  let full_commit =
    match s.base_commit with
    | None -> on_commit
    | Some base ->
      fun event est ->
        base event est;
        on_commit event est
  in
  engine.Engine.on_commit <- Some full_commit;
  match Engine.run ~fuel engine s.st0 with
  | outcome -> { commits = !commits; outcome = Some outcome; divergence = None }
  | exception Diverged d ->
    { commits = !commits; outcome = None; divergence = Some d }

let run ?config ?fuel ?attach ~btlib mem (st0 : Ia32.State.t) =
  let s = create ?config ?attach ~btlib mem st0 in
  run_in ?fuel s
