(* Crash capsules: a self-contained, deterministic reproduction of one
   failing run.

   A capsule stores only plain data — the initial guest image (mapped
   pages with bytes and protections, dumped BEFORE the engine maps its
   profile arena), the initial architectural state, the translator
   configuration and the run parameters (fuel, watchdog bound, snapshot
   cadence, injection seed, lockstep mode) — plus the commit log the
   failing run produced and a description of the failure itself. Because
   the whole stack is deterministic, replaying from the start with the
   same parameters reproduces the run bit-identically; the replay
   verifies this by comparing every commit point (event, EIP, thread,
   virtual clock) against the recorded log and re-checking the failure
   class. The nearest auto-snapshot's epoch id and trace index are kept
   as a time-travel anchor into the recorded trace. *)

module E = Ia32el.Engine
module L = Ia32el.Lockstep
module Memory = Ia32.Memory

let magic = "IA32EL-CAPSULE/6"
let log_cap = 65536

type event = Ev_syscall of int | Ev_fault of string | Ev_exit of int

type entry = {
  en_clock : int;
  en_tid : int;
  en_eip : int;
  en_event : event;
}

(* A deterministic, serializable corruption: at the [sb_dispatch]-th
   slow-path dispatch, silently overwrite the machine's canonical copy of
   one guest register — the wrong-but-running state a real translator bug
   produces, expressed as plain data so a capsule can reinstall it on
   replay and reproduce the captured divergence. *)
type sabotage = { sb_dispatch : int; sb_reg : Ia32.Insn.reg; sb_value : int }

type failure =
  | F_bt_error of {
      fb_component : string;
      fb_what : string;
      fb_detail : string option;
    }
  | F_divergence of {
      fd_commit_index : int;
      fd_diffs : string list;
    }
  | F_unhandled_fault of string
  | F_other of string

(* plain-data image of Ia32.State.t minus memory and decode cache *)
type arch = {
  a_regs : int array;
  a_eip : int;
  a_cf : bool;
  a_pf : bool;
  a_af : bool;
  a_zf : bool;
  a_sf : bool;
  a_of : bool;
  a_df : bool;
  a_fval : float array;
  a_ival : int64 array;
  a_tags : Ia32.Fpu.tag array;
  a_top : int;
  a_c0 : bool;
  a_c1 : bool;
  a_c2 : bool;
  a_c3 : bool;
  a_xmm_lo : int64 array;
  a_xmm_hi : int64 array;
}

type t = {
  c_magic : string;
  c_pages : (int * Memory.prot * string) list; (* page no, prot, bytes *)
  c_arch : arch;
  c_config : Ia32el.Config.t;
  c_config_fp : int64;
      (* fingerprint of [c_config] under the writer's build — a reader
         whose translation semantics drifted recomputes a different
         value and must refuse to replay rather than mis-reproduce *)
  c_fuel : int;
  c_max_cycles : int option;
  c_snap_every : int option;
  c_inject_seed : int option;
  c_lockstep : bool;
  c_sabotage : sabotage option;
  c_snap_epoch : int option; (* nearest snapshot: epoch id... *)
  c_snap_trace_index : int option; (* ...and its absolute trace index *)
  c_log : entry list; (* first [log_cap] commit points *)
  c_log_total : int; (* commit points in the full run *)
  c_failure : failure;
}

(* ---- capture ----------------------------------------------------------- *)

let arch_of (st : Ia32.State.t) =
  let f = st.Ia32.State.fpu in
  {
    a_regs = Array.copy st.Ia32.State.regs;
    a_eip = st.Ia32.State.eip;
    a_cf = st.Ia32.State.cf;
    a_pf = st.Ia32.State.pf;
    a_af = st.Ia32.State.af;
    a_zf = st.Ia32.State.zf;
    a_sf = st.Ia32.State.sf;
    a_of = st.Ia32.State.of_;
    a_df = st.Ia32.State.df;
    a_fval = Array.copy f.Ia32.Fpu.fval;
    a_ival = Array.copy f.Ia32.Fpu.ival;
    a_tags = Array.copy f.Ia32.Fpu.tags;
    a_top = f.Ia32.Fpu.top;
    a_c0 = f.Ia32.Fpu.c0;
    a_c1 = f.Ia32.Fpu.c1;
    a_c2 = f.Ia32.Fpu.c2;
    a_c3 = f.Ia32.Fpu.c3;
    a_xmm_lo = Array.copy st.Ia32.State.xmm_lo;
    a_xmm_hi = Array.copy st.Ia32.State.xmm_hi;
  }

let dump_pages mem =
  List.filter_map
    (fun p ->
      match Memory.prot_of mem (p lsl Memory.page_bits) with
      | None -> None
      | Some prot ->
        Some (p, prot, Memory.dump_bytes mem (p lsl Memory.page_bits) Memory.page_size))
    (Memory.mapped_pages mem)

(* The parameters of one run: everything a capsule needs, besides the
   image and the initial state, to run it again. *)
type params = {
  p_config : Ia32el.Config.t;
  p_fuel : int;
  p_max_cycles : int option;
  p_snap_every : int option;
  p_inject_seed : int option;
  p_sabotage : sabotage option;
  p_lockstep : bool;
}

type recorder = {
  r_pages : (int * Memory.prot * string) list;
  r_arch : arch;
  r_params : params;
  mutable r_engine : E.t option;
  r_log : entry Queue.t;
  mutable r_total : int;
}

let recorder p mem (st : Ia32.State.t) =
  {
    r_pages = dump_pages mem;
    r_arch = arch_of st;
    r_params = p;
    r_engine = None;
    r_log = Queue.create ();
    r_total = 0;
  }

let event_of = function
  | E.Commit_syscall n -> Ev_syscall n
  | E.Commit_fault f -> Ev_fault (Ia32.Fault.to_string f)
  | E.Commit_exit code -> Ev_exit code

let record r eng ev (st : Ia32.State.t) =
  let ix = r.r_total in
  r.r_total <- ix + 1;
  if ix < log_cap then
    Queue.add
      {
        en_clock = E.clock eng;
        en_tid = E.current_tid eng;
        en_eip = st.Ia32.State.eip;
        en_event = event_of ev;
      }
      r.r_log

(* Chain onto whatever observer is already installed (the injector and
   the lockstep checker do the same), recording the commit BEFORE the
   previous observer runs so a diverging commit is in the log by the
   time the lockstep checker raises. *)
let observe r (eng : E.t) =
  r.r_engine <- Some eng;
  let prev = eng.E.on_commit in
  eng.E.on_commit <-
    Some
      (fun ev st ->
        record r eng ev st;
        match prev with Some f -> f ev st | None -> ())

let finalize r failure =
  let snap_epoch, snap_ix =
    match r.r_engine with
    | Some eng -> (
      match eng.E.snapshots with
      | ep :: _ -> (Some (E.epoch_id ep), Some (E.epoch_trace_index ep))
      | [] -> (None, None))
    | None -> (None, None)
  in
  let p = r.r_params in
  {
    c_magic = magic;
    c_pages = r.r_pages;
    c_arch = r.r_arch;
    c_config = p.p_config;
    c_config_fp = Persist.config_fingerprint p.p_config;
    c_fuel = p.p_fuel;
    c_max_cycles = p.p_max_cycles;
    c_snap_every = p.p_snap_every;
    c_inject_seed = p.p_inject_seed;
    c_sabotage = p.p_sabotage;
    c_lockstep = p.p_lockstep;
    c_snap_epoch = snap_epoch;
    c_snap_trace_index = snap_ix;
    c_log = List.of_seq (Queue.to_seq r.r_log);
    c_log_total = r.r_total;
    c_failure = failure;
  }

let sabotage_attach sb (eng : E.t) =
  let prev = eng.E.on_dispatch in
  let n = ref 0 in
  eng.E.on_dispatch <-
    Some
      (fun eip ->
        incr n;
        if !n = sb.sb_dispatch then
          Ipf.Machine.set32 eng.E.machine
            (Ia32el.Regs.gr_of_reg sb.sb_reg)
            sb.sb_value;
        match prev with Some f -> f eip | None -> ())

let reg_names =
  Ia32.Insn.
    [
      ("eax", Eax); ("ecx", Ecx); ("edx", Edx); ("ebx", Ebx);
      ("esp", Esp); ("ebp", Ebp); ("esi", Esi); ("edi", Edi);
    ]
  [@ocamlformat "disable"]

let reg_of_string s = List.assoc_opt (String.lowercase_ascii s) reg_names

let string_of_reg r =
  fst (List.find (fun (_, r') -> r' = r) reg_names)

let parse_sabotage spec =
  match String.split_on_char ':' spec with
  | [ d; r; v ] -> (
    match (int_of_string_opt d, reg_of_string r, int_of_string_opt v) with
    | Some sb_dispatch, Some sb_reg, Some sb_value
      when sb_dispatch > 0 ->
      Ok { sb_dispatch; sb_reg; sb_value }
    | _ ->
      Error
        (Printf.sprintf
           "bad sabotage spec %S (want DISPATCH:REG:VALUE, e.g.             10:esi:0xBEEF)"
           spec))
  | _ ->
    Error
      (Printf.sprintf
         "bad sabotage spec %S (want DISPATCH:REG:VALUE, e.g. 10:esi:0xBEEF)"
         spec)

(* ---- persistence ------------------------------------------------------- *)

(* The magic goes into the file as a raw byte header, checked {e before}
   anything is unmarshaled: [Marshal.from_channel] at a wrong type is
   memory-unsafe, so it must never see a non-capsule file. *)
let save file c =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc c [])

let corrupt_config_fp c fp = { c with c_config_fp = fp }

let load file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad got =
        invalid_arg
          (Printf.sprintf "%s: not an ia32el crash capsule (header %S)" file
             got)
      in
      let n = String.length magic in
      let header = try really_input_string ic n with End_of_file -> bad "" in
      (* an older capsule version marshals a different [t]: refuse it
         before [Marshal] runs *)
      if String.starts_with ~prefix:"IA32EL-CAPSULE/" header && header <> magic
      then
        Ia32el.Bt_error.fail ~component:"capsule"
          ~detail:(Printf.sprintf "file %S, build %S" header magic)
          "capsule format version mismatch: recorded by an incompatible \
           build, refusing to replay";
      if header <> magic then bad header;
      let c =
        try (Marshal.from_channel ic : t)
        with _ ->
          invalid_arg (Printf.sprintf "%s: truncated or corrupt capsule" file)
      in
      if c.c_magic <> magic then bad c.c_magic;
      let fp = Persist.config_fingerprint c.c_config in
      if fp <> c.c_config_fp then
        Ia32el.Bt_error.fail ~component:"capsule"
          ~detail:
            (Printf.sprintf "recorded %Lx, this build computes %Lx"
               c.c_config_fp fp)
          "capsule configuration fingerprint mismatch: recorded by an \
           incompatible build, refusing to replay";
      c)

(* ---- description ------------------------------------------------------- *)

let describe_failure = function
  | F_bt_error f ->
    Printf.sprintf "Bt_error %s: %s%s" f.fb_component f.fb_what
      (match f.fb_detail with Some d -> " (" ^ d ^ ")" | None -> "")
  | F_divergence d ->
    Printf.sprintf "lockstep divergence at commit %d (%d field diffs)"
      d.fd_commit_index
      (List.length d.fd_diffs)
  | F_unhandled_fault f -> "unhandled fault " ^ f
  | F_other s -> s

let describe c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "crash capsule (%s): %s\n" magic
       (describe_failure c.c_failure));
  Buffer.add_string b
    (Printf.sprintf
       "  image: %d pages; mode: %s; fuel %d%s%s%s\n"
       (List.length c.c_pages)
       (if c.c_lockstep then "lockstep" else "engine-only")
       c.c_fuel
       (match c.c_max_cycles with
       | Some n -> Printf.sprintf "; max-cycles %d" n
       | None -> "")
       (match c.c_snap_every with
       | Some n -> Printf.sprintf "; snapshot-every %d" n
       | None -> "")
       ((match c.c_inject_seed with
        | Some s -> Printf.sprintf "; inject seed %d" s
        | None -> "")
       ^
       match c.c_sabotage with
       | Some sb ->
         Printf.sprintf "; sabotage %d:%s:0x%x" sb.sb_dispatch
           (string_of_reg sb.sb_reg) sb.sb_value
       | None -> ""));
  Buffer.add_string b
    (Printf.sprintf "  commit log: %d recorded of %d total\n"
       (List.length c.c_log) c.c_log_total);
  (match (c.c_snap_epoch, c.c_snap_trace_index) with
  | Some id, Some ix ->
    Buffer.add_string b
      (Printf.sprintf "  nearest snapshot: epoch %d at trace index %d\n" id ix)
  | _ -> ());
  Buffer.contents b

(* ---- running ----------------------------------------------------------- *)

(* How a run ended, as a capsule failure: a structured translator error
   (the watchdog included), a lockstep divergence or an unhandled fault.
   A clean exit and running out of fuel are [F_other]: no failure, no
   capsule. *)
let failure_of = function
  | Error (e : Ia32el.Bt_error.t) ->
    F_bt_error
      {
        fb_component = e.Ia32el.Bt_error.component;
        fb_what = e.Ia32el.Bt_error.what;
        fb_detail = e.Ia32el.Bt_error.detail;
      }
  | Ok (r : L.report) -> (
    match r.L.divergence with
    | Some d ->
      F_divergence
        {
          fd_commit_index = d.L.commit_index;
          fd_diffs = d.L.diffs;
        }
    | None -> (
      match r.L.outcome with
      | Some (E.Unhandled_fault (f, _)) ->
        F_unhandled_fault (Ia32.Fault.to_string f)
      | Some (E.Exited (code, _)) ->
        F_other (Printf.sprintf "clean exit %d" code)
      | Some E.Out_of_fuel | None -> F_other "out of fuel"))

type run_result = {
  report : L.report;
  engine : E.t;
  inject_stats : Inject.stats option;
  failure : failure;
  capsule_written : string option;
}

(* The recorder is built before the engine exists: the initial image
   must not contain the profile arena the engine maps. The hooks go on
   in a fixed order — injector, sabotage, the caller's [attach], commit
   recorder — so the recorder, chained last, logs each commit before any
   other observer (the lockstep checker included) sees it. *)
let run ?capsule ?(attach = fun (_ : E.t) -> ()) p mem st =
  let recorder = Option.map (fun _ -> recorder p mem st) capsule in
  let injector =
    Option.map (fun seed -> Inject.create ~seed ()) p.p_inject_seed
  in
  let engine = ref None in
  let attach eng =
    engine := Some eng;
    eng.E.max_cycles <- p.p_max_cycles;
    eng.E.snap_every <- p.p_snap_every;
    Option.iter (fun i -> Inject.attach i eng) injector;
    Option.iter (fun sb -> sabotage_attach sb eng) p.p_sabotage;
    attach eng;
    Option.iter (fun r -> observe r eng) recorder
  in
  let ended =
    match
      if p.p_lockstep then
        L.run ~config:p.p_config ~fuel:p.p_fuel ~attach
          ~btlib:(module Btlib.Linuxsim)
          mem st
      else begin
        let eng =
          E.create ~config:p.p_config ~btlib:(module Btlib.Linuxsim) mem
        in
        attach eng;
        let outcome = E.run ~fuel:p.p_fuel eng st in
        { L.commits = 0; outcome = Some outcome; divergence = None }
      end
    with
    | report -> Ok report
    | exception Ia32el.Bt_error.Error e -> Error e
  in
  let failure = failure_of ended in
  let capsule_written =
    match (capsule, recorder, failure) with
    | Some file, Some r, (F_bt_error _ | F_divergence _ | F_unhandled_fault _)
      ->
      save file (finalize r failure);
      Some file
    | _ -> None
  in
  match ended with
  | Error e -> raise (Ia32el.Bt_error.Error e)
  | Ok report ->
    {
      report;
      engine = Option.get !engine;
      inject_stats = Option.map Inject.stats injector;
      failure;
      capsule_written;
    }

(* ---- replay ------------------------------------------------------------ *)

type verdict = {
  v_reproduced : bool;
  v_log_match : int;
  v_log_total : int;
  v_failure_got : string;
}

let rebuild_mem c =
  let mem = Memory.create () in
  List.iter
    (fun (p, prot, bytes) ->
      let addr = p lsl Memory.page_bits in
      Memory.map mem ~addr ~len:Memory.page_size ~prot:Memory.prot_rwx;
      Memory.load_bytes mem addr bytes;
      Memory.protect mem ~addr ~len:Memory.page_size ~prot)
    c.c_pages;
  mem

let rebuild_state c mem =
  let st = Ia32.State.create mem in
  let a = c.c_arch in
  Array.blit a.a_regs 0 st.Ia32.State.regs 0 (Array.length a.a_regs);
  st.Ia32.State.eip <- a.a_eip;
  st.Ia32.State.cf <- a.a_cf;
  st.Ia32.State.pf <- a.a_pf;
  st.Ia32.State.af <- a.a_af;
  st.Ia32.State.zf <- a.a_zf;
  st.Ia32.State.sf <- a.a_sf;
  st.Ia32.State.of_ <- a.a_of;
  st.Ia32.State.df <- a.a_df;
  let f = st.Ia32.State.fpu in
  Array.blit a.a_fval 0 f.Ia32.Fpu.fval 0 (Array.length a.a_fval);
  Array.blit a.a_ival 0 f.Ia32.Fpu.ival 0 (Array.length a.a_ival);
  Array.blit a.a_tags 0 f.Ia32.Fpu.tags 0 (Array.length a.a_tags);
  f.Ia32.Fpu.top <- a.a_top;
  f.Ia32.Fpu.c0 <- a.a_c0;
  f.Ia32.Fpu.c1 <- a.a_c1;
  f.Ia32.Fpu.c2 <- a.a_c2;
  f.Ia32.Fpu.c3 <- a.a_c3;
  Array.blit a.a_xmm_lo 0 st.Ia32.State.xmm_lo 0 (Array.length a.a_xmm_lo);
  Array.blit a.a_xmm_hi 0 st.Ia32.State.xmm_hi 0 (Array.length a.a_xmm_hi);
  st

let entry_matches (e : entry) ~clock ~tid ~eip ~event =
  e.en_clock = clock && e.en_tid = tid && e.en_eip = eip && e.en_event = event

let replay ?(log = ignore) c =
  let mem = rebuild_mem c in
  let st = rebuild_state c mem in
  let expected = Array.of_list c.c_log in
  let matched = ref 0 and total = ref 0 and in_prefix = ref true in
  let verify eng ev (est : Ia32.State.t) =
    let ix = !total in
    incr total;
    if !in_prefix && ix < Array.length expected then
      if
        entry_matches expected.(ix) ~clock:(E.clock eng)
          ~tid:(E.current_tid eng) ~eip:est.Ia32.State.eip
          ~event:(event_of ev)
      then incr matched
      else begin
        in_prefix := false;
        log
          (Printf.sprintf
             "replay: commit %d differs from the recorded log (got %s at \
              0x%x, clock %d)"
             ix
             (match event_of ev with
             | Ev_syscall n -> Printf.sprintf "syscall %d" n
             | Ev_fault f -> "fault " ^ f
             | Ev_exit code -> Printf.sprintf "exit %d" code)
             est.Ia32.State.eip (E.clock eng))
      end
  in
  let verify_commits (eng : E.t) =
    let prev = eng.E.on_commit in
    eng.E.on_commit <-
      Some
        (fun ev est ->
          verify eng ev est;
          match prev with Some f -> f ev est | None -> ())
  in
  let p =
    {
      p_config = c.c_config;
      p_fuel = c.c_fuel;
      p_max_cycles = c.c_max_cycles;
      p_snap_every = c.c_snap_every;
      p_inject_seed = c.c_inject_seed;
      p_sabotage = c.c_sabotage;
      p_lockstep = c.c_lockstep;
    }
  in
  let got =
    match run ~attach:verify_commits p mem st with
    | r -> r.failure
    | exception Ia32el.Bt_error.Error e -> failure_of (Error e)
  in
  let same_failure =
    match (c.c_failure, got) with
    | F_bt_error a, F_bt_error b ->
      a.fb_component = b.fb_component && a.fb_what = b.fb_what
    | F_divergence a, F_divergence b -> a.fd_commit_index = b.fd_commit_index
    | F_unhandled_fault a, F_unhandled_fault b -> a = b
    | F_other a, F_other b -> a = b
    | _ -> false
  in
  let log_ok = !in_prefix && !matched = Array.length expected in
  {
    v_reproduced = same_failure && log_ok;
    v_log_match = !matched;
    v_log_total = Array.length expected;
    v_failure_got = describe_failure got;
  }
