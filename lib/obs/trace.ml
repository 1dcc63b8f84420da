(* Structured engine tracing: a fixed-capacity ring buffer of typed
   events, stamped with the engine's virtual clock. The buffer is a leaf
   data structure — producers (engine, tcache, Vos) hold a [t option] and
   emit only under [Some], so a disabled trace costs one branch and zero
   allocation per potential event. The recorded window exports as Chrome
   [trace_event] JSON (chrome://tracing, Perfetto) or pretty-prints line
   by line for [--trace-stderr]. *)

type phase = Cold | Hot

type ev =
  | Dispatch of { eip : int }
  | Trans_begin of { phase : phase; entry : int }
  | Trans_end of { phase : phase; entry : int; insns : int; cycles : int }
  | Heat_trigger of { entry : int; registered : int }
  | Chain_patch of { bundle : int; slot : int }
  | Spec_miss of { kind : string; entry : int }
  | Machine_fault of { kind : string; addr : int; bundle : int }
  | Fault_delivered of { fault : string; eip : int }
  | Recovery of { path : string; eip : int }
  | Smc_invalidation of { addr : int; victims : int }
  | Tcache_evict of { bundles : int }
  | Tcache_invalidate of { start : int; len : int }
  | Syscall_enter of { name : string }
  | Syscall_exit of { name : string; kernel_cycles : int; idle_cycles : int }
  | Degrade of { kind : string; key : int }
  | Thread_spawn of { tid : int; entry : int }
  | Thread_exit of { tid : int; code : int }
  | Thread_switch of { from_tid : int; to_tid : int }
  | Exit_program of { code : int }
  | Snapshot of { epoch : int; event_index : int }

type event = { at : int; tid : int; ev : ev }

type t = {
  buf : event array;
  cap : int;
  mutable total : int; (* events ever emitted; buffer index = total mod cap *)
  mutable clock : unit -> int;
  mutable tid_source : unit -> int; (* currently scheduled guest tid *)
  mutable echo : (event -> unit) option;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  let cap = max 1 capacity in
  {
    buf = Array.make cap { at = 0; tid = 0; ev = Dispatch { eip = 0 } };
    cap;
    total = 0;
    clock = (fun () -> 0);
    tid_source = (fun () -> 0);
    echo = None;
  }

let set_clock t f = t.clock <- f
let set_tid_source t f = t.tid_source <- f
let set_echo t f = t.echo <- Some f

let emit t ev =
  let e = { at = t.clock (); tid = t.tid_source (); ev } in
  t.buf.(t.total mod t.cap) <- e;
  t.total <- t.total + 1;
  match t.echo with Some f -> f e | None -> ()

let capacity t = t.cap
let length t = min t.total t.cap
let dropped t = max 0 (t.total - t.cap)
let absolute_index t = t.total

(* Retained events, oldest first. *)
let events t =
  let n = length t in
  let first = t.total - n in
  List.init n (fun k -> t.buf.((first + k) mod t.cap))

let phase_name = function Cold -> "cold" | Hot -> "hot"

let name = function
  | Dispatch _ -> "dispatch"
  | Trans_begin { phase = Cold; _ } -> "translate_cold_begin"
  | Trans_begin { phase = Hot; _ } -> "translate_hot_begin"
  | Trans_end { phase = Cold; _ } -> "translate_cold"
  | Trans_end { phase = Hot; _ } -> "translate_hot"
  | Heat_trigger _ -> "heat_trigger"
  | Chain_patch _ -> "chain_patch"
  | Spec_miss _ -> "spec_miss"
  | Machine_fault _ -> "machine_fault"
  | Fault_delivered _ -> "fault_delivered"
  | Recovery _ -> "recovery"
  | Smc_invalidation _ -> "smc_invalidation"
  | Tcache_evict _ -> "tcache_evict"
  | Tcache_invalidate _ -> "tcache_invalidate"
  | Syscall_enter _ -> "syscall_enter"
  | Syscall_exit _ -> "syscall"
  | Degrade _ -> "degrade"
  | Thread_spawn _ -> "thread_spawn"
  | Thread_exit _ -> "thread_exit"
  | Thread_switch _ -> "thread_switch"
  | Exit_program _ -> "exit_program"
  | Snapshot _ -> "snapshot"

(* The argument payload as (key, value) pairs; strings are tagged so the
   JSON export can quote them. *)
type arg = Anum of int | Astr of string

let args = function
  | Dispatch { eip } -> [ ("eip", Anum eip) ]
  | Trans_begin { phase; entry } ->
    [ ("phase", Astr (phase_name phase)); ("entry", Anum entry) ]
  | Trans_end { phase; entry; insns; cycles } ->
    [
      ("phase", Astr (phase_name phase));
      ("entry", Anum entry);
      ("insns", Anum insns);
      ("cycles", Anum cycles);
    ]
  | Heat_trigger { entry; registered } ->
    [ ("entry", Anum entry); ("registered", Anum registered) ]
  | Chain_patch { bundle; slot } ->
    [ ("bundle", Anum bundle); ("slot", Anum slot) ]
  | Spec_miss { kind; entry } -> [ ("kind", Astr kind); ("entry", Anum entry) ]
  | Machine_fault { kind; addr; bundle } ->
    [ ("kind", Astr kind); ("addr", Anum addr); ("bundle", Anum bundle) ]
  | Fault_delivered { fault; eip } ->
    [ ("fault", Astr fault); ("eip", Anum eip) ]
  | Recovery { path; eip } -> [ ("path", Astr path); ("eip", Anum eip) ]
  | Smc_invalidation { addr; victims } ->
    [ ("addr", Anum addr); ("victims", Anum victims) ]
  | Tcache_evict { bundles } -> [ ("bundles", Anum bundles) ]
  | Tcache_invalidate { start; len } ->
    [ ("start", Anum start); ("len", Anum len) ]
  | Syscall_enter { name } -> [ ("call", Astr name) ]
  | Syscall_exit { name; kernel_cycles; idle_cycles } ->
    [
      ("call", Astr name);
      ("kernel_cycles", Anum kernel_cycles);
      ("idle_cycles", Anum idle_cycles);
    ]
  | Degrade { kind; key } -> [ ("kind", Astr kind); ("key", Anum key) ]
  | Thread_spawn { tid; entry } ->
    [ ("tid", Anum tid); ("entry", Anum entry) ]
  | Thread_exit { tid; code } -> [ ("tid", Anum tid); ("code", Anum code) ]
  | Thread_switch { from_tid; to_tid } ->
    [ ("from", Anum from_tid); ("to", Anum to_tid) ]
  | Exit_program { code } -> [ ("code", Anum code) ]
  | Snapshot { epoch; event_index } ->
    [ ("epoch", Anum epoch); ("event_index", Anum event_index) ]

(* Keys whose numeric payload is a guest address: pretty-print in hex. *)
let hex_keys = [ "eip"; "entry"; "addr"; "key" ]

(* The emitting thread is shown only when nonzero, so single-threaded
   trace output is byte-identical to the pre-thread format. *)
let pp_event ppf { at; tid; ev } =
  if tid = 0 then Fmt.pf ppf "[%d] %s" at (name ev)
  else Fmt.pf ppf "[%d] t%d %s" at tid (name ev);
  List.iter
    (fun (k, v) ->
      match v with
      | Astr s -> Fmt.pf ppf " %s=%s" k s
      | Anum n when List.mem k hex_keys -> Fmt.pf ppf " %s=0x%x" k n
      | Anum n -> Fmt.pf ppf " %s=%d" k n)
    (args ev)

(* ---- Chrome trace_event export ---------------------------------------- *)

(* Events with an intrinsic span render as complete ("X") trace events;
   everything else is an instant ("i"). Timestamps are virtual cycles,
   reported in the trace_event microsecond field. *)
let span = function
  | Trans_end { cycles; _ } -> Some cycles
  | Syscall_exit { kernel_cycles; idle_cycles; _ } ->
    Some (kernel_cycles + idle_cycles)
  | _ -> None

let to_chrome t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let metadata name tid value =
    if not !first then Buffer.add_string buf ",\n" else Buffer.add_char buf '\n';
    first := false;
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
         name tid);
    Buffer.add_string buf "\"args\":{\"name\":\"";
    Metrics.escape buf value;
    Buffer.add_string buf "\"}}"
  in
  let evs = events t in
  (* Metadata records first: viewers apply process/thread names to every
     later event regardless of position, but leading keeps diffs tidy. *)
  metadata "process_name" 1 "ia32el guest";
  let tids =
    List.sort_uniq compare (List.map (fun { tid; _ } -> tid) evs)
  in
  List.iter
    (fun tid ->
      let label = if tid = 0 then "guest main" else Printf.sprintf "guest thread %d" tid in
      metadata "thread_name" (tid + 1) label)
    tids;
  List.iter
    (fun { at; tid; ev } ->
      if not !first then Buffer.add_string buf ",\n" else Buffer.add_char buf '\n';
      first := false;
      Buffer.add_string buf "{\"name\":\"";
      Metrics.escape buf (name ev);
      (* chrome tids are 1-based; guest tid 0 maps to trace tid 1 *)
      Buffer.add_string buf (Printf.sprintf "\",\"pid\":1,\"tid\":%d," (tid + 1));
      (match span ev with
      | Some dur ->
        Buffer.add_string buf
          (Printf.sprintf "\"ph\":\"X\",\"ts\":%d,\"dur\":%d,"
             (max 0 (at - dur)) dur)
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "\"ph\":\"i\",\"s\":\"t\",\"ts\":%d," at));
      Buffer.add_string buf "\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Metrics.escape buf k;
          Buffer.add_string buf "\":";
          match v with
          | Anum n -> Buffer.add_string buf (string_of_int n)
          | Astr s ->
            Buffer.add_char buf '"';
            Metrics.escape buf s;
            Buffer.add_char buf '"')
        (args ev);
      Buffer.add_string buf "}}")
    evs;
  Buffer.add_string buf "\n]\n";
  buf

let write_chrome t oc = Buffer.output_buffer oc (to_chrome t)
