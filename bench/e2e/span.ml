(* In-memory span recorder for traced runs.

   A span is one call into a layer, timed from the benchmark's side of
   the boundary: name (layer), start, end, parent span and the op (pass,
   request or input) it belongs to. Each layer's self time is its spans'
   duration minus the part covered by child spans, accumulated online
   with an explicit stack, so the per-layer self times of an op always
   sum to the op's wall time. The op's own self time is the
   unattributed remainder.

   Minor-heap words and major collections are attributed the same way.
   The stack, the totals and the log are preallocated unboxed arrays, so
   recording an execution span allocates nothing and any other span only
   the closure it wraps. *)

type layer =
  | Op
  | Instance_build
  | Persist_load
  | Persist_install
  | Translate_cold
  | Translate_hot
  | Exec
  | Engine
  | Vos_syscall
  | Metrics_json
  | Marshal
  | Snapshot
  | Revert
  | Lockstep_ref

let layers =
  [
    Op;
    Instance_build;
    Persist_load;
    Persist_install;
    Translate_cold;
    Translate_hot;
    Exec;
    Engine;
    Vos_syscall;
    Metrics_json;
    Marshal;
    Snapshot;
    Revert;
    Lockstep_ref;
  ]

let n_layers = List.length layers

let index = function
  | Op -> 0
  | Instance_build -> 1
  | Persist_load -> 2
  | Persist_install -> 3
  | Translate_cold -> 4
  | Translate_hot -> 5
  | Exec -> 6
  | Engine -> 7
  | Vos_syscall -> 8
  | Metrics_json -> 9
  | Marshal -> 10
  | Snapshot -> 11
  | Revert -> 12
  | Lockstep_ref -> 13

let name = function
  | Op -> "op"
  | Instance_build -> "instance.build"
  | Persist_load -> "persist.load"
  | Persist_install -> "persist.install"
  | Translate_cold -> "translate.cold"
  | Translate_hot -> "translate.hot"
  | Exec -> "exec"
  | Engine -> "engine"
  | Vos_syscall -> "vos.syscall"
  | Metrics_json -> "serve.metrics_json"
  | Marshal -> "serve.marshal"
  | Snapshot -> "snapshot"
  | Revert -> "revert"
  | Lockstep_ref -> "lockstep.ref"

let names = Array.of_list (List.map name layers)

(* Major collections, counted by a GC alarm (fires once per finished
   major cycle) so reading the counter at every boundary is free. *)
let majors = ref 0
let _alarm = Gc.create_alarm (fun () -> incr majors)

(* ---- the open-span stack ---- *)

let max_depth = 64
let st_layer = Array.make max_depth 0
let st_id = Array.make max_depth (-1)
let st_t0 = Float.Array.make max_depth 0.
let st_w0 = Float.Array.make max_depth 0.
let st_m0 = Array.make max_depth 0
let st_ct = Float.Array.make max_depth 0. (* time covered by children *)
let st_cw = Float.Array.make max_depth 0.
let st_cm = Array.make max_depth 0
let st_kids = Array.make max_depth 0
let st_pending = Array.make max_depth false
let depth = ref 0

(* ---- per-layer totals since the last [reset] ---- *)

let self_t = Float.Array.make n_layers 0.
let self_w = Float.Array.make n_layers 0.
let self_m = Array.make n_layers 0
let count = Array.make n_layers 0

(* ---- the span log (written out at exit) ---- *)

let cap = ref 0
let lg_len = ref 0
let lg_dropped = ref 0
let lg_layer = ref [||]
let lg_op = ref [||]
let lg_parent = ref [||]
let lg_n = ref [||]
let lg_start = ref (Float.Array.make 0 0.)
let lg_end = ref (Float.Array.make 0 0.)
let lg_busy = ref (Float.Array.make 0 0.)
let op_id = ref (-1)
let epoch = Unix.gettimeofday ()

let enable ~capacity =
  cap := capacity;
  lg_layer := Array.make capacity 0;
  lg_op := Array.make capacity 0;
  lg_parent := Array.make capacity 0;
  lg_n := Array.make capacity 0;
  lg_start := Float.Array.make capacity 0.;
  lg_end := Float.Array.make capacity 0.;
  lg_busy := Float.Array.make capacity 0.

let reset () =
  Float.Array.fill self_t 0 n_layers 0.;
  Float.Array.fill self_w 0 n_layers 0.;
  Array.fill self_m 0 n_layers 0;
  Array.fill count 0 n_layers 0

let push l ~pending =
  let d = !depth in
  if d >= max_depth then failwith "Span: stack overflow";
  let li = index l in
  let t = Unix.gettimeofday () in
  let id =
    if !lg_len < !cap then begin
      let i = !lg_len in
      incr lg_len;
      !lg_layer.(i) <- li;
      !lg_op.(i) <- !op_id;
      !lg_parent.(i) <- (if d > 0 then st_id.(d - 1) else -1);
      !lg_n.(i) <- 1;
      Float.Array.set !lg_start i (t -. epoch);
      i
    end
    else begin
      incr lg_dropped;
      -1
    end
  in
  if d > 0 then st_kids.(d - 1) <- st_kids.(d - 1) + 1;
  st_layer.(d) <- li;
  st_id.(d) <- id;
  st_pending.(d) <- pending;
  Float.Array.set st_ct d 0.;
  Float.Array.set st_cw d 0.;
  st_cm.(d) <- 0;
  st_kids.(d) <- 0;
  Float.Array.set st_w0 d (Gc.minor_words ());
  st_m0.(d) <- !majors;
  Float.Array.set st_t0 d t;
  depth := d + 1

let last_dur = Float.Array.make 1 0.

let pop () =
  let t = Unix.gettimeofday () in
  let w = Gc.minor_words () in
  let m = !majors in
  let d = !depth - 1 in
  if d < 0 then failwith "Span: pop on empty stack";
  let dur = t -. Float.Array.get st_t0 d in
  Float.Array.set last_dur 0 dur;
  let dw = w -. Float.Array.get st_w0 d in
  let dm = m - st_m0.(d) in
  let li = st_layer.(d) in
  (* a Timers span with layer spans inside it was a translation request,
     not machine execution: charge its own time to the engine *)
  let li = if li = index Exec && st_kids.(d) > 0 then index Engine else li in
  Float.Array.set self_t li
    (Float.Array.get self_t li +. dur -. Float.Array.get st_ct d);
  Float.Array.set self_w li
    (Float.Array.get self_w li +. dw -. Float.Array.get st_cw d);
  self_m.(li) <- self_m.(li) + dm - st_cm.(d);
  count.(li) <- count.(li) + 1;
  if d > 0 then begin
    Float.Array.set st_ct (d - 1) (Float.Array.get st_ct (d - 1) +. dur);
    Float.Array.set st_cw (d - 1) (Float.Array.get st_cw (d - 1) +. dw);
    st_cm.(d - 1) <- st_cm.(d - 1) + dm
  end;
  let id = st_id.(d) in
  if id >= 0 then begin
    !lg_layer.(id) <- li;
    Float.Array.set !lg_end id (t -. epoch);
    Float.Array.set !lg_busy id dur;
    (* coalesce back-to-back execution spans of one parent into one
       record (count [n], summed busy time): the step loop is entered
       tens of thousands of times per guest *)
    let prev = id - 1 in
    if
      li = index Exec
      && id = !lg_len - 1
      && prev >= 0
      && !lg_layer.(prev) = li
      && !lg_parent.(prev) = !lg_parent.(id)
    then begin
      Float.Array.set !lg_end prev (t -. epoch);
      Float.Array.set !lg_busy prev (Float.Array.get !lg_busy prev +. dur);
      !lg_n.(prev) <- !lg_n.(prev) + 1;
      decr lg_len
    end
  end;
  depth := d

(* A pending span stays open until the next span starts beside it or
   its parent closes: the reference side of a lockstep commit has no
   closing call of its own. *)
let close_pending () = if !depth > 0 && st_pending.(!depth - 1) then pop ()

(* Recording switch: untraced ops run the same code with every span
   call reduced to a branch. *)
let on = ref false

let enter l =
  close_pending ();
  push l ~pending:false

let enter_pending l =
  if !on then begin
    close_pending ();
    push l ~pending:true
  end

let leave () =
  close_pending ();
  pop ()

let wrap ~open_ f =
  if not !on then f ()
  else begin
    open_ ();
    match f () with
    | r ->
      leave ();
      r
    | exception e ->
      leave ();
      raise e
  end

let with_ l f = wrap ~open_:(fun () -> enter l) f

(* Open [l] under the current span even if that span is pending. *)
let with_nested l f = wrap ~open_:(fun () -> push l ~pending:false) f

(* Timers drives [tick] at the start and the end of each of its spans,
   which never nest; odd calls open, even calls close. *)
let ticking = ref false

let tick () =
  if not !on then ()
  else if !ticking then begin
    ticking := false;
    leave ()
  end
  else begin
    ticking := true;
    enter Exec
  end

let op_begin () =
  incr op_id;
  enter Op

(* Close the op; returns its wall seconds. *)
let op_end () =
  leave ();
  Float.Array.get last_dur 0

(* ---- readout ---- *)

let self_seconds l = Float.Array.get self_t (index l)
let self_minor_words l = Float.Array.get self_w (index l)
let self_majors l = self_m.(index l)
let spans l = count.(index l)

let write path =
  let oc = open_out path in
  for i = 0 to !lg_len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"op\":%d,\"parent\":%d,\"layer\":%S,\"start_us\":%.1f,\
       \"end_us\":%.1f,\"n\":%d,\"busy_us\":%.1f}\n"
      i !lg_op.(i) !lg_parent.(i) names.(!lg_layer.(i))
      (Float.Array.get !lg_start i *. 1e6)
      (Float.Array.get !lg_end i *. 1e6)
      !lg_n.(i)
      (Float.Array.get !lg_busy i *. 1e6)
  done;
  if !lg_dropped > 0 then
    Printf.fprintf oc "{\"dropped\":%d}\n" !lg_dropped;
  close_out oc
