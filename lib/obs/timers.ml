(* Host-side phase wall-timers.

   Answers "where does *host* time go" — translate vs execute vs
   persistent-cache I/O vs snapshot/revert — as a complement to the
   deterministic virtual-cycle accounting. Wall times are host-dependent
   by nature, so they are exported as Float fields and the report tool
   treats them as informational (never gated on).

   The clock is injectable so tests can drive it; the default is
   [Sys.time] (process CPU seconds) to keep lib/core free of unix. *)

type phase = Translate | Execute | Persist_io | Snapshot

let n_phases = 4
let index = function Translate -> 0 | Execute -> 1 | Persist_io -> 2 | Snapshot -> 3
let phase_name = function
  | Translate -> "translate"
  | Execute -> "execute"
  | Persist_io -> "persist_io"
  | Snapshot -> "snapshot"

let phases = [ Translate; Execute; Persist_io; Snapshot ]

type t = {
  clock : unit -> float;
  secs : float array;
  counts : int array;
}

let create ?(clock = Sys.time) () =
  { clock; secs = Array.make n_phases 0.0; counts = Array.make n_phases 0 }

let add t phase dt =
  let i = index phase in
  t.secs.(i) <- t.secs.(i) +. (if dt > 0.0 then dt else 0.0);
  t.counts.(i) <- t.counts.(i) + 1

let time t phase f =
  let t0 = t.clock () in
  Fun.protect ~finally:(fun () -> add t phase (t.clock () -. t0)) f

let to_json t =
  List.concat_map
    (fun p ->
      let i = index p in
      [
        (phase_name p ^ "_s", Metrics.Float t.secs.(i));
        (phase_name p ^ "_n", Metrics.Int t.counts.(i));
      ])
    phases

let pp ppf t =
  List.iter
    (fun p ->
      let i = index p in
      if t.counts.(i) > 0 then
        Fmt.pf ppf "%-10s %8.3fs  (%d spans)@." (phase_name p) t.secs.(i)
          t.counts.(i))
    phases
