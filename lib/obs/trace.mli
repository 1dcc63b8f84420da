(** Structured engine tracing.

    A fixed-capacity ring buffer of typed events stamped with the
    engine's virtual cycle clock. Producers hold a [t option] and emit
    only under [Some], so disabled tracing costs a single branch and no
    allocation. The retained window exports as Chrome [trace_event]
    JSON (loadable in chrome://tracing or Perfetto). *)

type phase = Cold | Hot

type ev =
  | Dispatch of { eip : int }
  | Trans_begin of { phase : phase; entry : int }
  | Trans_end of { phase : phase; entry : int; insns : int; cycles : int }
  | Heat_trigger of { entry : int; registered : int }
  | Chain_patch of { bundle : int; slot : int }
  | Spec_miss of { kind : string; entry : int }
      (** [kind] is one of ["tos"], ["park"], ["tag"], ["mode"], ["sse"]. *)
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
      (** a snapshot epoch was opened; [event_index] is the absolute
          trace-stream index of this event ({!absolute_index} at emit
          time) — the time-travel anchor tying traced events to the
          epoch that can rewind to just before them. *)

type event = { at : int; tid : int; ev : ev }
(** [tid] is the guest thread scheduled when the event was emitted (0 for
    single-threaded programs and producers outside the engine). *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes a trace with the default 65536-event window. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the virtual clock used to stamp [event.at]. The engine sets
    this to its own [now]; secondary producers (tcache, Vos) inherit the
    stamp through the shared trace value. *)

val set_tid_source : t -> (unit -> int) -> unit
(** Install the source of the currently scheduled guest tid used to stamp
    [event.tid]. Defaults to a constant 0. *)

val set_echo : t -> (event -> unit) -> unit
(** Install a hook called on every emitted event (used by
    [--trace-stderr] for live pretty-printing). *)

val emit : t -> ev -> unit

val capacity : t -> int
val length : t -> int
(** Number of events currently retained (≤ capacity). *)

val dropped : t -> int
(** Number of events that fell out of the ring window. *)

val absolute_index : t -> int
(** Stream position: total events emitted so far ([length] + [dropped]).
    The next emitted event gets this index. Snapshot layers record it to
    map any traced event back to the nearest earlier snapshot epoch. *)

val events : t -> event list
(** Retained events, oldest first. *)

val pp_event : event Fmt.t

val to_chrome : t -> Buffer.t
(** Render the retained window as a Chrome [trace_event] JSON array.
    Timestamps are virtual cycles placed in the microsecond field;
    translation and syscall events become complete ("X") spans, the rest
    instants. Leading metadata ("M") records name the guest process and
    every guest thread present in the window, so multithreaded traces
    show "guest thread N" lanes instead of bare tids. *)

val write_chrome : t -> out_channel -> unit
