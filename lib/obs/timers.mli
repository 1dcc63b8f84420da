(** Host-side phase wall-timers: where *host* time goes (translate vs
    execute vs persistent-cache I/O vs snapshot), complementing the
    deterministic virtual-cycle accounting. Wall seconds are exported as
    Float fields; the report tool treats them as informational only —
    the regression gate never fires on them. *)

type phase = Translate | Execute | Persist_io | Snapshot

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to [Sys.time] (process CPU seconds; keeps lib/core
    unix-free). Injectable for tests. *)

val time : t -> phase -> (unit -> 'a) -> 'a
(** Run a thunk under a phase span; exceptions propagate, the span is
    still recorded ([Fun.protect]). *)

val add : t -> phase -> float -> unit
(** Record an externally measured span (seconds; negatives clamp to 0). *)

val to_json : t -> (string * Metrics.json) list
(** The ["host_timers"] section: [<phase>_s] Float seconds and
    [<phase>_n] Int span counts for every phase. *)

val pp : Format.formatter -> t -> unit
