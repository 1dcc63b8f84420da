(** Virtual-cycle sampling profiler.

    Samples are triggered by the engine's deterministic virtual clock —
    every [interval] guest cycles, observed at commit points — never by
    host time, so the sample stream and the folded flamegraph export are
    byte-identical across runs of the same image and configuration.

    Attachment is recording-only: the engine polls [due] (one compare)
    and calls [record] only when a boundary has been crossed; nothing
    here charges cycles or touches guest state. *)

type t

val create : interval:int -> labels:(string * int) list -> t
(** [create ~interval ~labels] samples every [interval] (> 0) virtual
    cycles, attributing EIPs to the greatest label at or below them
    (within 64 KiB; otherwise an anonymous 4 KiB-page bucket). [labels]
    is [Asm.image.labels]-shaped: name, address. *)

val due : t -> now:int -> bool
(** One integer compare — the only work on the hot path. *)

val record :
  t -> now:int -> tid:int -> eip:int -> entry:int -> phase:string ->
  degraded:bool -> unit
(** Fold a sample into the "tN;symbol;phase[;degraded]" stack bucket and
    the per-block-entry table, weighted by the number of interval
    boundaries crossed since the previous poll. Call only after [due]
    returned true (calling otherwise is a harmless no-op). *)

val interval : t -> int
val samples : t -> int
val bucket_count : t -> int

val entry_samples : t -> int -> int
(** Samples attributed to a given block/trace entry EIP — feeds the
    sample-share column of the --profile table. *)

val folded : t -> string
(** Collapsed-stack ("folded") flamegraph lines, sorted by stack key —
    pipe into flamegraph.pl or load into speedscope. Deterministic. *)

val write_folded : t -> string -> unit

val render_top : ?top_n:int -> Format.formatter -> t -> unit
(** Human-readable hot-region table with per-bucket sample share. *)
