(** Per-guest-block cycle attribution.

    With a profile attached, the engine mirrors every cycle charged by
    the machine onto the guest block owning the current bundle, split by
    translation phase; translation and recovery overhead are recorded
    separately at their charge sites. Cycles with no owning block
    (dispatcher, interpreter, runtime glue) go to the runtime bucket. *)

type phase = Cold | Hot

type row = {
  mutable cold_cycles : int;
  mutable hot_cycles : int;
  mutable translate_cycles : int;
  mutable recovery_cycles : int;
}

type t

val create : unit -> t

val note_exec : t -> entry:int -> phase:phase -> cycles:int -> unit
val note_translate : t -> entry:int -> cycles:int -> unit
val note_recovery : t -> entry:int -> cycles:int -> unit
val note_runtime : t -> cycles:int -> unit

val exec_cycles : row -> int

val top : int -> t -> (int * row) list

val runtime_cycles : t -> int
val hot_exec : t -> int
val cold_exec : t -> int

val render :
  ?top:int ->
  ?name_of:(int -> string option) ->
  ?samples:(int -> int) * int ->
  Format.formatter ->
  t ->
  unit
(** Render a top-N hot-spot table. [name_of] maps a guest entry EIP to a
    symbolic label (e.g. nearest assembler label). [samples] is
    [(samples_of_entry, total_samples)] from an attached virtual-cycle
    sampler; when present a sample-share column appears next to the
    cycle share. *)
