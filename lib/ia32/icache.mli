(** Direct-mapped decoded-instruction cache for the reference interpreter.

    Entries are keyed by EIP and validated with one generation compare per
    source page ({!Memory.page_gen}); any write, remap or protection change
    to a source page invalidates affected entries implicitly. A hit
    allocates nothing. Purely a host-speed structure: interpreter results
    are bit-identical with the cache on or off. *)

type t

val create : unit -> t

val set_enabled : t -> bool -> unit
(** When disabled, {!find} always misses and {!fill} is a no-op, so every
    step goes through the real decoder. *)

val find : t -> Memory.t -> int -> int
(** [find t mem eip] is the slot index of a valid entry for [eip], or [-1].
    Pass the slot to {!insn} / {!len}. *)

val insn : t -> int -> Insn.insn
val len : t -> int -> int

val fill : t -> Memory.t -> int -> Insn.insn -> int -> unit
(** [fill t mem eip insn len] records a decode that just succeeded. *)
