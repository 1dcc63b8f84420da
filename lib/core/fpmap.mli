(** Static x87 stack tracking during translation of one block (paper
    §4.3).

    The block speculates that the top-of-stack (TOS) it saw at
    translation time holds for every entry, so ST(i) maps to a fixed IPF
    FP register throughout the block body — no rotation, no memory.
    FXCHG is eliminated by permuting the static map instead of emitting
    copies; the permutation is materialized with real moves only if it
    is not the identity at block exit (compiled code's FXCH pairs
    usually cancel).

    The tracker also accumulates the entry assumptions (which physical
    slots must be Valid / Empty) for the block-head TAG check, and the
    net TOS/TAG effect for the block-exit status update.

    Terminology: an {e architectural slot} is the x86 physical register
    number (0-7) that TAG bits and MMX aliasing refer to; the {e IPF
    slot} is where the value lives after FXCHG permutation. Validity is
    always tracked per architectural slot. *)

type t = {
  entry_tos : int;  (** speculated TOS at entry *)
  mutable vtos : int;  (** current virtual TOS (0-7) *)
  map : int array;  (** architectural slot -> IPF slot (FXCHG) *)
  mutable need_valid : int;  (** slots that must be Valid at entry *)
  mutable need_empty : int;
  mutable known_valid : int;  (** slots known Valid at this point *)
  mutable known_empty : int;
  mutable written : int;  (** slots written by this block *)
  mutable used : bool;  (** any x87 instruction translated *)
}

exception Static_fault
(** The block's own code is statically guaranteed to stack-fault (e.g.
    pops more than it pushes against its own pushes); translation bails
    out and lets the runtime interpret to raise the precise fault. *)

val create : entry_tos:int -> t

val read : t -> int -> int
(** Record a read of ST(i) (must be Valid; recorded as an entry
    assumption when unknown) and return its FR.
    @raise Static_fault when the slot is known Empty. *)

val write : t -> int -> int
(** A write to an already-allocated ST(i), like [FST st(i)]. *)

val push : t -> int
(** Push: the new top slot must be Empty; returns the FR of ST(0). *)

val pop : t -> unit
val free : t -> int -> unit
(** [FFREE]: mark ST(i) Empty without a pop. *)

val fxch : t -> int -> unit
(** Eliminate an FXCH by swapping the static map of ST(0) and ST(i). *)

val incstp : t -> unit
val decstp : t -> unit

val tos_delta : t -> int
(** Net TOS delta of the block (exit = entry + delta, mod 8). *)

val tag_updates : t -> int * int
(** TAG masks the block applies at exit: (set_valid, set_empty). *)

val exit_permutation : t -> int list list
(** Moves needed at block exit to restore the identity permutation, as
    cycles over IPF slots (empty when the block's FXCHs cancelled). *)

val copy : t -> t
(** Structural copy, for emitting side-exit stubs from mid-trace state. *)
