(** x87 FPU stack model: eight physical registers addressed through the TOP
    pointer, TAG word, condition codes, and the MMX registers aliased onto
    the physical registers (any MMX op sets TOP=0 and all tags Valid; EMMS
    empties the stack — the exact behaviour the translator's MMX/FP aliasing
    speculation exploits).

    Empty-entry reads and full-entry pushes raise
    [Fault.Fault Fp_stack_fault]. *)

type tag = Valid | Empty

type t = {
  fval : float array;
  ival : int64 array;
  tags : tag array;
  mutable top : int;
  mutable c0 : bool;
  mutable c1 : bool;
  mutable c2 : bool;
  mutable c3 : bool;
}

val create : unit -> t

(** Physical register index of ST(i). *)
val phys : t -> int -> int

val get : t -> int -> float
val set : t -> int -> float -> unit
val push : t -> float -> unit
val pop : t -> unit
val free : t -> int -> unit
val incstp : t -> unit
val decstp : t -> unit
val fxch : t -> int -> unit

(** FCOM-style compare of ST(0) with a value; sets C3/C2/C0. *)
val compare_with : t -> float -> unit

(** The FNSTSW AX status-word image (C0..C3 and TOP fields). *)
val status_word : t -> int

val tag_word : t -> int

val mmx_get : t -> int -> int64
val mmx_set : t -> int -> int64 -> unit
val emms : t -> unit

val copy : t -> t
val equal : t -> t -> bool

val logical_equal : t -> t -> bool
(** ST(i)-relative equality: ignores the physical TOP rotation, comparing
    the logical stack the guest sees. Two correct executions may differ in
    physical TOP after a TOS-speculation recovery rotated one register
    file; [logical_equal] treats them as equal where {!equal} would not. *)

val pp : Format.formatter -> t -> unit
