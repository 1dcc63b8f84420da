(** IA-32 architectural exceptions ("faults").

    Raised by {!Memory} and {!Interp} via the {!Fault} exception; the
    translator's engine converts IPF-level faults back into these before
    delivering them to the guest (the paper's precise-exception path). *)

type access = Read | Write | Fetch

type t =
  | Page_fault of int * access
  | Divide_error
  | Invalid_opcode
  | Fp_stack_fault
  | Fp_fault
  | Simd_fault
  | Privileged
  | Breakpoint

exception Fault of t

val to_string : t -> string

(** IA-32 exception vector number (0 = #DE, 6 = #UD, 14 = #PF, ...). *)
val vector : t -> int

val equal : t -> t -> bool
