(** Code discovery: decoding basic blocks around a translation entry and
    running the EFLAGS liveness analysis over the neighbourhood (paper
    §2: the cold translator analyses "up to 20 blocks" around each entry
    to avoid computing dead flag values). *)

(** Coarse instruction class, used to split blocks whose mixture would
    break the block-level x87/MMX mode speculation. *)
type insn_class = C_int | C_fpu | C_mmx | C_sse

val class_of : Ia32.Insn.insn -> insn_class

val class_conflict : insn_class -> insn_class -> bool
(** Only the x87/MMX pair conflicts: a block must be all-FP or all-MMX. *)

type terminator =
  | T_jmp of int
  | T_jcc of Ia32.Insn.cond * int * int  (** cond, taken, fallthrough *)
  | T_call of int * int  (** target, return address *)
  | T_indirect  (** indirect jmp/call or ret *)
  | T_syscall of int * int  (** vector, next ip *)
  | T_fault  (** hlt/ud2: always faults *)
  | T_fallthrough of int  (** block split: falls into next address *)

type bb = {
  insns : (int * Ia32.Insn.insn) array;  (** (address, instruction) *)
  term : terminator;
  next : int;  (** address after the last instruction *)
}

val decode_bb : Ia32.Memory.t -> int -> bb
(** Decode one basic block. Raises [Decode.Invalid] / [Fault.Fault] only
    for bad bytes at the {e first} instruction; later bad bytes end the
    block with [T_fault] (reached only if actually executed). *)

val succs : bb -> int list
(** Direct (statically known) successors. *)

type region = { blocks : (int, bb) Hashtbl.t  (** by start address *) }

val discover : Ia32.Memory.t -> entry:int -> region
(** BFS over direct successors up to 16 basic blocks: the neighbourhood a
    cold entry's EFLAGS liveness is computed over. *)

(** {1 EFLAGS liveness} *)

val flag_bit : Ia32.Insn.flag -> int
val mask_of_flags : Ia32.Insn.flag list -> int
val all_flags_mask : int

val flags_liveness : region -> (int, int) Hashtbl.t
(** Per-instruction liveness-out of the 7 EFLAGS bits, as a map from
    instruction address to bitmask. Unknown successors (indirect,
    syscalls, region boundary, calls) are treated as all-live. The kill
    set is {!Ia32.Insn.flags_def_must} — flags an instruction only
    {e may} define (CL shifts with a possibly-zero count) stay live. *)

val flags_to_set : (int, int) Hashtbl.t -> int -> Ia32.Insn.insn -> Ia32.Insn.flag list
(** Flags an instruction must actually materialize: its definitions that
    are live-out. *)
