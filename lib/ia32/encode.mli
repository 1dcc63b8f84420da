(** IA-32 binary encoder (assembler back end).

    Emits real x86 machine code — prefixes, opcode, ModRM, SIB,
    displacement, immediate — for the modeled subset. Branches are always
    emitted in their rel32 forms so instruction length does not depend on
    the target, which lets {!Asm} lay programs out in a single pass. *)

exception Cannot_encode of string

(** [encode ~ip insn] is the machine code of [insn] when placed at address
    [ip] (needed for relative branch displacements). *)
val encode : ip:int -> Insn.insn -> string
