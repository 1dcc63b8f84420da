(** Assembler DSL for authoring guest IA-32 programs.

    Items are instructions, labels, raw data and alignment directives;
    [assemble] resolves labels across sections by fixpoint and emits real
    machine code through {!Encode}. *)

type item =
  | Ins of Insn.insn
  | Ins_lab of string * (int -> Insn.insn)
  | Label of string
  | Raw of string
  | Raw_lab of string * (int -> string)
  | Align of int
  | Space of int

exception Error of string

val i : Insn.insn -> item
val label : string -> item
val raw : string -> item
val align : int -> item
val space : int -> item

val jmp : string -> item
val jcc : Insn.cond -> string -> item
val call : string -> item
val mov_ri_lab : Insn.reg -> string -> item

(** [with_lab name f] emits [f addr] once [name] resolves to [addr]; the
    encoded length must not oscillate with the address (widths may only
    shrink from the wide initial guess). *)
val with_lab : string -> (int -> Insn.insn) -> item

val db : int -> item
val dw : int -> item
val dd : int -> item
val dq : int64 -> item
val df32 : float -> item
val df64 : float -> item

(** A data dword holding a label's address (jump-table entry). *)
val dd_lab : string -> item

type section = { base : int; items : item list }

val section : base:int -> item list -> section

(** Assemble sections with shared labels; returns [(base, bytes)] per
    section plus the label-lookup function. *)
val assemble : section list -> (int * string) list * (string -> int)

val default_code_base : int
val default_data_base : int
val default_stack_top : int

type image = {
  entry : int;
  code_base : int;
  code : string;
  data_base : int;
  data : string;
  stack_top : int;
  lookup : string -> int;
  labels : (string * int) list;
      (** every label with its resolved address, sorted by address — lets
          observability consumers name guest blocks symbolically *)
}

(** Build a two-section program image at {!default_code_base} and
    {!default_data_base}; the entry is label ["start"]. *)
val build : code:item list -> data:item list -> unit -> image

(** Map the image into guest memory (code RX unless [writable_code]), map a
    stack, and return a fresh architectural state at the entry point. *)
val load : ?writable_code:bool -> image -> Memory.t -> State.t
