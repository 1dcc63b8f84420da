(** IPF instruction bundles: three slots plus a template that fixes each
    slot's functional-unit kind, with stop bits delimiting instruction
    groups.

    Model deviations from real IPF (documented in DESIGN.md): stop bits
    are allowed after any slot (real templates restrict their positions),
    and [Movi] ([movl]) occupies one slot but is charged double width by
    the cost model (real MLX uses two slots). *)

type template = MII | MMI | MFI | MMF | MIB | MBB | BBB | MMB | MFB

val template_kinds : template -> Insn.unit_kind list
(** The three slot kinds of a template, in order. *)

val all_templates : template list
val template_name : template -> string

type t = {
  template : template;
  slots : Insn.t array;  (** length 3 *)
  stops : bool array;  (** length 3; [stops.(i)] ends a group after slot i *)
}

val copy : t -> t
(** A bundle with slot and stop arrays of its own: the tcache patches
    bundles in place, so a copy kept aside must not share them. *)

val kind_fits : slot:Insn.unit_kind -> insn:Insn.unit_kind -> bool
(** Whether an instruction of unit kind [insn] may occupy a slot of kind
    [slot]. ALU ([I]-kind) instructions also fit [M] slots, mirroring
    real A-type instructions; everything else needs its own kind. *)

exception Invalid of string

val check : t -> unit
(** Validate slot kinds against the template. @raise Invalid otherwise. *)

val nop_for : Insn.unit_kind -> Insn.t

val make : ?stop_end:bool -> Insn.t list -> t
(** Build a bundle from at most three instructions in program order,
    padding unused slots with nops of the slot's kind. A trailing stop is
    set when [stop_end].
    @raise Invalid if more than three instructions or no template fits. *)

val pp : Format.formatter -> t -> unit
