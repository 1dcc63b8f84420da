(** IPF instruction bundles: three slots plus a template that fixes each
    slot's functional-unit kind, with stop bits delimiting instruction
    groups.

    Model deviations from real IPF (documented in DESIGN.md): stop bits
    are allowed after any slot (real templates restrict their positions),
    and [Movi] ([movl]) occupies one slot but is charged double width by
    the cost model (real MLX uses two slots). *)

type template = MII | MMI | MFI | MMF | MIB | MBB | BBB | MMB | MFB

val template_name : template -> string

type t = {
  template : template;
  slots : Insn.t array;  (** length 3 *)
  stops : bool array;  (** length 3; [stops.(i)] ends a group after slot i *)
}

val copy : t -> t
(** A bundle with slot and stop arrays of its own: the tcache patches
    bundles in place, so a copy kept aside must not share them. *)

exception Invalid of string

val check : t -> unit
(** Validate slot kinds against the template. @raise Invalid otherwise. *)

val make : ?stop_end:bool -> Insn.t list -> t
(** Build a bundle from at most three instructions in program order,
    padding unused slots with nops of the slot's kind. A trailing stop is
    set when [stop_end].
    @raise Invalid if more than three instructions or no template fits. *)
