(** The BTOS API (paper §3): the binary-level contract between the
    OS-independent translator (BTGeneric, [lib/core]) and the thin
    OS-specific glue (BTLib).

    The same BTGeneric runs unchanged on every BTLib implementation; each
    BTLib maps the guest's system-call convention and the host OS
    services. A version handshake guards the pairing: major versions must
    match exactly; a BTLib with an older minor version than BTGeneric
    requires is rejected, a newer one is accepted. *)

type version = { major : int; minor : int }

val btgeneric_version : version
(** The BTOS version this BTGeneric implements/requires. *)

type handshake =
  | Compatible
  | Major_mismatch of version * version
  | Btlib_too_old of version * version

val handshake_ok : btlib:version -> btgeneric:version -> bool

(** The services BTLib provides to BTGeneric. All OS knowledge (syscall
    numbering, interrupt vector, register convention, allocation policy)
    lives behind this interface. *)
module type S = sig
  val name : string
  val version : version

  val syscall_vector : int
  (** The software-interrupt vector this OS uses for system services. *)

  val decode_syscall : Ia32.State.t -> Syscall.call
  (** Decode the guest's register convention into an OS-independent
      call. *)

  val encode_result : Ia32.State.t -> int -> unit
  (** Write a service result back into the guest's registers. *)

  val alloc_region : Vos.t -> len:int -> int
  (** Reserve address space for translated-code bookkeeping. Returns the
      base of a fresh region of [len] bytes. *)

  val perform : Vos.t -> Ia32.State.t -> Syscall.call -> Syscall.result
  (** Execute a system service through the underlying OS. *)

  val deliver_exception :
    Vos.t -> Ia32.State.t -> Ia32.Fault.t -> Vos.exception_outcome
  (** Deliver an exception (precise IA-32 state already reconstructed). *)
end

type btlib = (module S)

exception Version_mismatch of string

val init : (module S) -> btlib
(** BTGeneric-side initialisation: checks the handshake before returning
    a usable BTLib, mirroring the paper's load-time version control.
    @raise Version_mismatch when the handshake fails. *)
