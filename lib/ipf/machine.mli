(** The EPIC machine state: register files, guest memory with fault
    conversion, the ALAT, the dcache model and the cost primitives of the
    grouped-issue timing model. {!Exec} holds the instruction semantics
    and runs them against this state.

    Timing models the in-order grouped pipeline: each instruction group
    (delimited by stop bits) issues when its source registers are ready,
    spans [ceil(weight / issue_slots)] cycles, and writes its
    destinations' ready cycles at issue + latency. An intra-group RAW
    dependence conservatively splits the group. Data-cache stalls extend
    the group of the load that missed.

    Every cycle charged is attributed to a bucket chosen by [bucket_fn]
    from the current bundle index, which is how the engine splits time
    between cold and hot translated code without leaving the machine. *)

type fault_kind =
  | F_misalign  (** access not naturally aligned *)
  | F_page  (** access to unmapped / protection-violating memory *)
  | F_nat  (** NaT consumption by a non-speculative instruction *)

type fault = {
  kind : fault_kind;
  addr : int;
  size : int;
  store : bool;
  ip : int;  (** bundle index of the faulting instruction *)
  slot : int;
}

(** Why {!Exec.run} returned. *)
type stop = Exited of Insn.exit_reason | Faulted of fault | Fuel

exception Machine_fault of fault_kind * int * int * bool
(** Internal signal for memory faults: kind, addr, size, store. *)

type stats = {
  mutable cycles : int;
  mutable groups : int;
  mutable slots_retired : int;  (** non-nop slots *)
  mutable loads : int;
  mutable stores : int;
  mutable taken_branches : int;
  mutable dcache_stall : int;
  mutable spec_checks : int;  (** executed speculation-check branches *)
}

val fresh_stats : unit -> stats

type t = {
  gr : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** 128 general registers; [r0] reads as zero. A [Bigarray] so the
          execution core can commit fresh values without boxing them. *)
  nat : bool array;
  fr : float array;  (** 128 floating registers; [f0]=0.0, [f1]=1.0 *)
  fnat : bool array;
  pr : bool array;  (** 64 predicates; [p0] is always true *)
  br : int array;  (** 8 branch registers holding bundle indices *)
  mem : Ia32.Memory.t;
  tcache : Tcache.t;
  dcache : Dcache.t;
  cost : Cost.t;
  alat : (int, int * int) Hashtbl.t;  (** ALAT: GR -> (addr, size) *)
  ready : int array;  (** ready cycle per GR (timing only) *)
  fready : int array;  (** ready cycle per FR *)
  stats : stats;
  mutable ip : int;  (** current bundle index *)
  mutable slot : int;
  mutable bucket_fn : int -> int;
      (** maps a bundle index to a cycle-attribution bucket (0..7) *)
  buckets : int array;
  mutable charge_probe : (int -> int -> unit) option;
      (** observability probe mirroring every charge (bundle index,
          delta); must not touch machine state *)
  mutable last_exit : int * int;
      (** bundle/slot of the most recent [Out _] exit branch taken, used
          by the engine to chain blocks *)
  mutable dc_skip_lo : int;
      (** address range [\[dc_skip_lo, dc_skip_hi)] whose loads/stores
          bypass the dcache model — the translator's profile arena, so
          instrumentation traffic never perturbs modeled guest cycles *)
  mutable dc_skip_hi : int;
  hotc : int array;
      (** hot-counter table bumped by {!Insn.Hotc} pseudo-ops; machine-
          owned so counter traffic never touches the modeled dcache *)
  edgec : int array;  (** taken-edge counters bumped by {!Insn.Edgec} *)
}

val counter_slots : int
(** Size (power of two) of the [hotc]/[edgec] tables. *)

val counter_slot : int -> int
(** Hash a guest address to a counter slot. Shared by the translator
    (slot assignment at emission) and the engine's profile reader; two
    addresses may alias one slot, which merely heats the pair earlier. *)

val edgec_saturate : int
(** Ceiling at which [edgec] slots stop counting. *)

val create : ?cost:Cost.t -> ?dcache:Dcache.t -> Ia32.Memory.t -> Tcache.t -> t

val dcache_access : t -> int -> int
(** Dcache-model stall cycles for an access at an address — 0 inside the
    [dc_skip] range, {!Dcache.access} otherwise. The single charge point
    for all load/store cost. *)

(** {1 Register access} *)

val get : t -> Insn.gr -> int64
val get_nat : t -> Insn.gr -> bool
val set : t -> Insn.gr -> int64 -> unit

val set_nat : t -> Insn.gr -> unit
(** Mark a GR's NaT bit (deferred speculative fault). *)

val getf : t -> Insn.fr -> float
val setf : t -> Insn.fr -> float -> unit
val getp : t -> Insn.pr -> bool
val setp : t -> Insn.pr -> bool -> unit

val get32 : t -> Insn.gr -> int
(** Low 32 bits of a GR as a non-negative int (IA-32 state lives in the
    low halves of canonic GRs). *)

val set32 : t -> Insn.gr -> int -> unit

val charge : t -> int -> unit
(** Advance the cycle counter, attributing to the current bundle's
    bucket. The engine uses this to price runtime events (translation,
    dispatch, OS work) in machine time. *)

(** {1 Primitives of the execution core ({!Exec})} *)

val do_load : t -> addr:int -> size:int -> int64
(** @raise Machine_fault on misalignment or page fault. *)

val do_store : t -> addr:int -> size:int -> int64 -> unit
(** Stores, invalidating overlapping ALAT entries.
    @raise Machine_fault on misalignment or page fault. *)

val latency_of : t -> Insn.t -> int
(** Result latency class of an instruction under [t.cost]. *)

val slot_weight : Insn.t -> int
(** Issue weight of one slot (long immediates consume two). *)

val close_group : t -> srcs_ready:int -> weight:int -> extra:int -> int
(** Charge one closing instruction group and return its issue cycle. *)
