(** Code-generation buffer: collects IPF instructions in groups (stop-bit
    boundaries) with local labels, then lowers them into bundles appended
    to the translation cache.

    Local branch targets become bundle indices; a label always starts a
    fresh bundle because branch targets are bundle-aligned. Each
    instruction carries a tag (the hot phase's commit-region id) that
    lowering propagates to bundles so the engine can map a faulting
    bundle back to its commit region. *)

type item =
  | I of Ipf.Insn.t * int  (** instruction, tag (-1 = none) *)
  | Stop  (** close the current instruction group *)
  | Lbl of int  (** local label id *)

type seq = Nil | One of item | Cat of seq * seq
(** Catenation tree in reversed program order: O(1) {!emit} and O(1)
    {!prepend}, flattened once at {!lower}. *)

type t = {
  mutable items : seq;  (** reversed *)
  mutable next_label : int;
}

val create : unit -> t
val new_label : t -> int

val emit : ?tag:int -> t -> Ipf.Insn.t -> unit
val stop : t -> unit
val bind : t -> int -> unit

val prepend : t -> t -> unit
(** [prepend t head] puts [head]'s items before [t]'s (block-head checks
    in front of an already generated body) in O(1). *)

val local : int -> Ipf.Insn.target
(** Branch-target placeholder for a local label, encoded as
    [To (-1 - l)] during generation and fixed up at lowering. *)

val lower : t -> Ipf.Tcache.t -> int * int * int array
(** Pack into bundles appended to the cache: a bundle never spans a Stop
    or a label, branches terminate their bundle, labels bind to the next
    bundle index. Returns [(first_bundle, n_bundles, bundle_tags)] where
    [bundle_tags.(k)] is the commit tag covering bundle [first + k]. *)
