(** Synthetic analogues of the SPEC CPU2000 integer suite (Figure 5).

    One kernel per benchmark, shaped like the original's hot loop:
    gzip (LZ hashing), vpr (placement swaps), gcc (bitmap dataflow),
    mcf (pointer chasing over a working set sized against the L2),
    crafty (bitboards), parser (dictionary walk), eon (virtual-call
    heavy rendering loop), perlbmk (string hashing/interp dispatch),
    gap (small-integer arithmetic), vortex (object store lookups),
    bzip2 (sorting/bit IO), twolf (annealing moves).

    Each has a [wide] variant with the LP64 idioms the native compiler
    would use; DESIGN.md documents the shapes and the deviations. *)

val gzip : Common.t
val vpr : Common.t
val mcf : Common.t
val crafty : Common.t
val twolf : Common.t

val all : Common.t list
(** The twelve benchmarks in the paper's Figure 5 order. *)
