(** Synthetic analogues of SPEC CPU2000 floating-point behaviour, used
    for the Figure 8 FP comparison.

    They exercise the translator's x87 stack machinery (TOS speculation,
    FXCHG elimination) and SSE modeling on kernels shaped like the FP
    suite: swim (2D stencil), mgrid (relaxation with FXCH-heavy chains),
    equake (sparse matrix-vector products), art (SSE packed-single dot
    products), ammp (distances with sqrt and divides). *)

val swim : Common.t
val mgrid : Common.t
val equake : Common.t
val art : Common.t
val all : Common.t list
