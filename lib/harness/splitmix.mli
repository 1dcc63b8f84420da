(** Deterministic splitmix64 stream shared by {!Inject} and {!Fuzz.Rng}:
    the same seed always yields the same sequence. *)

type t

val create : int -> t
(** [create seed] starts a stream; small consecutive seeds give
    unrelated streams. *)

val next : t -> int64
(** The next 64 bits of the stream. *)
