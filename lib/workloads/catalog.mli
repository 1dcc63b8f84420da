(** Every bundled workload, in [ia32el-run list] order: the names the
    command-line tools accept. *)

val all : threads:int -> Common.t list
(** [threads] is the worker count of the multithreaded workloads. *)

val find : threads:int -> string -> Common.t option
(** The workload of that name, if any. *)
