(** Coverage-steered differential fuzzer for the whole translation stack.

    A seeded splitmix64 generator produces {e well-formed} guest programs
    at the {!Ia32.Asm} DSL level (never raw bytes), drawing from weighted
    feature pools that map to the paper's hard cases: EFLAGS-dependent ALU
    chains, x87 push/pop churn across the TOS/TAG speculation boundary,
    MMX<->FP aliasing flips, SSE ops, misaligned and page-straddling
    accesses, bounded loops (including heat loops that push blocks into
    the hot phase), self-modifying stores, and guest-thread atoms
    (spawn/join pairs, deadlock-free futex handshakes, yields and the
    thread syscalls' error paths), all lockstep-checked. Every candidate runs under
    {!Ia32el.Lockstep} with a set of {!Inject} seeds; a diverging input is
    minimized by a structural shrinker over the DSL program and emitted as
    a paste-ready [Asm] reproducer.

    A feature-coverage map (opcode x operand-shape buckets from the
    generated instructions, engine-event buckets from the counters
    section of {!Ia32el.Engine.metrics}) steers generation toward
    unexercised
    paths; programs that light up new buckets are persisted to a corpus
    directory. *)

(** Deterministic PRNG over the {!Splitmix} stream {!Inject} also draws
    from. *)
module Rng : sig
  type t

  val create : int -> t
  val int : t -> int -> int (** uniform in [\[0, n)], [n > 0] *)
end

(** {1 Programs} *)

(** A generated instruction-level item. Branch targets are symbolic so the
    shrinker can restructure programs without address arithmetic. *)
type fitem =
  | FI of Ia32.Insn.insn
  | FLabel of string
  | FJmp of string
  | FJcc of Ia32.Insn.cond * string
  | FPatch of string * int
      (** self-modifying store: patch the imm32 of the [mov reg, imm32]
          sitting at the named label (offset +1 into its encoding) *)
  | FMovlab of Ia32.Insn.reg * string
      (** load the named label's address into a register (thread entry
          points for the spawn syscall) *)

type atom =
  | Block of { pool : string; items : fitem list }
  | Loop of { pool : string; id : int; count : int; body : atom list }

type prog = { seed : int; atoms : atom list }

val scratch_base : int
(** Base of the generated programs' scratch data region (register [ebp]
    holds this value throughout a generated program). *)

val build_image : prog -> Ia32.Asm.image
val insn_count : prog -> int (** emitted instructions, labels excluded *)

val prog_insns : prog -> Ia32.Insn.insn list
(** Every instruction the program assembles to, with symbolic branch
    targets replaced by representative in-range addresses — the input to
    the encode/decode round-trip property. *)

val pools : prog -> string list
(** Distinct generator pools the program draws from. *)

val pp_prog_asm : Format.formatter -> prog -> unit

(** {1 Coverage} *)

(** The coverage buckets a campaign has lit so far (see {!generate}'s
    [steer]). *)
module Coverage : sig
  type t
end

(** {1 Generation} *)

val generate : ?steer:Coverage.t -> rng:Rng.t -> max_insns:int -> int -> prog
(** [generate ~rng ~max_insns seed] builds one well-formed program of at
    most [max_insns] emitted instructions. [steer] biases pool selection
    toward pools whose target buckets are still uncovered. [seed] is
    recorded in the program for reproduction. *)

val gen_insn : Rng.t -> Ia32.Insn.insn
(** One random encodable instruction (decoder-surface sampling, used by
    the boundary fuzz and round-trip tests); not necessarily executable
    in a well-formed program. *)

(** {1 Running} *)

type run_result =
  | R_ok of { commits : int; exit_code : int }
  | R_halted of Ia32.Fault.t
      (** both vehicles agreed on a terminal architectural fault *)
  | R_fuel
  | R_diverged of Ia32el.Lockstep.divergence
  | R_crash of string (** an OCaml exception escaped the stack *)

type exec = { result : run_result; engine : Ia32el.Engine.t option }

val run_one :
  ?config:Ia32el.Config.t ->
  ?fuel:int ->
  ?inject_seed:int ->
  ?attach_extra:(Ia32el.Engine.t -> unit) ->
  prog ->
  exec
(** Build the program image and run it under lockstep through
    {!Capsule.run}, optionally with the chaos injector at [inject_seed];
    [attach_extra] runs after the injector (it must chain [on_dispatch]
    if both are used). *)

(** {1 Findings and shrinking} *)

type classification = Diverged | Crashed | Livelocked

type finding = {
  prog : prog;
  inject_seed : int option;
  classification : classification;
  detail : string;
  window : string list; (** lockstep reproducer window, when diverged *)
}

val pp_finding : Format.formatter -> finding -> unit

(** {1 Campaigns} *)

type campaign_config = {
  seed : int;
  runs : int; (** programs to generate *)
  max_insns : int;
  inject_seeds : int list; (** chaos seeds per program (plus a clean run) *)
  shrink_findings : bool; (** at most 300 lockstep re-runs per finding *)
  fuel : int;
  max_findings : int; (** stop the campaign after this many findings *)
  corpus_dir : string option;
  attach_extra : (Ia32el.Engine.t -> unit) option;
  log : string -> unit;
}

val default_campaign : campaign_config

type campaign_result = {
  programs : int;
  executions : int; (** program x seed lockstep runs *)
  pools_hit : (string * int) list;
  coverage : (string * int) list;
  findings : finding list; (** shrunk when [shrink_findings] *)
  corpus_saved : int;
}

val campaign : campaign_config -> campaign_result

(** {1 Fork-server}

    A persistent lockstep session over one base program: engine,
    translations and the reference vehicle are built once, then each
    input is served by snapshotting both sides (copy-on-write page
    journal + OS/translator checkpoints), writing the mutated bytes into
    the scratch region of both memories, running the pair in lockstep
    and reverting. Runs after the first skip engine creation and keep
    translated blocks warm, which is where the throughput multiple over
    {!run_one} comes from. *)

type server

val mutation_span : int
(** Size of the mutable input region (the scratch area); mutation
    offsets are taken modulo this, relative to {!scratch_base}. *)

val server_start : ?fuel:int -> prog -> server
(** Load the program, build the session and leave it at the post-startup
    rest point every subsequent input starts from. *)

val server_run : server -> (int * int) list -> run_result
(** [server_run srv muts] snapshots, applies the [(offset, byte)]
    mutation to both memories, runs the pair in lockstep and reverts.
    [[]] runs the unmutated base input. *)

val server_pages_restored : server -> int
(** Cumulative pages restored by the server's reverts (both sides). *)

val server_engine : server -> Ia32el.Engine.t
(** The server's engine, for inspecting what it keeps between inputs. *)

val server_translations : server -> int
(** Cumulative live translations (cold blocks and hot traces) the
    engine ran while serving inputs. A deterministic count: the revert
    rewinds the engine's own counters, so this is taken before it. *)

type forkserver_config = {
  fs_seed : int;
  fs_programs : int; (** base programs, one server each *)
  fs_mutations : int; (** mutated runs per base, after the base input *)
  fs_max_insns : int;
  fs_fuel : int;
  fs_max_findings : int;
  fs_log : string -> unit;
}

val default_forkserver : forkserver_config

type forkserver_result = {
  fs_runs : int; (** inputs executed, base inputs included *)
  fs_bases : int;
  fs_findings : (finding * (int * int) list) list;
      (** each finding with the mutation that hit it *)
  fs_pages_restored : int;
  fs_translations : int;  (** {!server_translations}, summed *)
}

val forkserver_campaign : forkserver_config -> forkserver_result

(** {1 CLI helpers} *)

val parse_seed_spec : string -> (int list, string) result
(** Accepts ["3"], ["0-8"], ["3,7,11"] and combinations (["1,4-6"]). *)
