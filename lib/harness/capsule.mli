(** Crash capsules: self-contained deterministic reproductions of one
    failing run, serialized to a file [ia32el-run --replay] re-executes.

    A capsule holds only plain data: the initial guest image (every
    mapped page's bytes and protection, dumped before the engine maps
    its profile arena), the initial architectural state, the translator
    {!Ia32el.Config.t} and the run parameters (fuel, watchdog bound,
    auto-snapshot cadence, injection seed, lockstep mode), plus the
    commit log the failing run produced (event, EIP, thread, virtual
    clock per commit point) and the failure itself. The whole stack is
    deterministic, so replaying from the start with the same parameters
    reproduces the run bit-identically; {!replay} verifies the commit
    log entry by entry and re-checks the failure class. The nearest
    auto-snapshot's epoch id and absolute trace index are recorded as a
    time-travel anchor into the run's {!Obs.Trace} stream. *)

val magic : string
(** File format tag, ["IA32EL-CAPSULE/6"]: version 2 added the configuration fingerprint ({!Persist.config_fingerprint}) checked at load — a capsule recorded by a build with different translation semantics is refused with a structured error (component ["capsule"]) instead of silently mis-replaying. Versions 3 to 6 mark four shrinkings of {!Ia32el.Config.t} (version 6 also dropped the failure and log-entry fields replay never read); a capsule with an older version tag is refused the same way, before anything is unmarshalled. *)

type event = Ev_syscall of int | Ev_fault of string | Ev_exit of int

type entry = {
  en_clock : int; (** virtual clock at the commit point *)
  en_tid : int;
  en_eip : int;
  en_event : event;
}

type sabotage = { sb_dispatch : int; sb_reg : Ia32.Insn.reg; sb_value : int }
(** A deterministic, serializable corruption: at the [sb_dispatch]-th
    slow-path dispatch, silently overwrite the machine's canonical copy
    of one guest register — the wrong-but-running state a real
    translator bug produces, as plain data a capsule can reinstall on
    replay ([ia32el-run --sabotage], the lockstep oracle self-test). *)

type failure =
  | F_bt_error of {
      fb_component : string;
      fb_what : string;
      fb_detail : string option;
    }  (** a structured {!Ia32el.Bt_error} (includes the watchdog) *)
  | F_divergence of {
      fd_commit_index : int;
      fd_diffs : string list;
    }  (** lockstep divergence *)
  | F_unhandled_fault of string
  | F_other of string

type t

(** {1 Running} *)

type params = {
  p_config : Ia32el.Config.t;
  p_fuel : int;
  p_max_cycles : int option;  (** runaway-guest watchdog bound *)
  p_snap_every : int option;  (** auto-snapshot cadence *)
  p_inject_seed : int option;  (** attach the {!Inject} chaos injector *)
  p_sabotage : sabotage option;
  p_lockstep : bool;  (** run against the reference interpreter *)
}
(** The parameters of one run: what a capsule records, besides the image
    and the initial state, to run it again. *)

type run_result = {
  report : Ia32el.Lockstep.report;
      (** an engine-only run reports its outcome with [commits = 0]:
          nothing was compared *)
  engine : Ia32el.Engine.t;
  inject_stats : Inject.stats option;
  failure : failure;
      (** how the run ended; [F_other] for a clean exit or running out
          of fuel *)
  capsule_written : string option;
      (** crash-capsule file written, when [capsule] was given and the
          run failed *)
}

val run :
  ?capsule:string ->
  ?attach:(Ia32el.Engine.t -> unit) ->
  params ->
  Ia32.Memory.t ->
  Ia32.State.t ->
  run_result
(** Run a loaded guest under the engine, in lockstep with the reference
    interpreter when [p_lockstep] is set. The engine gets the watchdog
    and snapshot knobs, then the injector, the sabotage, [attach] (the
    caller's hook: traces, profiles, a replay's commit checker) and, when
    [capsule] names a file, a commit-log recorder, in that order. Call
    on a freshly loaded [(mem, st)]: the recorder captures the initial
    image before the engine maps its profile arena. The capsule is
    written when the run diverges, ends in an unhandled fault or raises a
    structured [Ia32el.Bt_error.Error] (the watchdog included); the error
    is re-raised after the capsule is saved. *)

val parse_sabotage : string -> (sabotage, string) result
(** Parse a ["DISPATCH:REG:VALUE"] spec (e.g. ["10:esi:0xBEEF"]). *)

(** {1 Persistence} *)

val save : string -> t -> unit

val load : string -> t
(** @raise Invalid_argument when the file is not a capsule.
    @raise Ia32el.Bt_error.Error (component ["capsule"]) when the file
    carries another capsule format version, or when the
    recorded configuration fingerprint does not match what this build
    computes for the same configuration — the capsule came from a build
    with different translation semantics and replaying it would not
    reproduce the recorded run. *)

val corrupt_config_fp : t -> int64 -> t
(** Fault-injection support (see {!Inject}): a copy of the capsule with
    its configuration fingerprint overwritten, for proving the load-time
    rejection above. *)

val describe : t -> string
(** Multi-line human summary (failure, image size, parameters, log
    length, snapshot anchor). *)

(** {1 Replay} *)

type verdict = {
  v_reproduced : bool;
      (** failure class matched and every recorded commit matched *)
  v_log_match : int; (** commit points that matched the recorded log *)
  v_log_total : int; (** commit points the capsule recorded *)
  v_failure_got : string;
}

val replay : ?log:(string -> unit) -> t -> verdict
(** Rebuild memory and state from the capsule and re-run from the start
    through {!run}, the runner that recorded it, under the recorded
    parameters, verifying each commit point against the recorded log. [log] receives
    a diagnostic line at the first mismatching commit, if any. *)
