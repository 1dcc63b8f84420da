(** Crash-safe persistent translation cache (DESIGN.md S13).

    Serializes the translated-code store — cold blocks, hot traces,
    their reconstruction maps and the discover/heat metadata needed to
    rebuild translation-cache state — to a cache file keyed by
    (guest-image hash, config fingerprint, format version), so a second
    run of the same guest starts hot, and an AOT sweep can pre-translate
    a whole image.

    The cache only ever saves {e host} work. A run with a warm cache is
    bit-identical in every observable — guest output, cycle counts,
    [Account] totals, metrics — to the same run translating everything
    live: installs replay the recorded accounting delta, profile-arena
    slots are pinned at their recorded (dcache-inert) addresses, and
    block ids / bundle indices are remapped structurally at install.

    Robustness ladder: every load problem — bad magic, corrupt header,
    version or fingerprint mismatch, truncation, per-entry checksum
    failure — drops the affected entries with a structured
    {!Ia32el.Bt_error.t} diagnostic and degrades to live translation.
    Install-time validation (source-byte span, entry TOS, phase flags,
    hot-profile seeds, arena-pin success) rejects any entry the live
    translator would not reproduce; a damaged or stale cache can slow a
    run, never change it. The span is the one a recorded block carries
    ({!Ia32el.Block.t.span}), checked with {!Ia32el.Block.span_matches} —
    the same check a warm {!Ia32el.Engine.revert} judges translations
    by. *)

val format_version : int

(** {1 Checksums and fingerprints} *)

val crc32 : ?init:int -> string -> int
(** CRC-32 (IEEE, reflected) of a string; [init] chains computations. *)

val config_fingerprint : Ia32el.Config.t -> int64
(** Fingerprint of every translation-relevant configuration switch plus
    the cache format version: any config drift invalidates the cache. *)

val image_hash : Ia32.Asm.image -> int64
(** Hash of the guest image's entry point, load addresses and code/data
    bytes. *)

(** {1 The store} *)

type store
(** In-memory translated-code store: recorded translations keyed by
    (phase, guest entry, occurrence). The occurrence index counts
    successful translations of the same entry within one run, so
    flush/retranslate cycles replay correctly. *)

val create_store : image_hash:int64 -> config_fp:int64 -> store
val entry_count : store -> int

val load : path:string -> image_hash:int64 -> config_fp:int64 -> store * Ia32el.Bt_error.t list
(** Load a cache file. Never raises: any corruption, truncation or
    staleness is reported as diagnostics and the affected entries (or
    the whole file) are dropped — the returned store holds exactly the
    entries that verified. A missing file is an empty store with no
    diagnostics. *)

val with_stale_image_hash : string -> string option
(** The bytes of a cache file with one image-hash byte flipped and the
    header checksum re-stamped, so {!load} rejects the file as stale
    rather than corrupt; [None] when shorter than a header. For fault
    injection. *)

val save : store -> path:string -> Ia32el.Bt_error.t list
(** Atomically save (write to a temp file, then rename), guarded by a
    single-writer [<path>.lock] lockfile. Never raises; a held lock or
    an I/O failure is reported as a diagnostic and the existing file is
    left untouched. *)

(** {1 Sessions} *)

type stats = {
  mutable hits : int;  (** translations installed from the store *)
  mutable misses : int;  (** no recorded entry; translated live *)
  mutable rejects : int;
      (** recorded entry failed validation; translated live *)
  mutable recorded : int;  (** live translations recorded into the store *)
  mutable eliminated_cold_cycles : int;
      (** virtual cold-translation cycles whose host work was skipped *)
  mutable eliminated_hot_cycles : int;
}

type session

val attach : ?readonly:bool -> store -> Ia32el.Engine.t -> session
(** Install the store as the engine's translate filter. Every install
    is validated: semantically (source span, TOS/flag, hot-profile
    seeds) and structurally (arena pins, branch-target bounds, id
    consistency). [readonly] (default false) disables recording live translations
    into the store. *)

val restart : session -> unit
(** Start the session over for an engine rewound to before its first
    translation request ({!Ia32el.Instance.rewind}): the occurrence of
    every (phase, entry) counts from zero again and the stats are
    zeroed. The store keeps what was recorded. *)

val stats : session -> stats

val pp_stats : Format.formatter -> stats -> unit

(** {1 AOT compilation} *)

val sweep : session -> roots:int list -> lo:int -> hi:int -> int
(** Whole-image AOT sweep: drive cold translation over every address
    statically reachable from [roots] (direct branches, call targets and
    fall-throughs) within [\[lo, hi)], recording each block into the
    session's store. Returns the number of blocks translated. The
    session's engine is a translation vehicle only — its machine never
    runs. *)
