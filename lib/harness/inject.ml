(* Deterministic fault injector: a seed-driven chaos source for the
   translator's recovery machinery. Attached to an engine it perturbs
   execution at dispatch boundaries through the engine's
   semantics-preserving chaos primitives, plus the Vos transient-failure
   hook and the Tcache capacity mode. Everything is driven by a splitmix64
   stream from the seed, so a run is exactly reproducible from
   (guest image, seed).

   Injection points:
   - [tos_rotation]      forced FP-stack speculation misses
   - [sse_scramble]      forced SSE format-speculation misses
   - [smc_invalidate]    spurious invalidation of live blocks
   - [cache_flush]       wholesale translation-cache flushes
   - [capacity_squeeze]  eviction storms via a tiny Tcache capacity window
   - [transient_syscall] transient kernel failures with bounded retry *)

module Engine = Ia32el.Engine

type stats = {
  mutable dispatches_seen : int;
  mutable tos_rotations : int;
  mutable sse_scrambles : int;
  mutable smc_invalidations : int;
  mutable cache_flushes : int;
  mutable capacity_squeezes : int;
  mutable transient_faults : int;
}

type t = {
  rng : Splitmix.t;
  stats : stats;
  (* eviction-storm window: dispatch count at which to lift the squeeze *)
  mutable squeeze_until : int;
  (* injection rates, as 1-in-N per dispatch (0 disables the point) *)
  rate_tos : int;
  rate_sse : int;
  rate_smc : int;
  rate_flush : int;
  rate_squeeze : int;
  rate_transient : int;
}

(* Default rates are aggressive: the synthetic workloads chain their hot
   loops quickly, so block-boundary events (slow dispatches, indirect
   branches, syscall returns) are scarce — a handful to a few dozen per
   run. High per-event probabilities keep every injection point exercised
   on every run. *)
let create ?(rate_tos = 2) ?(rate_sse = 3) ?(rate_smc = 4) ?(rate_flush = 8)
    ?(rate_squeeze = 16) ?(rate_transient = 2) ~seed () =
  {
    rng = Splitmix.create seed;
    stats =
      {
        dispatches_seen = 0;
        tos_rotations = 0;
        sse_scrambles = 0;
        smc_invalidations = 0;
        cache_flushes = 0;
        capacity_squeezes = 0;
        transient_faults = 0;
      };
    squeeze_until = 0;
    rate_tos;
    rate_sse;
    rate_smc;
    rate_flush;
    rate_squeeze;
    rate_transient;
  }

(* uniform draw in [0, n) *)
let rand t n =
  let r = Int64.logand (Splitmix.next t.rng) Int64.max_int in
  Int64.to_int (Int64.rem r (Int64.of_int n))

let chance t n = n > 0 && rand t n = 0

(* Eviction-storm parameters: while squeezed, the Tcache reports full at a
   tiny size, so every translation beyond it triggers a wholesale flush. *)
let squeeze_capacity = 256 (* bundles *)
let squeeze_window = 128 (* dispatches *)

let attach t (engine : Engine.t) =
  (* transient kernel failures, riding the Vos retry/backoff machinery *)
  engine.Engine.vos.Btlib.Vos.transient_fault <-
    Some
      (fun _call ->
        let fail = chance t t.rate_transient in
        if fail then t.stats.transient_faults <- t.stats.transient_faults + 1;
        fail);
  engine.Engine.on_dispatch <-
    Some
      (fun _eip ->
        t.stats.dispatches_seen <- t.stats.dispatches_seen + 1;
        let here = t.stats.dispatches_seen in
        if t.squeeze_until > 0 && here >= t.squeeze_until then begin
          t.squeeze_until <- 0;
          Ipf.Tcache.set_capacity engine.Engine.tcache None
        end;
        if chance t t.rate_tos then begin
          t.stats.tos_rotations <- t.stats.tos_rotations + 1;
          Engine.force_tos_rotation engine ~by:(1 + rand t 7)
        end;
        if chance t t.rate_sse then begin
          t.stats.sse_scrambles <- t.stats.sse_scrambles + 1;
          Engine.force_sse_scramble engine
        end;
        if chance t t.rate_smc then
          t.stats.smc_invalidations <-
            t.stats.smc_invalidations
            + Engine.spurious_smc_invalidate engine ~max:(1 + rand t 2);
        if chance t t.rate_flush then begin
          t.stats.cache_flushes <- t.stats.cache_flushes + 1;
          Engine.force_cache_flush engine
        end;
        if t.squeeze_until = 0 && chance t t.rate_squeeze then begin
          t.stats.capacity_squeezes <- t.stats.capacity_squeezes + 1;
          t.squeeze_until <- here + squeeze_window;
          Ipf.Tcache.set_capacity engine.Engine.tcache (Some squeeze_capacity)
        end)

let stats t = t.stats

let total_injections s =
  s.tos_rotations + s.sse_scrambles + s.smc_invalidations + s.cache_flushes
  + s.capacity_squeezes + s.transient_faults

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>injections over %d dispatches:@,\
    \  tos rotations      %d@,\
    \  sse scrambles      %d@,\
    \  smc invalidations  %d@,\
    \  cache flushes      %d@,\
    \  capacity squeezes  %d@,\
    \  transient syscalls %d@]"
    s.dispatches_seen s.tos_rotations s.sse_scrambles s.smc_invalidations
    s.cache_flushes s.capacity_squeezes s.transient_faults

(* ------------------------------------------------------------------ *)
(* disk faults on persistent translation-cache files                   *)
(* ------------------------------------------------------------------ *)

type disk_fault =
  | Bit_flip of int
  | Truncate of int
  | Partial_write of int
  | Stale_fingerprint
  | Lock_held

let pp_disk_fault ppf = function
  | Bit_flip off -> Fmt.pf ppf "bit-flip@%d" off
  | Truncate n -> Fmt.pf ppf "truncate-last-%d" n
  | Partial_write n -> Fmt.pf ppf "partial-write-%d" n
  | Stale_fingerprint -> Fmt.string ppf "stale-fingerprint"
  | Lock_held -> Fmt.string ppf "lock-held"

let all_disk_faults =
  [ Bit_flip 100; Truncate 7; Partial_write 64; Stale_fingerprint; Lock_held ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let apply_disk_fault ~path fault =
  match fault with
  | Lock_held -> (
    try
      let oc =
        open_out_gen [ Open_wronly; Open_creat ] 0o644 (path ^ ".lock")
      in
      close_out oc;
      Ok ()
    with Sys_error m -> Error m)
  | _ -> (
    try
      let s = read_file path in
      let n = String.length s in
      match fault with
      | Lock_held -> assert false
      | Bit_flip off ->
        if n = 0 then Error "empty file"
        else begin
          let b = Bytes.of_string s in
          let i = ((off mod n) + n) mod n in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (off land 7))));
          write_file path (Bytes.to_string b);
          Ok ()
        end
      | Truncate k ->
        write_file path (String.sub s 0 (max 0 (n - k)));
        Ok ()
      | Partial_write k ->
        write_file path (String.sub s 0 (min n k));
        Ok ()
      | Stale_fingerprint -> (
        match Persist.with_stale_image_hash s with
        | None -> Error "file shorter than a cache header"
        | Some stale ->
          write_file path stale;
          Ok ())
    with Sys_error m -> Error m)
