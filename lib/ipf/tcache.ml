(* The translation cache: a growable array of bundles that the machine
   executes from. Block chaining patches branch targets in place, exactly
   like the real translator patches its "branch to translator" stubs into
   direct block-to-block branches. *)

type t = {
  mutable bundles : Bundle.t array;
  mutable len : int;
  (* Optional hard bundle capacity. The paper's translation cache is a
     fixed-size resource flushed wholesale when it fills; the engine
     normally models that with a config limit, but the chaos harness can
     clamp the capacity here to force eviction storms. *)
  mutable capacity : int option;
  (* Generation counter, bumped on every mutation: a consumer that
     caches structures derived from the bundles (Exec's block programs)
     need not look at them again while it holds. *)
  mutable generation : int;
  (* Observability: when set, structural cache events (chain patches,
     invalidations, flushes) are emitted here. Pure recording — never
     affects cache contents or cost accounting. *)
  mutable trace : Obs.Trace.t option;
}

let create () =
  {
    bundles = Array.make 1024 (Bundle.make []);
    len = 0;
    capacity = None;
    generation = 1;
    trace = None;
  }

let generation t = t.generation

let touch t = t.generation <- t.generation + 1

let set_trace t tr = t.trace <- tr

let length t = t.len

let set_capacity t c = t.capacity <- c

let over_capacity t =
  match t.capacity with Some c -> t.len >= c | None -> false

(* Drop every bundle (translation-cache flush). Indices embedded in
   chained branches all dangle after this, so callers must also discard
   every block-cache structure that references them. *)
let clear t =
  (match t.trace with
  | Some tr when t.len > 0 ->
    Obs.Trace.emit tr (Obs.Trace.Tcache_evict { bundles = t.len })
  | _ -> ());
  touch t;
  t.len <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Tcache.get %d" i);
  t.bundles.(i)

(* Append a bundle, returning its index. *)
let append t b =
  if t.len = Array.length t.bundles then begin
    let bigger = Array.make (2 * t.len) b in
    Array.blit t.bundles 0 bigger 0 t.len;
    t.bundles <- bigger
  end;
  t.bundles.(t.len) <- b;
  t.len <- t.len + 1;
  touch t;
  t.len - 1

let append_list t bs =
  let start = t.len in
  List.iter (fun b -> ignore (append t b)) bs;
  start

(* Patch slot [slot] of bundle [idx] — used to chain a freshly translated
   block into its predecessor's exit branch. *)
let patch_slot t ~idx ~slot insn =
  let b = get t idx in
  b.Bundle.slots.(slot) <- insn;
  touch t;
  match t.trace with
  | Some tr -> Obs.Trace.emit tr (Obs.Trace.Chain_patch { bundle = idx; slot })
  | None -> ()

(* Find-and-patch every [Out (Dispatch target)] branch in bundle [idx] into
   a direct branch to [dest]. Returns how many slots were patched. *)
let patch_dispatch t ~idx ~target ~dest =
  let b = get t idx in
  let n = ref 0 in
  Array.iteri
    (fun i slot ->
      match slot.Insn.sem with
      | Insn.Br (Insn.Out (Insn.Dispatch a)) when a = target ->
        b.Bundle.slots.(i) <- { slot with Insn.sem = Insn.Br (Insn.To dest) };
        incr n
      | _ -> ())
    b.Bundle.slots;
  if !n > 0 then touch t;
  (match t.trace with
  | Some tr when !n > 0 ->
    Obs.Trace.emit tr (Obs.Trace.Chain_patch { bundle = idx; slot = -1 })
  | _ -> ());
  !n

(* Overwrite a whole block's bundles with exits (used when a block is
   invalidated by SMC or misalignment regeneration): every entry becomes a
   dispatch-out so stale chained predecessors fall back to the runtime. *)
let invalidate_range t ~start ~stop ~target =
  (match t.trace with
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Trace.Tcache_invalidate { start; len = stop - start })
  | None -> ());
  for idx = start to stop - 1 do
    let b = get t idx in
    b.Bundle.slots.(0) <- Insn.mk (Insn.Nop Insn.M);
    b.Bundle.slots.(1) <- Insn.mk (Insn.Nop Insn.I);
    b.Bundle.slots.(2) <- Insn.mk (Insn.Br (Insn.Out (Insn.Dispatch target)));
    b.Bundle.stops.(2) <- true
  done;
  touch t

(* Put bundles [start, start + length code) back as they were before an
   invalidation. It is a mutation like any other; consumers that judge
   derived structures by content (Exec's block programs) take theirs
   back. The bundles are copied in: the cache patches its own in place,
   and [code] may be restored again later. *)
let restore_range t ~start code =
  if start < 0 || start + Array.length code > t.len then
    invalid_arg (Printf.sprintf "Tcache.restore_range %d" start);
  Array.iteri (fun i b -> t.bundles.(start + i) <- Bundle.copy b) code;
  touch t
