(* Two-level set-associative LRU data-cache model. Only timing is modeled
   (contents live in guest memory); each access returns the extra stall
   cycles beyond the pipeline's L1 load latency.

   The second level is what makes the paper's mcf observation reproducible:
   the 32-bit-data IA-32 version of a pointer-chasing workload fits where
   the 64-bit native version does not. *)

(* A level's tags and LRU ranks are flat [sets * assoc] arrays, set-major:
   way [w] of set [s] is index [s * assoc + w]. *)
type level = {
  set_mask : int; (* sets - 1; the set count is a power of two *)
  assoc : int;
  line_bits : int;
  tags : int array; (* -1 = invalid *)
  lru : int array; (* smaller = older *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  (* the line of the last access and its flat index: resident, since
     that access hit or filled it, and nothing has evicted it since *)
  mutable last : int; (* -1 = none *)
  mutable last_at : int;
}

let make_level ~size ~assoc ~line =
  let sets = size / (assoc * line) in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Dcache.create: sets per level must be a power of two";
  let line_bits =
    let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
    bits line 0
  in
  {
    set_mask = sets - 1;
    assoc;
    line_bits;
    tags = Array.make (sets * assoc) (-1);
    lru = Array.make (sets * assoc) 0;
    tick = 0;
    hits = 0;
    misses = 0;
    last = -1;
    last_at = 0;
  }

(* Way of the set starting at [base] holding [line] at or after [w], or
   -1. Top-level so a probe allocates nothing; typed, so the compare is
   an integer one and not a call to polymorphic equality. *)
let rec find_way (tags : int array) base assoc (line : int) w =
  if w >= assoc then -1
  else if Array.unsafe_get tags (base + w) = line then w
  else find_way tags base assoc line (w + 1)

(* true = hit; on miss the line is filled. An access to the line of the
   level's last access is a hit at the way it took, found without a
   search. *)
let access_level l addr =
  let line = addr lsr l.line_bits in
  let lru = l.lru in
  l.tick <- l.tick + 1;
  if line = l.last then begin
    Array.unsafe_set lru l.last_at l.tick;
    l.hits <- l.hits + 1;
    true
  end
  else begin
    let base = (line land l.set_mask) * l.assoc in
    let tags = l.tags in
    let w = find_way tags base l.assoc line 0 in
    l.last <- line;
    if w >= 0 then begin
      l.last_at <- base + w;
      lru.(base + w) <- l.tick;
      l.hits <- l.hits + 1;
      true
    end
    else begin
      let victim = ref 0 in
      for w = 1 to l.assoc - 1 do
        if lru.(base + w) < lru.(base + !victim) then victim := w
      done;
      l.last_at <- base + !victim;
      tags.(base + !victim) <- line;
      lru.(base + !victim) <- l.tick;
      l.misses <- l.misses + 1;
      false
    end
  end

type t = { l1 : level; l2 : level }

(* Stall cycles of an L1 miss that hits L2, and the further cycles of a
   miss in both levels. *)
let l2_penalty = 7
let mem_penalty = 80

let create ?(l1_size = 16 * 1024) ?(l1_assoc = 4) ?(l1_line = 64)
    ?(l2_size = 256 * 1024) ?(l2_assoc = 8) ?(l2_line = 128) () =
  {
    l1 = make_level ~size:l1_size ~assoc:l1_assoc ~line:l1_line;
    l2 = make_level ~size:l2_size ~assoc:l2_assoc ~line:l2_line;
  }

(* Extra stall cycles for an access at [addr] (0 on an L1 hit). *)
let access t addr =
  if access_level t.l1 addr then 0
  else if access_level t.l2 addr then l2_penalty
  else l2_penalty + mem_penalty

type stats = {
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
}

let stats t =
  {
    l1_hits = t.l1.hits;
    l1_misses = t.l1.misses;
    l2_hits = t.l2.hits;
    l2_misses = t.l2.misses;
  }

(* ---- checkpoint / restore: the timing model is pure state (tags, LRU
   ranks, tick and hit/miss counters per level), so a checkpoint is a
   copy of it. [checkpoint_into] refills an existing checkpoint, so a
   caller that recycles one allocates nothing; the int arrays are copied
   by a typed loop, which stores without the write barrier [Array.blit]
   pays per element into a major-heap array. *)

let copy_ints ~(src : int array) ~(dst : int array) =
  if Array.length dst <> Array.length src then
    invalid_arg "Dcache: checkpoint geometry mismatch";
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

type level_checkpoint = {
  k_tags : int array;
  k_lru : int array;
  mutable k_tick : int;
  mutable k_hits : int;
  mutable k_misses : int;
}

type checkpoint = { k_l1 : level_checkpoint; k_l2 : level_checkpoint }

let checkpoint_level l =
  {
    k_tags = Array.copy l.tags;
    k_lru = Array.copy l.lru;
    k_tick = l.tick;
    k_hits = l.hits;
    k_misses = l.misses;
  }

let checkpoint_level_into l k =
  copy_ints ~src:l.tags ~dst:k.k_tags;
  copy_ints ~src:l.lru ~dst:k.k_lru;
  k.k_tick <- l.tick;
  k.k_hits <- l.hits;
  k.k_misses <- l.misses

let restore_level l k =
  copy_ints ~src:k.k_tags ~dst:l.tags;
  copy_ints ~src:k.k_lru ~dst:l.lru;
  l.tick <- k.k_tick;
  l.hits <- k.k_hits;
  l.misses <- k.k_misses;
  l.last <- -1

let checkpoint t = { k_l1 = checkpoint_level t.l1; k_l2 = checkpoint_level t.l2 }

let checkpoint_into t k =
  checkpoint_level_into t.l1 k.k_l1;
  checkpoint_level_into t.l2 k.k_l2

let restore t k =
  restore_level t.l1 k.k_l1;
  restore_level t.l2 k.k_l2

let levels k =
  List.map
    (fun l -> (Array.copy l.k_tags, Array.copy l.k_lru, l.k_tick))
    [ k.k_l1; k.k_l2 ]
