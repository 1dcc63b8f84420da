(* Direct-mapped cache of decoded instructions for the reference
   interpreter. An entry is keyed by EIP and validated against the write
   generation of the page(s) holding the instruction bytes
   ({!Memory.page_gen}): any store, remap or protection change on a source
   page bumps its generation, so the next fetch at that address re-decodes.
   This is exactly the SMC machinery the translator itself relies on, so
   self-modifying code behaves identically with the cache on or off.

   Entries live in parallel int arrays (plus one array of instructions) and
   are mutated in place; a hit performs no allocation. The arrays are
   allocated on the first [fill]: the engine builds a fresh state, and so a
   fresh cache, at every exit from translated code, and most of those
   states never interpret an instruction. *)

let bits = 12
let size = 1 lsl bits (* 4096 direct-mapped entries *)
let mask = size - 1

type t = {
  mutable enabled : bool;
  mutable eips : int array; (* -1 = empty slot *)
  mutable insns : Insn.insn array;
  mutable lens : int array;
  mutable g1s : int array; (* generation of the page holding byte 0 *)
  mutable g2s : int array; (* generation of the straddled page; 0 = none *)
}

(* Shared by every cache that was never filled: all slots empty, so [find]
   misses without reading the other (still empty) arrays. Never written. *)
let no_eips = Array.make size (-1)

let create () =
  {
    enabled = true;
    eips = no_eips;
    insns = [||];
    lens = [||];
    g1s = [||];
    g2s = [||];
  }

let set_enabled t b = t.enabled <- b

(* Slot index on hit, -1 on miss. Valid generations are >= 1 and never
   reused, so comparing against a stored 0 (empty) or a stale generation
   can never false-hit, including across an unmap/remap cycle. *)
let find t mem eip =
  if not t.enabled then -1
  else begin
    let i = eip land mask in
    if
      Array.unsafe_get t.eips i = eip
      && Memory.page_gen mem eip = Array.unsafe_get t.g1s i
      &&
      let g2 = Array.unsafe_get t.g2s i in
      g2 = 0
      || Memory.page_gen mem
           (Word.mask32 (eip + Array.unsafe_get t.lens i - 1))
         = g2
    then i
    else -1
  end

let insn t i = Array.unsafe_get t.insns i
let len t i = Array.unsafe_get t.lens i

(* Record a successful decode. Only called after [Decode.decode] returned,
   so both source pages exist and are fetchable at this instant. *)
let fill t mem eip insn len =
  if t.enabled then begin
    if t.eips == no_eips then begin
      t.eips <- Array.make size (-1);
      t.insns <- Array.make size Insn.Nop;
      t.lens <- Array.make size 0;
      t.g1s <- Array.make size 0;
      t.g2s <- Array.make size 0
    end;
    let i = eip land mask in
    let last = Word.mask32 (eip + len - 1) in
    t.eips.(i) <- eip;
    t.insns.(i) <- insn;
    t.lens.(i) <- len;
    t.g1s.(i) <- Memory.page_gen mem eip;
    t.g2s.(i) <-
      (if last lsr Memory.page_bits = eip lsr Memory.page_bits then 0
       else Memory.page_gen mem last)
  end
