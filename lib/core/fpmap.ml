(* Static x87 stack tracking during translation of one block (paper §5).

   The block speculates that the top-of-stack (TOS) it saw at translation
   time holds for every entry, so ST(i) maps to a fixed IPF FP register
   throughout the block body — no rotation, no memory. FXCHG is eliminated
   by permuting the static map instead of emitting copies; the permutation
   is materialized with real moves only if it is not the identity at block
   exit (compiled code's fxch pairs usually cancel).

   The tracker also accumulates the entry assumptions (which physical
   registers must be Valid / Empty) for the block-head TAG check, and the
   net TOS/TAG effect for the block-exit status update. *)

type t = {
  entry_tos : int; (* speculated TOS at entry *)
  mutable vtos : int; (* current virtual TOS (0-7) *)
  map : int array; (* logical slot -> physical slot (FXCHG elimination) *)
  mutable need_valid : int; (* physical regs that must be Valid at entry *)
  mutable need_empty : int; (* physical regs that must be Empty at entry *)
  mutable known_valid : int; (* physical regs known Valid here *)
  mutable known_empty : int;
  mutable written : int; (* physical regs written by this block *)
  mutable used : bool; (* any x87 instruction translated *)
}

exception Static_fault
(* The block's own code is statically guaranteed to stack-fault (e.g. pops
   more than it pushes against its own pushes); translation bails out and
   lets the runtime interpret to raise the precise fault. *)

let create ~entry_tos =
  {
    entry_tos;
    vtos = entry_tos land 7;
    map = Array.init 8 (fun i -> i);
    need_valid = 0;
    need_empty = 0;
    known_valid = 0;
    known_empty = 0;
    written = 0;
    used = false;
  }

let bit i = 1 lsl (i land 7)

(* Architectural x87 slot of ST(i) (the x86 "physical register" number that
   TAG bits and MMX aliasing refer to). *)
let slot_of_st t i = (t.vtos + i) land 7

(* Physical *IPF FP register* slot of ST(i) under the FXCHG permutation. *)
let phys_of_st t i = t.map.(slot_of_st t i)

(* FP register holding ST(i). *)
let fr_of_st t i = Regs.fr_of_phys (phys_of_st t i)

(* A read of ST(i): the slot must be Valid — at entry if we know nothing
   about it yet. All TAG/validity tracking is per architectural slot. *)
let read t i =
  t.used <- true;
  let p = bit (slot_of_st t i) in
  if t.known_empty land p <> 0 then raise Static_fault;
  if t.known_valid land p = 0 then begin
    t.need_valid <- t.need_valid lor p;
    t.known_valid <- t.known_valid lor p
  end;
  fr_of_st t i

(* A write to ST(i) (the slot must already be allocated, like FST st(i)). *)
let write t i =
  t.used <- true;
  let p = bit (slot_of_st t i) in
  if t.known_empty land p <> 0 then raise Static_fault;
  if t.known_valid land p = 0 then begin
    t.need_valid <- t.need_valid lor p;
    t.known_valid <- t.known_valid lor p
  end;
  t.written <- t.written lor p;
  fr_of_st t i

(* Push: the new top slot must be Empty (at entry, unless freed locally). *)
let push t =
  t.used <- true;
  t.vtos <- (t.vtos - 1) land 7;
  let p = bit (slot_of_st t 0) in
  if t.known_valid land p <> 0 then raise Static_fault;
  if t.known_empty land p = 0 then t.need_empty <- t.need_empty lor p;
  t.known_empty <- t.known_empty land lnot p;
  t.known_valid <- t.known_valid lor p;
  t.written <- t.written lor p;
  fr_of_st t 0

(* Pop: frees the top slot (which a read will already have validated). *)
let pop t =
  t.used <- true;
  let p = bit (slot_of_st t 0) in
  if t.known_empty land p <> 0 then raise Static_fault;
  if t.known_valid land p = 0 then t.need_valid <- t.need_valid lor p;
  t.known_valid <- t.known_valid land lnot p;
  t.known_empty <- t.known_empty lor p;
  t.vtos <- (t.vtos + 1) land 7

let free t i =
  t.used <- true;
  let p = bit (slot_of_st t i) in
  t.known_valid <- t.known_valid land lnot p;
  t.known_empty <- t.known_empty lor p

(* FXCHG elimination: swap the static mapping of ST(0) and ST(i); both must
   be valid (that is the fault condition FXCH checks). *)
let fxch t i =
  t.used <- true;
  ignore (read t 0);
  ignore (read t i);
  let a = slot_of_st t 0 and b = slot_of_st t i in
  let tmp = t.map.(a) in
  t.map.(a) <- t.map.(b);
  t.map.(b) <- tmp

let incstp t =
  t.used <- true;
  t.vtos <- (t.vtos + 1) land 7

let decstp t =
  t.used <- true;
  t.vtos <- (t.vtos - 1) land 7

(* Net TOS delta of the block (exit TOS = entry TOS + delta mod 8). *)
let tos_delta t = (t.vtos - t.entry_tos) land 7

(* TAG updates the block performs at exit: (set_valid_mask, set_empty_mask)
   over physical slots. Setting an already-valid bit is harmless, so these
   are simply the final known sets. *)
let tag_updates t = (t.known_valid, t.known_empty)

(* Moves needed at block exit to restore the identity FXCHG permutation:
   list of cycles over physical slots. *)
let exit_permutation t =
  let visited = Array.make 8 false in
  let cycles = ref [] in
  for s = 0 to 7 do
    if (not visited.(s)) && t.map.(s) <> s then begin
      let cyc = ref [] in
      let cur = ref s in
      while not visited.(!cur) do
        visited.(!cur) <- true;
        cyc := !cur :: !cyc;
        cur := t.map.(!cur)
      done;
      cycles := List.rev !cyc :: !cycles
    end
  done;
  !cycles

(* Structural copy, for emitting side-exit stubs from a mid-trace state. *)
let copy t = { t with map = Array.copy t.map }
