(* Local code discovery (paper Figure 1): starting from the current IP,
   decode a neighbourhood of 1-20 basic blocks following direct control
   flow, and run the analyses cold translation needs — EFLAGS liveness and
   FP-stack tracking happen on this region.

   Basic blocks additionally end:
   - before an instruction whose unit class switches between x87 and MMX
     anywhere earlier in the block, however many integer/SSE instructions
     sit in between (so each translated block is pure and the MMX/FP
     aliasing speculation applies block-wise), and
   - after [max_bb_insns] instructions (long straight-line code is split).
*)

type insn_class = C_int | C_fpu | C_mmx | C_sse

let class_of (i : Ia32.Insn.insn) =
  match i with
  | Ia32.Insn.Fp _ -> C_fpu
  | Ia32.Insn.Mmx _ -> C_mmx
  | Ia32.Insn.Sse _ -> C_sse
  | _ -> C_int

(* Do two classes conflict for block purity? Only the x87/MMX pair does. *)
let class_conflict a b =
  match (a, b) with C_fpu, C_mmx | C_mmx, C_fpu -> true | _ -> false

type terminator =
  | T_jmp of int
  | T_jcc of Ia32.Insn.cond * int * int (* cond, taken, fallthrough *)
  | T_call of int * int (* target, return address *)
  | T_indirect (* jmp/call indirect or ret *)
  | T_syscall of int * int (* vector, next ip *)
  | T_fault (* hlt/ud2: always faults *)
  | T_fallthrough of int (* block split: falls into next address *)

type bb = {
  insns : (int * Ia32.Insn.insn) array; (* address, instruction *)
  term : terminator;
  next : int; (* address after the last instruction *)
}

let max_bb_insns = 24

(* Decode one basic block at [start]. Raises Decode.Invalid / Fault.Fault on
   undecodable or unfetchable bytes at the *first* instruction; later bad
   bytes end the block with T_fault (reached only if executed). *)
let decode_bb mem start =
  let buf = ref [] in
  (* Last x87/MMX unit class seen in the block so far: sticky, so a flip is
     detected even across intervening integer or SSE instructions. *)
  let unit_cls = ref None in
  let rec go addr count =
    if count >= max_bb_insns then (T_fallthrough addr, addr)
    else
      match Ia32.Decode.decode mem addr with
      | exception (Ia32.Decode.Invalid _ | Ia32.Fault.Fault _) when count > 0 ->
        (T_fallthrough addr, addr)
      | insn, len ->
        let next = Ia32.Word.mask32 (addr + len) in
        let cls = class_of insn in
        let conflicts =
          match !unit_cls with
          | Some u -> class_conflict u cls
          | None -> false
        in
        if conflicts then (T_fallthrough addr, addr)
        else begin
          (match cls with C_fpu | C_mmx -> unit_cls := Some cls | _ -> ());
          buf := (addr, insn) :: !buf;
          match insn with
          | Ia32.Insn.Jmp t -> (T_jmp t, next)
          | Ia32.Insn.Jcc (c, t) -> (T_jcc (c, t, next), next)
          | Ia32.Insn.Call t -> (T_call (t, next), next)
          | Ia32.Insn.Jmp_ind _ | Ia32.Insn.Call_ind _ | Ia32.Insn.Ret _ ->
            (T_indirect, next)
          | Ia32.Insn.Int_n n -> (T_syscall (n, next), next)
          | Ia32.Insn.Hlt | Ia32.Insn.Ud2 -> (T_fault, next)
          | _ -> go next (count + 1)
        end
  in
  let term, next = go start 0 in
  { insns = Array.of_list (List.rev !buf); term; next }

(* Static successor addresses for the neighbourhood walk / liveness. A call
   continues at its return address (callee effects are summarized as
   clobber-all by the liveness below). *)
let succs bb =
  match bb.term with
  | T_jmp t -> [ t ]
  | T_jcc (_, t, f) -> [ t; f ]
  | T_call (_, ret) -> [ ret ]
  | T_fallthrough next -> [ next ]
  | T_indirect | T_syscall _ | T_fault -> []

type region = { blocks : (int, bb) Hashtbl.t (* by start address *) }

(* Basic blocks analysed around a cold entry for EFLAGS liveness. *)
let max_blocks = 16

(* BFS over direct successors up to [max_blocks] basic blocks. *)
let discover mem ~entry =
  let blocks = Hashtbl.create 32 in
  let queue = Queue.create () in
  Queue.add entry queue;
  let count = ref 0 in
  while (not (Queue.is_empty queue)) && !count < max_blocks do
    let addr = Queue.take queue in
    if not (Hashtbl.mem blocks addr) then begin
      match decode_bb mem addr with
      | bb ->
        Hashtbl.replace blocks addr bb;
        incr count;
        List.iter (fun s -> Queue.add s queue) (succs bb)
      | exception (Ia32.Decode.Invalid _ | Ia32.Fault.Fault _) -> ()
    end
  done;
  { blocks }

(* ------------------------------------------------------------------ *)
(* EFLAGS liveness over the region                                     *)
(* ------------------------------------------------------------------ *)

let flag_bit f =
  match f with
  | Ia32.Insn.CF -> 1
  | Ia32.Insn.PF -> 2
  | Ia32.Insn.AF -> 4
  | Ia32.Insn.ZF -> 8
  | Ia32.Insn.SF -> 16
  | Ia32.Insn.OF -> 32
  | Ia32.Insn.DF -> 64

let mask_of_flags = List.fold_left (fun m f -> m lor flag_bit f) 0

let all_flags_mask = mask_of_flags Ia32.Insn.all_flags

(* Per-instruction liveness-out of the 7 EFLAGS bits, as a map from
   instruction address to bitmask. Unknown successors (indirect, syscalls,
   region boundary, calls) are treated as all-live. *)
let flags_liveness region =
  let live_in = Hashtbl.create 32 in
  (* live_in of a block's first instruction *)
  let get_live_in addr =
    match Hashtbl.find_opt live_in addr with
    | Some m -> m
    | None -> all_flags_mask
  in
  let block_live_out bb =
    match succs bb with
    | [] -> all_flags_mask
    | ss ->
      List.fold_left
        (fun m s ->
          m
          lor
          if Hashtbl.mem region.blocks s then get_live_in s else all_flags_mask)
        0 ss
  in
  (* One backward pass over a block; returns new live_in. A potentially
     faulting instruction observes the full EFLAGS in its before-state (the
     fault is delivered there with precise flags, and cold recovery
     reconstructs at that IP without re-executing earlier instructions), so
     its live-in is all flags. *)
  let pass_block bb =
    let live = ref (block_live_out bb) in
    (* calls clobber conservatively: flags live into the callee *)
    (match bb.term with T_call _ -> live := all_flags_mask | _ -> ());
    for k = Array.length bb.insns - 1 downto 0 do
      let _, insn = bb.insns.(k) in
      if Ia32.Insn.may_fault insn then live := all_flags_mask
      else begin
        let def = mask_of_flags (Ia32.Insn.flags_def_must insn) in
        let use = mask_of_flags (Ia32.Insn.flags_use insn) in
        live := !live land lnot def lor use
      end
    done;
    !live
  in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 50 do
    changed := false;
    incr iters;
    Hashtbl.iter
      (fun addr bb ->
        let ni = pass_block bb in
        if Hashtbl.find_opt live_in addr <> Some ni then begin
          Hashtbl.replace live_in addr ni;
          changed := true
        end)
      region.blocks
  done;
  (* produce per-instruction live-out *)
  let live_out = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ bb ->
      let live = ref (block_live_out bb) in
      (match bb.term with T_call _ -> live := all_flags_mask | _ -> ());
      for k = Array.length bb.insns - 1 downto 0 do
        let addr, insn = bb.insns.(k) in
        Hashtbl.replace live_out addr !live;
        if Ia32.Insn.may_fault insn then live := all_flags_mask
        else begin
          let def = mask_of_flags (Ia32.Insn.flags_def_must insn) in
          let use = mask_of_flags (Ia32.Insn.flags_use insn) in
          live := !live land lnot def lor use
        end
      done)
    region.blocks;
  live_out

(* Flags an instruction must actually materialize: defs that are live-out. *)
let flags_to_set live_out addr insn =
  let lo =
    match Hashtbl.find_opt live_out addr with
    | Some m -> m
    | None -> all_flags_mask
  in
  List.filter (fun f -> lo land flag_bit f <> 0) (Ia32.Insn.flags_def insn)
