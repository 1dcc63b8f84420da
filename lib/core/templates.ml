(* Translation templates: one emission routine per IA-32 instruction
   variant, shared by cold code generation and hot IL generation (the paper
   derives both from the same template source). The driver provides a
   context with register allocation, emission, control-flow hooks and the
   per-instruction EFLAGS plan; templates emit IPF instructions observing
   the precise-state ordering rule: loads, compute, stores, then
   architectural register/flag updates. *)

open Ia32.Insn
module I = Ipf.Insn

(* How a memory access of a given width is emitted (paper §5 misalignment
   machinery). *)
type ma_policy =
  | Ma_plain (* straight access; misalignment faults to the OS path *)
  | Ma_detect (* stage 1: detect and branch out to regenerate the block *)
  | Ma_avoid of int (* avoidance at granularity g *)
  | Ma_avoid_record of int * int (* granularity, profile-slot address *)

(* EFLAGS plan for one IA-32 instruction, decided by the driver from the
   liveness analysis and the fusion peephole. *)
type flag_plan =
  | Plan_none
  | Plan_set of flag list
  | Plan_fuse of cond * flag list (* compute cond predicate + set extras *)

(* The flag-producer record: enough information to materialize any EFLAGS
   bit of the producing instruction later (lazy flags). *)
type producer = {
  p_op : [ `Add | `Sub | `Logic | `Shl | `Shr | `Sar | `Rol | `Ror | `Mul of int ];
  p_size : size;
  p_a : int; (* first operand, canonical *)
  p_b : int; (* second operand, canonical *)
  p_res : int; (* result, canonical *)
  p_full : int; (* unmasked 64-bit result (add/sub); otherwise p_res *)
  p_guard : int option; (* flag updates predicated (CL shifts) *)
  p_cin : bool; (* a carry/borrow-in participated (ADC/SBB) *)
}

type ctx = {
  (* emission *)
  emit : I.t -> unit;
  emit_stop : unit -> unit;
  new_label : unit -> int;
  bind : int -> unit;
  local : int -> I.target;
  (* register allocation *)
  fresh : unit -> int;
  ffresh : unit -> int;
  pfresh : unit -> int;
  (* effective addresses (hot version does CSE) *)
  ea : ctx -> mem -> int;
  (* control flow / exits *)
  goto : ctx -> int -> unit;
  goto_if : ctx -> pr:int -> int -> unit;
  indirect : ctx -> unit;
  syscall : ctx -> int -> unit;
  guest_fault : ctx -> ?pr:int -> int -> unit; (* IA-32 vector *)
  misalign_out : ctx -> pr:int -> unit; (* stage-1 regeneration trigger *)
  (* state *)
  fp : Fpmap.t;
  xmm_fmt : int array; (* static format per xmm; -1 = untouched *)
  xmm_entry : int array; (* entry format requirement; -1 = none *)
  mutable uses_mmx : bool;
  mutable mmx_exit_tag : int; (* TAG mask at exit of an MMX block (EMMS -> 0) *)
  mutable mmx_written : int; (* MMX registers written by this block *)
  mutable cur_ip : int;
  mutable next_ip : int;
  mutable plan : flag_plan;
  mutable fused_pred : (int * int) option; (* (p_cond, p_notcond) *)
  mutable last_producer : producer option; (* set by finish_flags, for the
                                               hot lazy-flags machinery *)
  mutable access_idx : int;
  misalign_policy : int -> int -> ma_policy; (* access index, width *)
  ma_pred_cache : (int * int, int * int) Hashtbl.t; (* (addr gr, width) *)
}

let emit ctx sem = ctx.emit (I.mk sem)
let emitp ctx p sem = ctx.emit (I.mk ~qp:p sem)
let stop ctx = ctx.emit_stop ()

(* ---- small helpers ---------------------------------------------------- *)

(* Load an immediate into a fresh register. *)
let imm ctx v =
  let t = ctx.fresh () in
  let v = Ia32.Word.mask32 v in
  if v < 0x200000 then emit ctx (I.Addi (t, v, 0))
  else emit ctx (I.Movi (t, Int64.of_int v));
  t

let imm64 ctx v =
  let t = ctx.fresh () in
  emit ctx (I.Movi (t, v));
  t

let bytes_of = size_bytes

(* Zero-extend [src] to [size] bytes into a fresh register (no-op for
   values already canonical). *)
let zext ctx size src =
  let t = ctx.fresh () in
  emit ctx (I.Zxt (t, src, bytes_of size));
  t

let sext ctx size src =
  let t = ctx.fresh () in
  emit ctx (I.Sxt (t, src, bytes_of size));
  t

(* ---- sub-register reads/writes ---------------------------------------- *)

(* Read a guest register at [size]; result is zero-extended canonical. *)
let read_reg ctx size r =
  let g = Regs.gr_of_reg r in
  match size with
  | S32 -> g
  | S16 -> zext ctx S16 g
  | S8 ->
    let idx = reg_index r in
    let t = ctx.fresh () in
    if idx < 4 then emit ctx (I.Extru (t, g, 0, 8))
    else emit ctx (I.Extru (t, Regs.gr_of_reg (reg_of_index (idx - 4)), 8, 8));
    t

(* Write [v] (canonical at [size]) into a guest register. *)
let write_reg ctx size r v =
  match size with
  | S32 ->
    let g = Regs.gr_of_reg r in
    emit ctx (I.Mov (g, v))
  | S16 ->
    let g = Regs.gr_of_reg r in
    emit ctx (I.Dep (g, v, g, 0, 16))
  | S8 ->
    let idx = reg_index r in
    if idx < 4 then
      let g = Regs.gr_of_reg r in
      emit ctx (I.Dep (g, v, g, 0, 8))
    else
      let g = Regs.gr_of_reg (reg_of_index (idx - 4)) in
      emit ctx (I.Dep (g, v, g, 8, 8))

(* ---- effective address (default implementation; hot overrides) -------- *)

let default_ea ctx (m : mem) =
  match (m.base, m.index, m.disp) with
  | Some b, None, 0 -> Regs.gr_of_reg b
  | _ ->
    let t = ctx.fresh () in
    let base_part =
      match m.index with
      | Some (r, s) ->
        let shifted =
          if s = 1 then Regs.gr_of_reg r
          else begin
            let sh = ctx.fresh () in
            emit ctx
              (I.Shli (sh, Regs.gr_of_reg r, match s with 2 -> 1 | 4 -> 2 | _ -> 3));
            sh
          end
        in
        (match m.base with
        | Some b ->
          emit ctx (I.Add (t, Regs.gr_of_reg b, shifted));
          t
        | None -> shifted)
      | None -> (
        match m.base with Some b -> Regs.gr_of_reg b | None -> 0)
    in
    let with_disp =
      if m.disp = 0 then base_part
      else begin
        let d = ctx.fresh () in
        let disp = Ia32.Word.signed32 m.disp in
        if disp >= -0x1FFFFF && disp < 0x200000 then
          emit ctx (I.Addi (d, disp, base_part))
        else begin
          let dv = imm ctx m.disp in
          emit ctx (I.Add (d, dv, base_part))
        end;
        d
      end
    in
    (* keep guest addresses canonical 32-bit *)
    if with_disp = 0 then imm ctx 0
    else begin
      let z = ctx.fresh () in
      emit ctx (I.Zxt (z, with_disp, 4));
      z
    end

(* ---- misalignment-aware memory access --------------------------------- *)

(* Returns (p_aligned, p_mis) testing [addr] for [width]-alignment, with
   predicate reuse for equivalent addresses (paper §5 stage 3a). *)
let align_check ctx addr width =
  match Hashtbl.find_opt ctx.ma_pred_cache (addr, width) with
  | Some ps -> ps
  | None ->
    let p_al = ctx.pfresh () and p_mis = ctx.pfresh () in
    let low = ctx.fresh () in
    emit ctx (I.Andi (low, width - 1, addr));
    stop ctx;
    emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p_al, p_mis, 0, low));
    stop ctx;
    Hashtbl.replace ctx.ma_pred_cache (addr, width) (p_al, p_mis);
    (p_al, p_mis)

(* Split access at granularity [g] under predicate [p]: loads parts and
   combines (or extracts parts and stores). *)
let split_load ctx ~p ~width ~g addr dst =
  let parts = width / g in
  let part_regs =
    List.init parts (fun k ->
        let a = if k = 0 then addr else ctx.fresh () in
        if k > 0 then emitp ctx p (I.Addi (a, k * g, addr));
        let t = ctx.fresh () in
        emitp ctx p (I.Ld (g, I.Ld_none, t, a));
        t)
  in
  stop ctx;
  List.iteri
    (fun k t ->
      if k = 0 then emitp ctx p (I.Mov (dst, t))
      else emitp ctx p (I.Dep (dst, t, dst, k * g * 8, g * 8)))
    part_regs;
  stop ctx

let split_store ctx ~p ~width ~g addr src =
  let parts = width / g in
  for k = 0 to parts - 1 do
    let t = ctx.fresh () in
    emitp ctx p (I.Extru (t, src, k * g * 8, g * 8));
    let a = if k = 0 then addr else ctx.fresh () in
    if k > 0 then emitp ctx p (I.Addi (a, k * g, addr));
    emitp ctx p (I.St (g, a, t));
    stop ctx
  done

(* Emit a load of [width] bytes from [addr] into a fresh register,
   applying the block's misalignment policy. *)
let mem_load ctx ~width addr =
  let idx = ctx.access_idx in
  ctx.access_idx <- idx + 1;
  let dst = ctx.fresh () in
  let plain () =
    emit ctx (I.Ld (width, I.Ld_none, dst, addr));
    stop ctx
  in
  if width = 1 then plain ()
  else begin
    match ctx.misalign_policy idx width with
    | Ma_plain -> plain ()
    | Ma_detect ->
      (* stage 1: if misaligned, leave to the runtime to regenerate *)
      let _, p_mis = align_check ctx addr width in
      ctx.misalign_out ctx ~pr:p_mis;
      plain ()
    | Ma_avoid g | Ma_avoid_record (g, _) ->
      let record =
        match ctx.misalign_policy idx width with
        | Ma_avoid_record (_, slot) -> Some slot
        | _ -> None
      in
      let p_al, p_mis = align_check ctx addr width in
      emitp ctx p_al (I.Ld (width, I.Ld_none, dst, addr));
      split_load ctx ~p:p_mis ~width ~g addr dst;
      (match record with
      | Some slot ->
        (* predicated profile write: note that this access misaligned *)
        let sa = imm ctx slot in
        let one = ctx.fresh () in
        emitp ctx p_mis (I.Addi (one, 1, 0));
        emitp ctx p_mis (I.St (4, sa, one));
        stop ctx
      | None -> ())
  end;
  (* the sequences above are unpredicated; hot predication wraps whole
     instructions *)
  dst

let mem_store ctx ~width addr src =
  let idx = ctx.access_idx in
  ctx.access_idx <- idx + 1;
  let plain () =
    emit ctx (I.St (width, addr, src));
    stop ctx
  in
  if width = 1 then plain ()
  else begin
    match ctx.misalign_policy idx width with
    | Ma_plain -> plain ()
    | Ma_detect ->
      let _, p_mis = align_check ctx addr width in
      ctx.misalign_out ctx ~pr:p_mis;
      plain ()
    | Ma_avoid g | Ma_avoid_record (g, _) ->
      let record =
        match ctx.misalign_policy idx width with
        | Ma_avoid_record (_, slot) -> Some slot
        | _ -> None
      in
      let p_al, p_mis = align_check ctx addr width in
      emitp ctx p_al (I.St (width, addr, src));
      stop ctx;
      split_store ctx ~p:p_mis ~width ~g addr src;
      match record with
      | Some slot ->
        let sa = imm ctx slot in
        let one = ctx.fresh () in
        emitp ctx p_mis (I.Addi (one, 1, 0));
        emitp ctx p_mis (I.St (4, sa, one));
        stop ctx
      | None -> ()
  end

(* ---- operand access ---------------------------------------------------- *)

(* When the instruction produces live flags, register operands must be
   snapshotted into temporaries: the flag formulas read the *original*
   operand values, and the destination writeback may overwrite the canonic
   register they live in. *)
let snapshot_if_flags ctx v =
  match ctx.plan with
  | Plan_none -> v
  | Plan_set _ | Plan_fuse _ ->
    let t = ctx.fresh () in
    emit ctx (I.Mov (t, v));
    t

(* Read an operand; result canonical at [size]. *)
let read_operand ctx size op =
  match op with
  | R r ->
    let v = read_reg ctx size r in
    if size = S32 then snapshot_if_flags ctx v else v
  | I v -> imm ctx (Ia32.Word.mask (bytes_of size) v)
  | M m ->
    let addr = ctx.ea ctx m in
    mem_load ctx ~width:(bytes_of size) addr

(* For read-modify-write destinations: returns (read value, writeback). *)
let rmw_operand ctx size op =
  match op with
  | R r ->
    let v0 = read_reg ctx size r in
    let v = if size = S32 then snapshot_if_flags ctx v0 else v0 in
    (v, fun res -> write_reg ctx size r res)
  | M m ->
    let addr = ctx.ea ctx m in
    let v = mem_load ctx ~width:(bytes_of size) addr in
    (v, fun res -> mem_store ctx ~width:(bytes_of size) addr res)
  | I _ -> Bt_error.fail ~component:"templates" "rmw on immediate"

let write_operand ctx size op v =
  match op with
  | R r -> write_reg ctx size r v
  | M m ->
    let addr = ctx.ea ctx m in
    mem_store ctx ~width:(bytes_of size) addr v
  | I _ -> Bt_error.fail ~component:"templates" "write to immediate"

(* ---- EFLAGS machinery -------------------------------------------------- *)

(* 0/1 into a flag GR from a predicate pair. *)
let bool01 ctx (p1, p2) dst =
  emitp ctx p1 (I.Addi (dst, 1, 0));
  emitp ctx p2 (I.Mov (dst, 0));
  stop ctx

let nbits size = 8 * bytes_of size

(* Materialize one flag into its canonic GR. *)
let set_flag ctx pr f =
  let fg = Regs.gr_of_flag f in
  let guard = pr.p_guard in
  let e sem = match guard with None -> emit ctx sem | Some p -> emitp ctx p sem in
  let w = nbits pr.p_size in
  match (f, pr.p_op) with
  | CF, (`Add | `Sub) -> e (I.Extru (fg, pr.p_full, w, 1))
  | CF, `Logic -> e (I.Mov (fg, 0))
  | CF, `Mul ovf -> e (I.Mov (fg, ovf))
  | CF, `Shl ->
    (* cf = bit (w - count) of a, when count in 1..w; p_b holds the count *)
    let nc = ctx.fresh () in
    e (I.Subi (nc, w, pr.p_b));
    stop ctx;
    let t = ctx.fresh () in
    e (I.Shru (t, pr.p_a, nc));
    stop ctx;
    e (I.Andi (fg, 1, t));
    (* counts > w leave cf = 0; count > w implies count <> 0, so this
       correction may run unguarded *)
    let p_big = ctx.pfresh () and p_small = ctx.pfresh () in
    emit ctx (I.Cmpi (I.Cltu, I.Cnorm, p_big, p_small, w, pr.p_b));
    stop ctx;
    emitp ctx p_big (I.Mov (fg, 0));
    stop ctx
  | CF, (`Shr | `Sar) ->
    let cm1 = ctx.fresh () in
    e (I.Addi (cm1, -1, pr.p_b));
    stop ctx;
    let t = ctx.fresh () in
    let base =
      if pr.p_op = `Sar then begin
        let s = ctx.fresh () in
        e (I.Sxt (s, pr.p_a, bytes_of pr.p_size));
        stop ctx;
        s
      end
      else pr.p_a
    in
    e (I.Shrs (t, base, cm1));
    stop ctx;
    e (I.Andi (fg, 1, t));
    if pr.p_op = `Shr then begin
      let p_big = ctx.pfresh () and p_small = ctx.pfresh () in
      emit ctx (I.Cmpi (I.Cltu, I.Cnorm, p_big, p_small, w, pr.p_b));
      stop ctx;
      emitp ctx p_big (I.Mov (fg, 0));
      stop ctx
    end
  | CF, `Rol -> e (I.Andi (fg, 1, pr.p_res))
  | CF, `Ror -> e (I.Extru (fg, pr.p_res, w - 1, 1))
  | ZF, _ ->
    let p1 = ctx.pfresh () and p2 = ctx.pfresh () in
    e (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 0, pr.p_res));
    stop ctx;
    (match guard with
    | None -> bool01 ctx (p1, p2) fg
    | Some g ->
      (* nest: only update under the guard *)
      let t = ctx.fresh () in
      bool01 ctx (p1, p2) t;
      emitp ctx g (I.Mov (fg, t));
      stop ctx)
  | SF, _ -> e (I.Extru (fg, pr.p_res, w - 1, 1))
  | PF, _ ->
    let b = ctx.fresh () in
    e (I.Zxt (b, pr.p_res, 1));
    stop ctx;
    let c = ctx.fresh () in
    e (I.Popcnt (c, b));
    stop ctx;
    let c1 = ctx.fresh () in
    e (I.Andi (c1, 1, c));
    stop ctx;
    e (I.Xori (fg, 1, c1))
  | AF, (`Add | `Sub) ->
    let t = ctx.fresh () in
    e (I.Xor (t, pr.p_a, pr.p_b));
    stop ctx;
    let t2 = ctx.fresh () in
    e (I.Xor (t2, t, pr.p_res));
    stop ctx;
    e (I.Extru (fg, t2, 4, 1))
  | AF, _ -> e (I.Mov (fg, 0))
  | OF, `Add ->
    let t = ctx.fresh () in
    e (I.Xor (t, pr.p_res, pr.p_a));
    let t2 = ctx.fresh () in
    e (I.Xor (t2, pr.p_res, pr.p_b));
    stop ctx;
    let t3 = ctx.fresh () in
    e (I.And (t3, t, t2));
    stop ctx;
    e (I.Extru (fg, t3, w - 1, 1))
  | OF, `Sub ->
    let t = ctx.fresh () in
    e (I.Xor (t, pr.p_a, pr.p_b));
    let t2 = ctx.fresh () in
    e (I.Xor (t2, pr.p_a, pr.p_res));
    stop ctx;
    let t3 = ctx.fresh () in
    e (I.And (t3, t, t2));
    stop ctx;
    e (I.Extru (fg, t3, w - 1, 1))
  | OF, `Logic -> e (I.Mov (fg, 0))
  | OF, `Mul ovf -> e (I.Mov (fg, ovf))
  | OF, (`Shl | `Rol) ->
    let t = ctx.fresh () in
    e (I.Extru (t, pr.p_res, w - 1, 1));
    stop ctx;
    e (I.Xor (fg, t, Regs.gr_of_flag CF))
  | OF, `Shr -> e (I.Extru (fg, pr.p_a, w - 1, 1))
  | OF, `Sar -> e (I.Mov (fg, 0))
  | OF, `Ror ->
    let t = ctx.fresh () in
    e (I.Extru (t, pr.p_res, w - 1, 1));
    let t2 = ctx.fresh () in
    e (I.Extru (t2, pr.p_res, w - 2, 1));
    stop ctx;
    e (I.Xor (fg, t, t2))
  | DF, _ -> () (* DF is never produced by ALU ops *)

(* OF/CF order: OF formulas for shifts read the canonic CF, so set CF before
   OF — and requesting OF on a shift producer forces CF to be computed. *)
let flag_order = [ CF; ZF; SF; PF; AF; OF; DF ]

let materialize ctx pr flags =
  let flags =
    match pr.p_op with
    | (`Shl | `Rol) when List.mem OF flags && not (List.mem CF flags) ->
      CF :: flags
    | _ -> flags
  in
  List.iter
    (fun f -> if List.mem f flags then set_flag ctx pr f)
    flag_order;
  if flags <> [] then stop ctx

(* Condition predicate straight from a producer (fused compare+branch). *)
let cond_pred_of_producer ctx pr c =
  let p1 = ctx.pfresh () and p2 = ctx.pfresh () in
  let cmp rel a b = emit ctx (I.Cmp (rel, I.Cnorm, p1, p2, a, b)) in
  let cmpi rel i a = emit ctx (I.Cmpi (rel, I.Cnorm, p1, p2, i, a)) in
  let signed_ops () =
    (sext ctx pr.p_size pr.p_a, sext ctx pr.p_size pr.p_b)
  in
  let direct () =
    match (pr.p_op, c) with
    | _, E -> cmpi I.Ceq 0 pr.p_res; true
    | _, Ne -> cmpi I.Cne 0 pr.p_res; true
    | `Sub, B when not pr.p_cin -> cmp I.Cltu pr.p_a pr.p_b; true
    | `Sub, Ae when not pr.p_cin -> cmp I.Cgeu pr.p_a pr.p_b; true
    | `Sub, Be when not pr.p_cin -> cmp I.Cleu pr.p_a pr.p_b; true
    | `Sub, A when not pr.p_cin -> cmp I.Cgtu pr.p_a pr.p_b; true
    | `Sub, B ->
      let t = ctx.fresh () in
      emit ctx (I.Extru (t, pr.p_full, nbits pr.p_size, 1));
      stop ctx;
      cmpi I.Ceq 1 t; true
    | `Sub, Ae ->
      let t = ctx.fresh () in
      emit ctx (I.Extru (t, pr.p_full, nbits pr.p_size, 1));
      stop ctx;
      cmpi I.Ceq 0 t; true
    | `Sub, L when not pr.p_cin ->
      let a, b = signed_ops () in
      stop ctx; cmp I.Clt a b; true
    | `Sub, Ge when not pr.p_cin ->
      let a, b = signed_ops () in
      stop ctx; cmp I.Cge a b; true
    | `Sub, Le when not pr.p_cin ->
      let a, b = signed_ops () in
      stop ctx; cmp I.Cle a b; true
    | `Sub, G when not pr.p_cin ->
      let a, b = signed_ops () in
      stop ctx; cmp I.Cgt a b; true
    | `Logic, S ->
      let s = sext ctx pr.p_size pr.p_res in
      stop ctx; cmpi I.Cgt 0 s; true (* 0 > res *)
    | `Logic, Ns ->
      let s = sext ctx pr.p_size pr.p_res in
      stop ctx; cmpi I.Cle 0 s; true
    | `Logic, L ->
      let s = sext ctx pr.p_size pr.p_res in
      stop ctx; cmpi I.Cgt 0 s; true (* OF=0, so L = SF *)
    | `Logic, Ge ->
      let s = sext ctx pr.p_size pr.p_res in
      stop ctx; cmpi I.Cle 0 s; true
    | `Logic, Le ->
      let s = sext ctx pr.p_size pr.p_res in
      stop ctx; cmpi I.Cge 0 s; true (* res<=0 signed *)
    | `Logic, G ->
      let s = sext ctx pr.p_size pr.p_res in
      stop ctx; cmpi I.Clt 0 s; true
    | `Logic, B -> emit ctx (I.Setp (p1, false)); emit ctx (I.Setp (p2, true)); true
    | `Logic, Ae -> emit ctx (I.Setp (p1, true)); emit ctx (I.Setp (p2, false)); true
    | (`Add | `Sub), S ->
      let s = ctx.fresh () in
      emit ctx (I.Extru (s, pr.p_res, nbits pr.p_size - 1, 1));
      stop ctx;
      cmpi I.Ceq 1 s; true
    | `Add, B ->
      (* cf of add: bit w of the full sum *)
      let t = ctx.fresh () in
      emit ctx (I.Extru (t, pr.p_full, nbits pr.p_size, 1));
      stop ctx;
      cmpi I.Ceq 1 t; true
    | `Add, Ae ->
      let t = ctx.fresh () in
      emit ctx (I.Extru (t, pr.p_full, nbits pr.p_size, 1));
      stop ctx;
      cmpi I.Ceq 0 t; true
    | _ -> false
  in
  if direct () then begin
    stop ctx;
    Some (p1, p2)
  end
  else None

(* Condition predicate from the canonic flag registers. *)
let cond_pred_canonic ctx c =
  let p1 = ctx.pfresh () and p2 = ctx.pfresh () in
  let fg = Regs.gr_of_flag in
  let one g = emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 1, g)) in
  let zero g = emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 0, g)) in
  (match c with
  | O -> one (fg OF)
  | No -> zero (fg OF)
  | B -> one (fg CF)
  | Ae -> zero (fg CF)
  | E -> one (fg ZF)
  | Ne -> zero (fg ZF)
  | S -> one (fg SF)
  | Ns -> zero (fg SF)
  | P -> one (fg PF)
  | Np -> zero (fg PF)
  | Be ->
    let t = ctx.fresh () in
    emit ctx (I.Or (t, fg CF, fg ZF));
    stop ctx;
    emit ctx (I.Cmpi (I.Cltu, I.Cnorm, p1, p2, 0, t))
  | A ->
    let t = ctx.fresh () in
    emit ctx (I.Or (t, fg CF, fg ZF));
    stop ctx;
    emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 0, t))
  | L ->
    let t = ctx.fresh () in
    emit ctx (I.Xor (t, fg SF, fg OF));
    stop ctx;
    emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 1, t))
  | Ge ->
    let t = ctx.fresh () in
    emit ctx (I.Xor (t, fg SF, fg OF));
    stop ctx;
    emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 0, t))
  | Le ->
    let t = ctx.fresh () in
    emit ctx (I.Xor (t, fg SF, fg OF));
    let t2 = ctx.fresh () in
    stop ctx;
    emit ctx (I.Or (t2, t, fg ZF));
    stop ctx;
    emit ctx (I.Cmpi (I.Cltu, I.Cnorm, p1, p2, 0, t2))
  | G ->
    let t = ctx.fresh () in
    emit ctx (I.Xor (t, fg SF, fg OF));
    let t2 = ctx.fresh () in
    stop ctx;
    emit ctx (I.Or (t2, t, fg ZF));
    stop ctx;
    emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p1, p2, 0, t2)));
  stop ctx;
  (p1, p2)

(* Apply the driver's flag plan after an ALU-class instruction. *)
let finish_flags ctx pr =
  ctx.last_producer <- Some pr;
  match ctx.plan with
  | Plan_none -> ()
  | Plan_set flags -> materialize ctx pr flags
  | Plan_fuse (c, extra) -> (
    materialize ctx pr extra;
    match cond_pred_of_producer ctx pr c with
    | Some ps -> ctx.fused_pred <- Some ps
    | None ->
      (* fall back: materialize everything the condition needs, evaluate
         from canonic flags *)
      materialize ctx pr (cond_uses c);
      ctx.fused_pred <- Some (cond_pred_canonic ctx c))

(* Obtain the condition predicate for a consumer (Jcc/Setcc/Cmov). *)
let cond_pred ctx c =
  match ctx.fused_pred with
  | Some ps ->
    ctx.fused_pred <- None;
    ps
  | None -> cond_pred_canonic ctx c

(* ---- stack helpers ----------------------------------------------------- *)

let esp = Regs.gr_of_reg Esp

let push32 ctx v =
  let sp = ctx.fresh () in
  emit ctx (I.Addi (sp, -4, esp));
  stop ctx;
  let sp' = ctx.fresh () in
  emit ctx (I.Zxt (sp', sp, 4));
  stop ctx;
  mem_store ctx ~width:4 sp' v;
  emit ctx (I.Mov (esp, sp'));
  stop ctx

(* pop: returns the loaded value; ESP updated after the load (precise). *)
let pop32 ctx =
  let v = mem_load ctx ~width:4 esp in
  let sp = ctx.fresh () in
  emit ctx (I.Addi (sp, 4, esp));
  stop ctx;
  emit ctx (I.Zxt (esp, sp, 4));
  stop ctx;
  v

(* ---- integer instruction templates ------------------------------------ *)

let no_guard = None

let emit_alu ctx op size dst src =
  let w = bytes_of size in
  let b = read_operand ctx size src in
  match op with
  | Add | Adc ->
    let a, writeback = rmw_operand ctx size dst in
    let t1 = ctx.fresh () in
    emit ctx (I.Add (t1, a, b));
    stop ctx;
    let full =
      if op = Adc then begin
        let t2 = ctx.fresh () in
        emit ctx (I.Add (t2, t1, Regs.gr_of_flag CF));
        stop ctx;
        t2
      end
      else t1
    in
    let res = ctx.fresh () in
    emit ctx (I.Zxt (res, full, w));
    stop ctx;
    writeback res;
    finish_flags ctx
      { p_op = `Add; p_size = size; p_a = a; p_b = b; p_res = res;
        p_full = full; p_guard = no_guard; p_cin = op = Adc }
  | Sub | Sbb | Cmp ->
    let a, writeback = rmw_operand ctx size dst in
    let t1 = ctx.fresh () in
    emit ctx (I.Sub (t1, a, b));
    stop ctx;
    let full =
      if op = Sbb then begin
        let t2 = ctx.fresh () in
        emit ctx (I.Sub (t2, t1, Regs.gr_of_flag CF));
        stop ctx;
        t2
      end
      else t1
    in
    let res = ctx.fresh () in
    emit ctx (I.Zxt (res, full, w));
    stop ctx;
    if op <> Cmp then writeback res;
    finish_flags ctx
      { p_op = `Sub; p_size = size; p_a = a; p_b = b; p_res = res;
        p_full = full; p_guard = no_guard; p_cin = op = Sbb }
  | And | Or | Xor ->
    let a, writeback = rmw_operand ctx size dst in
    let res = ctx.fresh () in
    (match op with
    | And -> emit ctx (I.And (res, a, b))
    | Or -> emit ctx (I.Or (res, a, b))
    | Xor -> emit ctx (I.Xor (res, a, b))
    | _ -> assert false);
    stop ctx;
    writeback res;
    finish_flags ctx
      { p_op = `Logic; p_size = size; p_a = a; p_b = b; p_res = res;
        p_full = res; p_guard = no_guard; p_cin = false }

let emit_test ctx size a_op b_op =
  let a = read_operand ctx size a_op in
  let b = read_operand ctx size b_op in
  let res = ctx.fresh () in
  emit ctx (I.And (res, a, b));
  stop ctx;
  finish_flags ctx
    { p_op = `Logic; p_size = size; p_a = a; p_b = b; p_res = res;
      p_full = res; p_guard = no_guard; p_cin = false }

let emit_shift_imm ctx sh size dst n =
  let w = bytes_of size in
  let bits = 8 * w in
  let n = n land 31 in
  if n <> 0 then begin
    let a, writeback = rmw_operand ctx size dst in
    let res = ctx.fresh () in
    (match sh with
    | Shl ->
      let t = ctx.fresh () in
      emit ctx (I.Shli (t, a, n));
      stop ctx;
      emit ctx (I.Zxt (res, t, w))
    | Shr -> emit ctx (I.Shrui (res, a, n))
    | Sar ->
      let s = sext ctx size a in
      stop ctx;
      let t = ctx.fresh () in
      emit ctx (I.Shrsi (t, s, n));
      stop ctx;
      emit ctx (I.Zxt (res, t, w))
    | Rol ->
      let c = n mod bits in
      if c = 0 then emit ctx (I.Mov (res, a))
      else begin
        let t1 = ctx.fresh () and t2 = ctx.fresh () in
        emit ctx (I.Shli (t1, a, c));
        emit ctx (I.Shrui (t2, a, bits - c));
        stop ctx;
        let t3 = ctx.fresh () in
        emit ctx (I.Or (t3, t1, t2));
        stop ctx;
        emit ctx (I.Zxt (res, t3, w))
      end
    | Ror ->
      let c = n mod bits in
      if c = 0 then emit ctx (I.Mov (res, a))
      else begin
        let t1 = ctx.fresh () and t2 = ctx.fresh () in
        emit ctx (I.Shrui (t1, a, c));
        emit ctx (I.Shli (t2, a, bits - c));
        stop ctx;
        let t3 = ctx.fresh () in
        emit ctx (I.Or (t3, t1, t2));
        stop ctx;
        emit ctx (I.Zxt (res, t3, w))
      end);
    stop ctx;
    writeback res;
    let op =
      match sh with
      | Shl -> `Shl | Shr -> `Shr | Sar -> `Sar | Rol -> `Rol | Ror -> `Ror
    in
    finish_flags ctx
      { p_op = op; p_size = size; p_a = a; p_b = imm ctx n; p_res = res;
        p_full = res; p_guard = no_guard; p_cin = false }
  end
  else begin
    (* zero count: no state change at all; a pending fused plan still needs
       a predicate from the canonic flags *)
    match ctx.plan with
    | Plan_fuse (c, _) -> ctx.fused_pred <- Some (cond_pred_canonic ctx c)
    | _ -> ()
  end

let emit_shift_cl ctx sh size dst =
  let w = bytes_of size in
  let bits = 8 * w in
  let cl = read_reg ctx S8 Ecx in
  let cnt = ctx.fresh () in
  emit ctx (I.Andi (cnt, 31, cl));
  stop ctx;
  let p_nz = ctx.pfresh () and p_z = ctx.pfresh () in
  emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_nz, p_z, 0, cnt));
  stop ctx;
  let a, writeback = rmw_operand ctx size dst in
  let res = ctx.fresh () in
  (match sh with
  | Shl ->
    let t = ctx.fresh () in
    emit ctx (I.Shl (t, a, cnt));
    stop ctx;
    emit ctx (I.Zxt (res, t, w))
  | Shr -> emit ctx (I.Shru (res, a, cnt))
  | Sar ->
    let s = sext ctx size a in
    stop ctx;
    let t = ctx.fresh () in
    emit ctx (I.Shrs (t, s, cnt));
    stop ctx;
    emit ctx (I.Zxt (res, t, w))
  | Rol | Ror ->
    let c = ctx.fresh () in
    emit ctx (I.Andi (c, bits - 1, cnt));
    stop ctx;
    let nc = ctx.fresh () in
    emit ctx (I.Subi (nc, bits, c));
    stop ctx;
    let t1 = ctx.fresh () and t2 = ctx.fresh () in
    (match sh with
    | Rol ->
      emit ctx (I.Shl (t1, a, c));
      emit ctx (I.Shru (t2, a, nc))
    | _ ->
      emit ctx (I.Shru (t1, a, c));
      emit ctx (I.Shl (t2, a, nc)));
    stop ctx;
    let t3 = ctx.fresh () in
    emit ctx (I.Or (t3, t1, t2));
    stop ctx;
    emit ctx (I.Zxt (res, t3, w)));
  stop ctx;
  (* count=0 leaves the value unchanged, so the unconditional write is
     correct; flags update only under p_nz *)
  writeback res;
  let op =
    match sh with
    | Shl -> `Shl | Shr -> `Shr | Sar -> `Sar | Rol -> `Rol | Ror -> `Ror
  in
  finish_flags ctx
    { p_op = op; p_size = size; p_a = a; p_b = cnt; p_res = res;
      p_full = res; p_guard = Some p_nz; p_cin = false }

(* shld/shrd flags: CF = last bit shifted out of a; SZP from result;
   OF = msb(res) ^ (msb(a) for shrd | cf for shld). Materialized directly. *)
let emit_shld ctx ~left dst r amount =
  let a, writeback = rmw_operand ctx S32 dst in
  let b = Regs.gr_of_reg r in
  let imm_cnt = match amount with Amt_imm n -> Some (n land 31) | Amt_cl -> None in
  if imm_cnt = Some 0 then begin
    match ctx.plan with
    | Plan_fuse (c, _) -> ctx.fused_pred <- Some (cond_pred_canonic ctx c)
    | _ -> ()
  end
  else begin
    let cnt, guard =
      match imm_cnt with
      | Some n -> (imm ctx n, None)
      | None ->
        let cl = read_reg ctx S8 Ecx in
        let cnt = ctx.fresh () in
        emit ctx (I.Andi (cnt, 31, cl));
        stop ctx;
        let p_nz = ctx.pfresh () and p_z = ctx.pfresh () in
        emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_nz, p_z, 0, cnt));
        stop ctx;
        (cnt, Some p_nz)
    in
    let nc = ctx.fresh () in
    emit ctx (I.Subi (nc, 32, cnt));
    stop ctx;
    let t1 = ctx.fresh () and t2 = ctx.fresh () in
    if left then begin
      emit ctx (I.Shl (t1, a, cnt));
      emit ctx (I.Shru (t2, b, nc))
    end
    else begin
      emit ctx (I.Shru (t1, a, cnt));
      emit ctx (I.Shl (t2, b, nc))
    end;
    stop ctx;
    let t3 = ctx.fresh () in
    emit ctx (I.Or (t3, t1, t2));
    stop ctx;
    let res = ctx.fresh () in
    emit ctx (I.Zxt (res, t3, 4));
    stop ctx;
    (* writeback only when count <> 0 *)
    (match guard with
    | None -> writeback res
    | Some p ->
      (match dst with
      | R rr -> emitp ctx p (I.Mov (Regs.gr_of_reg rr, res))
      | M _ -> writeback res (* value unchanged when cnt=0; store is safe *)
      | I _ -> Bt_error.fail ~component:"templates" "shld imm dst");
      stop ctx);
    let flags =
      match ctx.plan with
      | Plan_set fl -> fl
      | Plan_fuse (c, fl) -> fl @ cond_uses c
      | Plan_none -> []
    in
    let e sem = match guard with None -> emit ctx sem | Some p -> emitp ctx p sem in
    (* compute CF into a temp whenever CF or OF is needed (the OF formula
       uses the freshly shifted-out bit, not the canonic CF) *)
    let cf_tmp =
      if List.mem CF flags || (left && List.mem OF flags) then begin
        let pos = ctx.fresh () in
        if left then e (I.Subi (pos, 32, cnt)) else e (I.Addi (pos, -1, cnt));
        stop ctx;
        let t = ctx.fresh () in
        e (I.Shru (t, a, pos));
        stop ctx;
        let cf = ctx.fresh () in
        e (I.Andi (cf, 1, t));
        stop ctx;
        if List.mem CF flags then begin
          e (I.Mov (Regs.gr_of_flag CF, cf));
          stop ctx
        end;
        Some cf
      end
      else None
    in
    let pr =
      { p_op = `Logic; p_size = S32; p_a = a; p_b = b; p_res = res;
        p_full = res; p_guard = guard; p_cin = false }
    in
    List.iter
      (fun f -> if List.mem f flags then set_flag ctx pr f)
      [ ZF; SF; PF ];
    if List.mem OF flags then begin
      let t = ctx.fresh () in
      e (I.Extru (t, res, 31, 1));
      stop ctx;
      if left then
        e (I.Xor (Regs.gr_of_flag OF, t, Option.get cf_tmp))
      else begin
        let t2 = ctx.fresh () in
        e (I.Extru (t2, a, 31, 1));
        stop ctx;
        e (I.Xor (Regs.gr_of_flag OF, t, t2))
      end;
      stop ctx
    end;
    match ctx.plan with
    | Plan_fuse (c, _) -> ctx.fused_pred <- Some (cond_pred_canonic ctx c)
    | _ -> ()
  end

let emit_incdec ctx ~inc size dst =
  let w = bytes_of size in
  let a, writeback = rmw_operand ctx size dst in
  let one = imm ctx 1 in
  let full = ctx.fresh () in
  if inc then emit ctx (I.Add (full, a, one)) else emit ctx (I.Sub (full, a, one));
  stop ctx;
  let res = ctx.fresh () in
  emit ctx (I.Zxt (res, full, w));
  stop ctx;
  writeback res;
  finish_flags ctx
    { p_op = (if inc then `Add else `Sub); p_size = size; p_a = a; p_b = one;
      p_res = res; p_full = full; p_guard = no_guard; p_cin = false }

let emit_neg ctx size dst =
  let w = bytes_of size in
  let a, writeback = rmw_operand ctx size dst in
  let full = ctx.fresh () in
  emit ctx (I.Subi (full, 0, a));
  stop ctx;
  let res = ctx.fresh () in
  emit ctx (I.Zxt (res, full, w));
  stop ctx;
  writeback res;
  finish_flags ctx
    { p_op = `Sub; p_size = size; p_a = 0; p_b = a; p_res = res;
      p_full = full; p_guard = no_guard; p_cin = false }

let emit_not ctx size dst =
  let a, writeback = rmw_operand ctx size dst in
  let m = imm ctx (Ia32.Word.mask (bytes_of size) (-1)) in
  let res = ctx.fresh () in
  emit ctx (I.Xor (res, a, m));
  stop ctx;
  writeback res

(* Overflow boolean (0/1 GR) for a signed product: full <> sext(res). *)
let mul_overflow ctx full res w =
  let s = ctx.fresh () in
  emit ctx (I.Sxt (s, res, w));
  stop ctx;
  let p1 = ctx.pfresh () and p2 = ctx.pfresh () in
  emit ctx (I.Cmp (I.Cne, I.Cnorm, p1, p2, full, s));
  stop ctx;
  let ovf = ctx.fresh () in
  bool01 ctx (p1, p2) ovf;
  ovf

let emit_imul2 ctx r src immv =
  let a0 =
    match immv with
    | Some v -> imm ctx v
    | None -> Regs.gr_of_reg r
  in
  let a = sext ctx S32 a0 in
  let b0 = read_operand ctx S32 src in
  let b = sext ctx S32 b0 in
  stop ctx;
  let full = ctx.fresh () in
  emit ctx (I.Xma (full, a, b, 0));
  stop ctx;
  let res = ctx.fresh () in
  emit ctx (I.Zxt (res, full, 4));
  stop ctx;
  write_reg ctx S32 r res;
  (match ctx.plan with
  | Plan_none -> ()
  | _ ->
    let ovf = mul_overflow ctx full res 4 in
    finish_flags ctx
      { p_op = `Mul ovf; p_size = S32; p_a = a; p_b = b; p_res = res;
        p_full = full; p_guard = no_guard; p_cin = false })

let emit_mul1 ctx ~signed size src =
  let w = bytes_of size in
  let acc0 = read_reg ctx size Eax in
  let b0 = read_operand ctx size src in
  let a = if signed then sext ctx size acc0 else acc0 in
  let b = if signed then sext ctx size b0 else b0 in
  stop ctx;
  let full = ctx.fresh () in
  emit ctx (I.Xma (full, a, b, 0));
  stop ctx;
  let lo = ctx.fresh () in
  emit ctx (I.Zxt (lo, full, w));
  let hi = ctx.fresh () in
  emit ctx (I.Extru (hi, full, 8 * w, 8 * w));
  stop ctx;
  (match size with
  | S8 ->
    (* ax = hi:lo *)
    let t = ctx.fresh () in
    emit ctx (I.Dep (t, hi, lo, 8, 8));
    stop ctx;
    write_reg ctx S16 Eax t
  | S16 ->
    write_reg ctx S16 Eax lo;
    write_reg ctx S16 Edx hi
  | S32 ->
    write_reg ctx S32 Eax lo;
    write_reg ctx S32 Edx hi);
  match ctx.plan with
  | Plan_none -> ()
  | _ ->
    let ovf =
      if signed then mul_overflow ctx full lo w
      else begin
        let p1 = ctx.pfresh () and p2 = ctx.pfresh () in
        emit ctx (I.Cmpi (I.Cne, I.Cnorm, p1, p2, 0, hi));
        stop ctx;
        let o = ctx.fresh () in
        bool01 ctx (p1, p2) o;
        o
      end
    in
    finish_flags ctx
      { p_op = `Mul ovf; p_size = size; p_a = a; p_b = b; p_res = lo;
        p_full = full; p_guard = no_guard; p_cin = false }

let emit_div ctx ~signed size src =
  let w = bytes_of size in
  let b0 = read_operand ctx size src in
  (* dividend from the implicit register pair *)
  let dividend =
    match size with
    | S8 -> read_reg ctx S16 Eax
    | S16 ->
      let lo = read_reg ctx S16 Eax and hi = read_reg ctx S16 Edx in
      let t = ctx.fresh () in
      emit ctx (I.Shli (t, hi, 16));
      stop ctx;
      let d = ctx.fresh () in
      emit ctx (I.Or (d, t, lo));
      stop ctx;
      d
    | S32 ->
      let t = ctx.fresh () in
      emit ctx (I.Shli (t, Regs.gr_of_reg Edx, 32));
      stop ctx;
      let d = ctx.fresh () in
      emit ctx (I.Or (d, t, Regs.gr_of_reg Eax));
      stop ctx;
      d
  in
  (* #DE on zero divisor *)
  let p_z = ctx.pfresh () and p_nz = ctx.pfresh () in
  emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p_z, p_nz, 0, b0));
  stop ctx;
  ctx.guest_fault ctx ~pr:p_z 0;
  let dd, bb =
    if signed then begin
      let dd = ctx.fresh () in
      emit ctx (I.Sxt (dd, dividend, 2 * w));
      let bb = sext ctx size b0 in
      stop ctx;
      (dd, bb)
    end
    else (dividend, b0)
  in
  let q = ctx.fresh () and r = ctx.fresh () in
  if signed then begin
    emit ctx (I.Divs (q, dd, bb));
    emit ctx (I.Rems (r, dd, bb))
  end
  else begin
    emit ctx (I.Divu (q, dd, bb));
    emit ctx (I.Remu (r, dd, bb))
  end;
  stop ctx;
  (* #DE when the quotient does not fit *)
  let p_ovf = ctx.pfresh () and p_ok = ctx.pfresh () in
  if signed then begin
    let s = ctx.fresh () in
    emit ctx (I.Sxt (s, q, w));
    stop ctx;
    emit ctx (I.Cmp (I.Cne, I.Cnorm, p_ovf, p_ok, q, s))
  end
  else begin
    let t = ctx.fresh () in
    emit ctx (I.Shrui (t, q, 8 * w));
    stop ctx;
    emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_ovf, p_ok, 0, t))
  end;
  stop ctx;
  ctx.guest_fault ctx ~pr:p_ovf 0;
  let qz = zext ctx size q and rz = zext ctx size r in
  stop ctx;
  match size with
  | S8 ->
    let t = ctx.fresh () in
    emit ctx (I.Dep (t, rz, qz, 8, 8));
    stop ctx;
    write_reg ctx S16 Eax t
  | S16 ->
    write_reg ctx S16 Eax qz;
    write_reg ctx S16 Edx rz
  | S32 ->
    write_reg ctx S32 Eax qz;
    write_reg ctx S32 Edx rz

(* ---- FP-aware memory access ------------------------------------------- *)

(* Load an FP value of [width] (4 = single, 8 = double) into FR [dst],
   applying the misalignment policy: the aligned fast path uses ldf
   directly; avoidance paths assemble the bits on the integer side and
   transfer (expensive, like the real sequences). *)
let mem_loadf ctx ~width addr dst =
  let idx = ctx.access_idx in
  ctx.access_idx <- idx + 1;
  let plain () =
    emit ctx (I.Ldf (width, dst, addr));
    stop ctx
  in
  match ctx.misalign_policy idx width with
  | Ma_plain -> plain ()
  | Ma_detect ->
    let _, p_mis = align_check ctx addr width in
    ctx.misalign_out ctx ~pr:p_mis;
    plain ()
  | Ma_avoid g | Ma_avoid_record (g, _) ->
    let p_al, p_mis = align_check ctx addr width in
    emitp ctx p_al (I.Ldf (width, dst, addr));
    let t = ctx.fresh () in
    split_load ctx ~p:p_mis ~width ~g addr t;
    if width = 4 then emitp ctx p_mis (I.Setf_s (dst, t))
    else emitp ctx p_mis (I.Setf_d (dst, t));
    stop ctx

let mem_storef ctx ~width addr src =
  let idx = ctx.access_idx in
  ctx.access_idx <- idx + 1;
  let plain () =
    emit ctx (I.Stf (width, addr, src));
    stop ctx
  in
  match ctx.misalign_policy idx width with
  | Ma_plain -> plain ()
  | Ma_detect ->
    let _, p_mis = align_check ctx addr width in
    ctx.misalign_out ctx ~pr:p_mis;
    plain ()
  | Ma_avoid g | Ma_avoid_record (g, _) ->
    let p_al, p_mis = align_check ctx addr width in
    emitp ctx p_al (I.Stf (width, addr, src));
    let t = ctx.fresh () in
    if width = 4 then emitp ctx p_mis (I.Getf_s (t, src))
    else emitp ctx p_mis (I.Getf_d (t, src));
    stop ctx;
    split_store ctx ~p:p_mis ~width ~g addr t

(* ---- x87 templates ----------------------------------------------------- *)

(* FP status condition codes live in a dedicated GR as FNSTSW-image bits
   (C0 = 0x100, C1 = 0x200, C2 = 0x400, C3 = 0x4000). *)
let r_fpcc = 40

let fsize_width = function F32 -> 4 | F64 -> 8

(* FIST conversion matching Fpconv.fist: round-to-even, with the integer
   indefinite on NaN and out-of-range values. *)
let emit_fist ctx fr_src ~bits =
  let t = ctx.fresh () in
  emit ctx (I.Fcvt_fx (t, fr_src));
  stop ctx;
  let indef = imm64 ctx (Int64.of_int (1 lsl (bits - 1))) in
  let hi = imm64 ctx (Int64.sub (Int64.shift_left 1L (bits - 1)) 1L) in
  let lo = imm64 ctx (Int64.neg (Int64.shift_left 1L (bits - 1))) in
  stop ctx;
  let p1 = ctx.pfresh () and p1' = ctx.pfresh () in
  emit ctx (I.Cmp (I.Cgt, I.Cnorm, p1, p1', t, hi));
  stop ctx;
  emitp ctx p1 (I.Mov (t, indef));
  stop ctx;
  let p2 = ctx.pfresh () and p2' = ctx.pfresh () in
  emit ctx (I.Cmp (I.Clt, I.Cnorm, p2, p2', t, lo));
  stop ctx;
  emitp ctx p2 (I.Mov (t, indef));
  stop ctx;
  let p3 = ctx.pfresh () and p3' = ctx.pfresh () in
  emit ctx (I.Fcmp (I.Funord, p3, p3', fr_src, fr_src));
  stop ctx;
  emitp ctx p3 (I.Mov (t, indef));
  stop ctx;
  let res = ctx.fresh () in
  emit ctx (I.Zxt (res, t, bits / 8));
  stop ctx;
  res

(* FCOM condition codes into r_fpcc per the interpreter's compare_with. *)
let emit_fcom ctx fr_a fr_b =
  let t = ctx.fresh () in
  emit ctx (I.Mov (t, 0));
  stop ctx;
  let plt = ctx.pfresh () and plt' = ctx.pfresh () in
  emit ctx (I.Fcmp (I.Flt, plt, plt', fr_a, fr_b));
  let peq = ctx.pfresh () and peq' = ctx.pfresh () in
  emit ctx (I.Fcmp (I.Feq, peq, peq', fr_a, fr_b));
  let pun = ctx.pfresh () and pun' = ctx.pfresh () in
  emit ctx (I.Fcmp (I.Funord, pun, pun', fr_a, fr_b));
  stop ctx;
  emitp ctx plt (I.Addi (t, 0x100, 0));
  emitp ctx peq (I.Movi (t, 0x4000L));
  stop ctx;
  emitp ctx pun (I.Movi (t, 0x4500L));
  stop ctx;
  emit ctx (I.Mov (r_fpcc, t));
  stop ctx

let fp_apply_emit ctx op dst a b =
  match op with
  | FAdd -> emit ctx (I.Fadd (dst, a, b))
  | FSub -> emit ctx (I.Fsub (dst, a, b))
  | FSubr -> emit ctx (I.Fsub (dst, b, a))
  | FMul -> emit ctx (I.Fmul (dst, a, b))
  | FDiv -> emit ctx (I.Fdiv (dst, a, b))
  | FDivr -> emit ctx (I.Fdiv (dst, b, a))

let emit_fp ctx f =
  let fp = ctx.fp in
  match f with
  | Fld_st i ->
    let src = Fpmap.read fp i in
    let dst = Fpmap.push fp in
    emit ctx (I.Fmov (dst, src));
    stop ctx
  | Fld_m (fs, m) ->
    (* load first so a page fault precedes the stack-overflow fault, as in
       the reference interpreter *)
    let addr = ctx.ea ctx m in
    let tmp = ctx.ffresh () in
    mem_loadf ctx ~width:(fsize_width fs) addr tmp;
    let dst = Fpmap.push fp in
    emit ctx (I.Fmov (dst, tmp));
    stop ctx
  | Fld1 ->
    let dst = Fpmap.push fp in
    emit ctx (I.Fmov (dst, 1));
    stop ctx
  | Fldz ->
    let dst = Fpmap.push fp in
    emit ctx (I.Fmov (dst, 0));
    stop ctx
  | Fldpi ->
    let dst = Fpmap.push fp in
    let bits = imm64 ctx (Ia32.Fpconv.bits_of_f64 Float.pi) in
    stop ctx;
    emit ctx (I.Setf_d (dst, bits));
    stop ctx
  | Fst_st (i, pop) ->
    let src = Fpmap.read fp 0 in
    let dst = Fpmap.write fp i in
    emit ctx (I.Fmov (dst, src));
    stop ctx;
    if pop then Fpmap.pop fp
  | Fst_m (fs, m, pop) ->
    let src = Fpmap.read fp 0 in
    let addr = ctx.ea ctx m in
    mem_storef ctx ~width:(fsize_width fs) addr src;
    if pop then Fpmap.pop fp
  | Fild (is, m) ->
    let addr = ctx.ea ctx m in
    let w = match is with I16 -> 2 | I32 -> 4 in
    let v = mem_load ctx ~width:w addr in
    let s = ctx.fresh () in
    emit ctx (I.Sxt (s, v, w));
    stop ctx;
    let dst = Fpmap.push fp in
    emit ctx (I.Fcvt_xf (dst, s));
    stop ctx
  | Fist_m (is, m, pop) ->
    let src = Fpmap.read fp 0 in
    let bits = match is with I16 -> 16 | I32 -> 32 in
    let v = emit_fist ctx src ~bits in
    let addr = ctx.ea ctx m in
    mem_store ctx ~width:(bits / 8) addr v;
    if pop then Fpmap.pop fp
  | Fop_st0_st (op, i) ->
    let a = Fpmap.read fp 0 and b = Fpmap.read fp i in
    let dst = Fpmap.write fp 0 in
    fp_apply_emit ctx op dst a b;
    stop ctx
  | Fop_st_st0 (op, i, pop) ->
    let a = Fpmap.read fp i and b = Fpmap.read fp 0 in
    let dst = Fpmap.write fp i in
    fp_apply_emit ctx op dst a b;
    stop ctx;
    if pop then Fpmap.pop fp
  | Fop_m (op, fs, m) ->
    let addr = ctx.ea ctx m in
    let b = ctx.ffresh () in
    mem_loadf ctx ~width:(fsize_width fs) addr b;
    let a = Fpmap.read fp 0 in
    let dst = Fpmap.write fp 0 in
    fp_apply_emit ctx op dst a b;
    stop ctx
  | Fchs ->
    let a = Fpmap.read fp 0 in
    let dst = Fpmap.write fp 0 in
    emit ctx (I.Fneg (dst, a));
    stop ctx
  | Fabs ->
    let a = Fpmap.read fp 0 in
    let dst = Fpmap.write fp 0 in
    emit ctx (I.Fabs_ (dst, a));
    stop ctx
  | Fsqrt ->
    let a = Fpmap.read fp 0 in
    let dst = Fpmap.write fp 0 in
    emit ctx (I.Fsqrt (dst, a));
    stop ctx
  | Frndint ->
    let a = Fpmap.read fp 0 in
    let dst = Fpmap.write fp 0 in
    emit ctx (I.Frint (dst, a));
    stop ctx
  | Fcom_st (i, pops) ->
    let a = Fpmap.read fp 0 and b = Fpmap.read fp i in
    emit_fcom ctx a b;
    for _ = 1 to pops do Fpmap.pop fp done
  | Fcom_m (fs, m, pops) ->
    let a = Fpmap.read fp 0 in
    let addr = ctx.ea ctx m in
    let b = ctx.ffresh () in
    mem_loadf ctx ~width:(fsize_width fs) addr b;
    emit_fcom ctx a b;
    for _ = 1 to pops do Fpmap.pop fp done
  | Fnstsw_ax ->
    (* status word = cc bits | static TOS in bits 11-13 *)
    let t = ctx.fresh () in
    emit ctx (I.Ori (t, fp.Fpmap.vtos lsl 11, r_fpcc));
    stop ctx;
    write_reg ctx S16 Eax t
  | Fxch i -> Fpmap.fxch fp i
  | Ffree i -> Fpmap.free fp i
  | Fincstp -> Fpmap.incstp fp
  | Fdecstp -> Fpmap.decstp fp

(* ---- MMX templates ----------------------------------------------------- *)

let mmx_touch ctx =
  ctx.uses_mmx <- true;
  ctx.mmx_exit_tag <- 0xFF

let mmx_write ctx i = ctx.mmx_written <- ctx.mmx_written lor (1 lsl (i land 7))

let read_mmx_rm ctx = function
  | MM i -> Regs.gr_of_mmx i
  | MMem m ->
    let addr = ctx.ea ctx m in
    mem_load ctx ~width:8 addr

let emit_mmx ctx x =
  let lanes_op op w d src =
    mmx_touch ctx;
    mmx_write ctx d;
    let b = read_mmx_rm ctx src in
    let dg = Regs.gr_of_mmx d in
    emit ctx (op w dg dg b);
    stop ctx
  in
  match x with
  | Movd_to_mm (mm, src) ->
    mmx_touch ctx;
    mmx_write ctx mm;
    let v = read_operand ctx S32 src in
    emit ctx (I.Mov (Regs.gr_of_mmx mm, v));
    stop ctx
  | Movd_from_mm (dst, mm) ->
    mmx_touch ctx;
    let t = ctx.fresh () in
    emit ctx (I.Zxt (t, Regs.gr_of_mmx mm, 4));
    stop ctx;
    write_operand ctx S32 dst t
  | Movq_to_mm (mm, src) ->
    mmx_touch ctx;
    mmx_write ctx mm;
    let v = read_mmx_rm ctx src in
    emit ctx (I.Mov (Regs.gr_of_mmx mm, v));
    stop ctx
  | Movq_from_mm (dst, mm) -> (
    mmx_touch ctx;
    match dst with
    | MM i ->
      mmx_write ctx i;
      emit ctx (I.Mov (Regs.gr_of_mmx i, Regs.gr_of_mmx mm));
      stop ctx
    | MMem m ->
      let addr = ctx.ea ctx m in
      mem_store ctx ~width:8 addr (Regs.gr_of_mmx mm))
  | Padd (w, d, src) -> lanes_op (fun w d a b -> I.Padd (w, d, a, b)) w d src
  | Psub (w, d, src) -> lanes_op (fun w d a b -> I.Psub (w, d, a, b)) w d src
  | Pmullw (d, src) -> lanes_op (fun _ d a b -> I.Pmull (2, d, a, b)) 2 d src
  | Pand (d, src) -> lanes_op (fun _ d a b -> I.And (d, a, b)) 8 d src
  | Por (d, src) -> lanes_op (fun _ d a b -> I.Or (d, a, b)) 8 d src
  | Pxor (d, src) -> lanes_op (fun _ d a b -> I.Xor (d, a, b)) 8 d src
  | Pcmpeq (w, d, src) -> lanes_op (fun w d a b -> I.Pcmpeq (w, d, a, b)) w d src
  | Psll (w, d, n) ->
    mmx_touch ctx;
    mmx_write ctx d;
    let dg = Regs.gr_of_mmx d in
    emit ctx (I.Pshli (w, dg, dg, n));
    stop ctx
  | Psrl (w, d, n) ->
    mmx_touch ctx;
    mmx_write ctx d;
    let dg = Regs.gr_of_mmx d in
    emit ctx (I.Pshri (w, dg, dg, n));
    stop ctx
  | Emms ->
    ctx.uses_mmx <- true;
    ctx.mmx_exit_tag <- 0

(* ---- SSE templates ----------------------------------------------------- *)

(* Representation conversion of one XMM register (bit-preserving). *)
let emit_xmm_convert ctx i ~from_ ~to_ =
  let base = Regs.fr_of_xmm_base i in
  let lo = Regs.gr_of_xmm_lo i and hi = Regs.gr_of_xmm_hi i in
  let to_int () =
    if from_ = Regs.fmt_ps then begin
      let bits =
        List.init 4 (fun k ->
            let t = ctx.fresh () in
            emit ctx (I.Getf_s (t, base + k));
            t)
      in
      stop ctx;
      match bits with
      | [ b0; b1; b2; b3 ] ->
        emit ctx (I.Dep (lo, b1, b0, 32, 32));
        emit ctx (I.Dep (hi, b3, b2, 32, 32));
        stop ctx
      | _ -> assert false
    end
    else begin
      emit ctx (I.Getf_d (lo, base));
      emit ctx (I.Getf_d (hi, base + 1));
      stop ctx
    end
  in
  let from_int () =
    if to_ = Regs.fmt_ps then begin
      List.iteri
        (fun k src ->
          let t = ctx.fresh () in
          emit ctx (I.Extru (t, src, 32 * (k land 1), 32));
          stop ctx;
          emit ctx (I.Setf_s (base + k, t));
          stop ctx)
        [ lo; lo; hi; hi ];
      (* fix lane order: k=0,1 from lo; k=2,3 from hi *)
      ()
    end
    else begin
      emit ctx (I.Setf_d (base, lo));
      emit ctx (I.Setf_d (base + 1, hi));
      stop ctx
    end
  in
  if from_ = to_ then ()
  else if to_ = Regs.fmt_int then to_int ()
  else if from_ = Regs.fmt_int then from_int ()
  else begin
    (* fp-to-fp: round-trip through the integer side (bit-preserving) *)
    to_int ();
    from_int ()
  end

(* Ensure XMM register [i] is in [fmt] before use; records the entry
   requirement on first touch. *)
let xmm_require ctx i fmt =
  match ctx.xmm_fmt.(i) with
  | f when f = fmt -> ()
  | -1 ->
    ctx.xmm_entry.(i) <- fmt;
    ctx.xmm_fmt.(i) <- fmt
  | cur ->
    emit_xmm_convert ctx i ~from_:cur ~to_:fmt;
    ctx.xmm_fmt.(i) <- fmt

(* A whole-register definition: no entry requirement. *)
let xmm_define ctx i fmt = ctx.xmm_fmt.(i) <- fmt

(* Lane FRs of reg i in ps format. *)
let ps_lane i k = Regs.fr_of_xmm_base i + k

(* Source lanes for a ps operation: 4 FRs, loading from memory if needed. *)
let xmm_src_ps ctx = function
  | XM i ->
    xmm_require ctx i Regs.fmt_ps;
    List.init 4 (ps_lane i)
  | XMem m ->
    let addr = ctx.ea ctx m in
    List.init 4 (fun k ->
        let f = ctx.ffresh () in
        let a =
          if k = 0 then addr
          else begin
            let t = ctx.fresh () in
            emit ctx (I.Addi (t, 4 * k, addr));
            stop ctx;
            t
          end
        in
        mem_loadf ctx ~width:4 a f;
        f)

let xmm_src_pd ctx = function
  | XM i ->
    xmm_require ctx i Regs.fmt_pd;
    [ Regs.fr_of_xmm_base i; Regs.fr_of_xmm_base i + 1 ]
  | XMem m ->
    let addr = ctx.ea ctx m in
    List.init 2 (fun k ->
        let f = ctx.ffresh () in
        let a =
          if k = 0 then addr
          else begin
            let t = ctx.fresh () in
            emit ctx (I.Addi (t, 8, addr));
            stop ctx;
            t
          end
        in
        mem_loadf ctx ~width:8 a f;
        f)

let xmm_src_int ctx = function
  | XM i ->
    xmm_require ctx i Regs.fmt_int;
    (Regs.gr_of_xmm_lo i, Regs.gr_of_xmm_hi i)
  | XMem m ->
    let addr = ctx.ea ctx m in
    let lo = mem_load ctx ~width:8 addr in
    let t = ctx.fresh () in
    emit ctx (I.Addi (t, 8, addr));
    stop ctx;
    let hi = mem_load ctx ~width:8 t in
    (lo, hi)

let sse_apply_emit ctx op dst a b =
  match op with
  | SAdd -> emit ctx (I.Fadd (dst, a, b))
  | SSub -> emit ctx (I.Fsub (dst, a, b))
  | SMul -> emit ctx (I.Fmul (dst, a, b))
  | SDiv -> emit ctx (I.Fdiv (dst, a, b))
  | SMin -> emit ctx (I.Fmin (dst, a, b))
  | SMax -> emit ctx (I.Fmax (dst, a, b))

let sse_needs_round = function
  | SAdd | SSub | SMul | SDiv -> true
  | SMin | SMax -> false

let emit_sse ctx x =
  match x with
  | Movaps (dst, src) | Movups (dst, src) -> (
    match (dst, src) with
    | XM d, XM s ->
      let fmt = if ctx.xmm_fmt.(s) = -1 then Regs.fmt_ps else ctx.xmm_fmt.(s) in
      xmm_require ctx s fmt;
      (match fmt with
      | f when f = Regs.fmt_int ->
        emit ctx (I.Mov (Regs.gr_of_xmm_lo d, Regs.gr_of_xmm_lo s));
        emit ctx (I.Mov (Regs.gr_of_xmm_hi d, Regs.gr_of_xmm_hi s))
      | f when f = Regs.fmt_pd ->
        emit ctx (I.Fmov (Regs.fr_of_xmm_base d, Regs.fr_of_xmm_base s));
        emit ctx (I.Fmov (Regs.fr_of_xmm_base d + 1, Regs.fr_of_xmm_base s + 1))
      | _ ->
        for k = 0 to 3 do
          emit ctx (I.Fmov (ps_lane d k, ps_lane s k))
        done);
      stop ctx;
      xmm_define ctx d fmt
    | XM d, XMem m ->
      let fmt = if ctx.xmm_fmt.(d) = -1 then Regs.fmt_ps else ctx.xmm_fmt.(d) in
      let addr = ctx.ea ctx m in
      (match fmt with
      | f when f = Regs.fmt_int ->
        let lo = mem_load ctx ~width:8 addr in
        let t = ctx.fresh () in
        emit ctx (I.Addi (t, 8, addr));
        stop ctx;
        let hi = mem_load ctx ~width:8 t in
        emit ctx (I.Mov (Regs.gr_of_xmm_lo d, lo));
        emit ctx (I.Mov (Regs.gr_of_xmm_hi d, hi));
        stop ctx
      | f when f = Regs.fmt_pd ->
        mem_loadf ctx ~width:8 addr (Regs.fr_of_xmm_base d);
        let t = ctx.fresh () in
        emit ctx (I.Addi (t, 8, addr));
        stop ctx;
        mem_loadf ctx ~width:8 t (Regs.fr_of_xmm_base d + 1)
      | _ ->
        for k = 0 to 3 do
          let a =
            if k = 0 then addr
            else begin
              let t = ctx.fresh () in
              emit ctx (I.Addi (t, 4 * k, addr));
              stop ctx;
              t
            end
          in
          mem_loadf ctx ~width:4 a (ps_lane d k)
        done);
      xmm_define ctx d fmt
    | XMem m, XM s ->
      let fmt = if ctx.xmm_fmt.(s) = -1 then Regs.fmt_ps else ctx.xmm_fmt.(s) in
      xmm_require ctx s fmt;
      let addr = ctx.ea ctx m in
      (match fmt with
      | f when f = Regs.fmt_int ->
        mem_store ctx ~width:8 addr (Regs.gr_of_xmm_lo s);
        let t = ctx.fresh () in
        emit ctx (I.Addi (t, 8, addr));
        stop ctx;
        mem_store ctx ~width:8 t (Regs.gr_of_xmm_hi s)
      | f when f = Regs.fmt_pd ->
        mem_storef ctx ~width:8 addr (Regs.fr_of_xmm_base s);
        let t = ctx.fresh () in
        emit ctx (I.Addi (t, 8, addr));
        stop ctx;
        mem_storef ctx ~width:8 t (Regs.fr_of_xmm_base s + 1)
      | _ ->
        for k = 0 to 3 do
          let a =
            if k = 0 then addr
            else begin
              let t = ctx.fresh () in
              emit ctx (I.Addi (t, 4 * k, addr));
              stop ctx;
              t
            end
          in
          mem_storef ctx ~width:4 a (ps_lane s k)
        done)
    | XMem _, XMem _ -> ctx.guest_fault ctx 6)
  | Movss (dst, src) -> (
    match (dst, src) with
    | XM d, XM s ->
      xmm_require ctx s Regs.fmt_ps;
      xmm_require ctx d Regs.fmt_ps;
      emit ctx (I.Fmov (ps_lane d 0, ps_lane s 0));
      stop ctx
    | XM d, XMem m ->
      let addr = ctx.ea ctx m in
      mem_loadf ctx ~width:4 addr (ps_lane d 0);
      for k = 1 to 3 do
        emit ctx (I.Fmov (ps_lane d k, 0))
      done;
      stop ctx;
      xmm_define ctx d Regs.fmt_ps
    | XMem m, XM s ->
      (* store from the current representation: converting [s] first would
         change its parked format before a store that can fault, making the
         pre-insn recovery snapshot wrong *)
      let fmt = if ctx.xmm_fmt.(s) = -1 then Regs.fmt_ps else ctx.xmm_fmt.(s) in
      xmm_require ctx s fmt;
      let addr = ctx.ea ctx m in
      (match fmt with
      | f when f = Regs.fmt_int ->
        mem_store ctx ~width:4 addr (Regs.gr_of_xmm_lo s)
      | f when f = Regs.fmt_pd ->
        let t = ctx.fresh () in
        emit ctx (I.Getf_d (t, Regs.fr_of_xmm_base s));
        stop ctx;
        mem_store ctx ~width:4 addr t
      | _ -> mem_storef ctx ~width:4 addr (ps_lane s 0))
    | XMem _, XMem _ -> ctx.guest_fault ctx 6)
  | Movsd_x (dst, src) -> (
    match (dst, src) with
    | XM d, XM s ->
      xmm_require ctx s Regs.fmt_pd;
      xmm_require ctx d Regs.fmt_pd;
      emit ctx (I.Fmov (Regs.fr_of_xmm_base d, Regs.fr_of_xmm_base s));
      stop ctx
    | XM d, XMem m ->
      let addr = ctx.ea ctx m in
      mem_loadf ctx ~width:8 addr (Regs.fr_of_xmm_base d);
      emit ctx (I.Fmov (Regs.fr_of_xmm_base d + 1, 0));
      stop ctx;
      xmm_define ctx d Regs.fmt_pd
    | XMem m, XM s ->
      (* as for movss: no format conversion ahead of a faulting store *)
      let fmt = if ctx.xmm_fmt.(s) = -1 then Regs.fmt_pd else ctx.xmm_fmt.(s) in
      xmm_require ctx s fmt;
      let addr = ctx.ea ctx m in
      (match fmt with
      | f when f = Regs.fmt_int ->
        mem_store ctx ~width:8 addr (Regs.gr_of_xmm_lo s)
      | f when f = Regs.fmt_ps ->
        let b0 = ctx.fresh () and b1 = ctx.fresh () in
        emit ctx (I.Getf_s (b0, ps_lane s 0));
        emit ctx (I.Getf_s (b1, ps_lane s 1));
        stop ctx;
        let t = ctx.fresh () in
        emit ctx (I.Dep (t, b1, b0, 32, 32));
        stop ctx;
        mem_store ctx ~width:8 addr t
      | _ -> mem_storef ctx ~width:8 addr (Regs.fr_of_xmm_base s))
    | XMem _, XMem _ -> ctx.guest_fault ctx 6)
  | Sse_arith (op, fmt, d, src) -> (
    match fmt with
    | Packed_single ->
      let srcs = xmm_src_ps ctx src in
      xmm_require ctx d Regs.fmt_ps;
      List.iteri
        (fun k b ->
          let dst = ps_lane d k in
          if sse_needs_round op then begin
            let t = ctx.ffresh () in
            sse_apply_emit ctx op t dst b;
            stop ctx;
            emit ctx (I.Fcvt_32 (dst, t))
          end
          else sse_apply_emit ctx op dst dst b;
          stop ctx)
        srcs
    | Packed_double ->
      let srcs = xmm_src_pd ctx src in
      xmm_require ctx d Regs.fmt_pd;
      List.iteri
        (fun k b ->
          let dst = Regs.fr_of_xmm_base d + k in
          sse_apply_emit ctx op dst dst b;
          stop ctx)
        srcs
    | Scalar_single ->
      let b =
        match src with
        | XM s ->
          xmm_require ctx s Regs.fmt_ps;
          ps_lane s 0
        | XMem m ->
          let addr = ctx.ea ctx m in
          let f = ctx.ffresh () in
          mem_loadf ctx ~width:4 addr f;
          f
      in
      xmm_require ctx d Regs.fmt_ps;
      let dst = ps_lane d 0 in
      if sse_needs_round op then begin
        let t = ctx.ffresh () in
        sse_apply_emit ctx op t dst b;
        stop ctx;
        emit ctx (I.Fcvt_32 (dst, t))
      end
      else sse_apply_emit ctx op dst dst b;
      stop ctx
    | Scalar_double ->
      let b =
        match src with
        | XM s ->
          xmm_require ctx s Regs.fmt_pd;
          Regs.fr_of_xmm_base s
        | XMem m ->
          let addr = ctx.ea ctx m in
          let f = ctx.ffresh () in
          mem_loadf ctx ~width:8 addr f;
          f
      in
      xmm_require ctx d Regs.fmt_pd;
      let dst = Regs.fr_of_xmm_base d in
      sse_apply_emit ctx op dst dst b;
      stop ctx
    | Packed_int -> ctx.guest_fault ctx 6)
  | Sqrtps (d, src) ->
    let srcs = xmm_src_ps ctx src in
    xmm_define ctx d Regs.fmt_ps;
    List.iteri
      (fun k b ->
        let t = ctx.ffresh () in
        emit ctx (I.Fsqrt (t, b));
        stop ctx;
        emit ctx (I.Fcvt_32 (ps_lane d k, t));
        stop ctx)
      srcs
  | Xorps (d, src) when src = XM d ->
    (* zeroing idiom: no format conversion needed *)
    let fmt = if ctx.xmm_fmt.(d) = -1 then Regs.fmt_int else ctx.xmm_fmt.(d) in
    (match fmt with
    | f when f = Regs.fmt_int ->
      emit ctx (I.Mov (Regs.gr_of_xmm_lo d, 0));
      emit ctx (I.Mov (Regs.gr_of_xmm_hi d, 0))
    | f when f = Regs.fmt_pd ->
      emit ctx (I.Fmov (Regs.fr_of_xmm_base d, 0));
      emit ctx (I.Fmov (Regs.fr_of_xmm_base d + 1, 0))
    | _ ->
      for k = 0 to 3 do
        emit ctx (I.Fmov (ps_lane d k, 0))
      done);
    stop ctx;
    xmm_define ctx d fmt
  | Andps (d, src) | Orps (d, src) | Xorps (d, src) ->
    let blo, bhi = xmm_src_int ctx src in
    xmm_require ctx d Regs.fmt_int;
    let lo = Regs.gr_of_xmm_lo d and hi = Regs.gr_of_xmm_hi d in
    (match x with
    | Andps _ ->
      emit ctx (I.And (lo, lo, blo));
      emit ctx (I.And (hi, hi, bhi))
    | Orps _ ->
      emit ctx (I.Or (lo, lo, blo));
      emit ctx (I.Or (hi, hi, bhi))
    | _ ->
      emit ctx (I.Xor (lo, lo, blo));
      emit ctx (I.Xor (hi, hi, bhi)));
    stop ctx
  | Paddd_x (d, src) | Psubd_x (d, src) ->
    let blo, bhi = xmm_src_int ctx src in
    xmm_require ctx d Regs.fmt_int;
    let lo = Regs.gr_of_xmm_lo d and hi = Regs.gr_of_xmm_hi d in
    (match x with
    | Paddd_x _ ->
      emit ctx (I.Padd (4, lo, lo, blo));
      emit ctx (I.Padd (4, hi, hi, bhi))
    | _ ->
      emit ctx (I.Psub (4, lo, lo, blo));
      emit ctx (I.Psub (4, hi, hi, bhi)));
    stop ctx
  | Ucomiss (d, src) ->
    let b =
      match src with
      | XM s ->
        xmm_require ctx s Regs.fmt_ps;
        ps_lane s 0
      | XMem m ->
        let addr = ctx.ea ctx m in
        let f = ctx.ffresh () in
        mem_loadf ctx ~width:4 addr f;
        f
    in
    xmm_require ctx d Regs.fmt_ps;
    let a = ps_lane d 0 in
    let flags = match ctx.plan with Plan_set fl -> fl | Plan_fuse (c, fl) -> fl @ cond_uses c | Plan_none -> [] in
    if flags <> [] then begin
      let pun = ctx.pfresh () and pun' = ctx.pfresh () in
      emit ctx (I.Fcmp (I.Funord, pun, pun', a, b));
      let peq = ctx.pfresh () and peq' = ctx.pfresh () in
      emit ctx (I.Fcmp (I.Feq, peq, peq', a, b));
      let plt = ctx.pfresh () and plt' = ctx.pfresh () in
      emit ctx (I.Fcmp (I.Flt, plt, plt', a, b));
      stop ctx;
      let set01 f (p_true, p_false) =
        let fg = Regs.gr_of_flag f in
        emitp ctx p_true (I.Addi (fg, 1, 0));
        emitp ctx p_false (I.Mov (fg, 0));
        stop ctx;
        (* unordered forces ZF/PF/CF to 1 *)
        if f <> AF && f <> SF && f <> OF then begin
          emitp ctx pun (I.Addi (fg, 1, 0));
          stop ctx
        end
      in
      List.iter
        (fun f ->
          match f with
          | ZF -> set01 ZF (peq, peq')
          | CF -> set01 CF (plt, plt')
          | PF ->
            let fg = Regs.gr_of_flag PF in
            emitp ctx pun (I.Addi (fg, 1, 0));
            emitp ctx pun' (I.Mov (fg, 0));
            stop ctx
          | AF | SF | OF ->
            emit ctx (I.Mov (Regs.gr_of_flag f, 0));
            stop ctx
          | DF -> ())
        flags
    end;
    (match ctx.plan with
    | Plan_fuse (c, _) -> ctx.fused_pred <- Some (cond_pred_canonic ctx c)
    | _ -> ())
  | Cvtsi2ss (d, src) ->
    let v = read_operand ctx S32 src in
    let s = ctx.fresh () in
    emit ctx (I.Sxt (s, v, 4));
    stop ctx;
    xmm_require ctx d Regs.fmt_ps;
    let t = ctx.ffresh () in
    emit ctx (I.Fcvt_xf (t, s));
    stop ctx;
    emit ctx (I.Fcvt_32 (ps_lane d 0, t));
    stop ctx
  | Cvttss2si (r, src) ->
    let b =
      match src with
      | XM s ->
        xmm_require ctx s Regs.fmt_ps;
        ps_lane s 0
      | XMem m ->
        let addr = ctx.ea ctx m in
        let f = ctx.ffresh () in
        mem_loadf ctx ~width:4 addr f;
        f
    in
    (* truncation with the integer indefinite on overflow/NaN *)
    let t = ctx.fresh () in
    emit ctx (I.Fcvt_fxt (t, b));
    stop ctx;
    let indef = imm64 ctx 0x80000000L in
    let hi = imm64 ctx 0x7FFFFFFFL in
    let lo = imm64 ctx (-0x80000000L) in
    stop ctx;
    let p1 = ctx.pfresh () and p1' = ctx.pfresh () in
    emit ctx (I.Cmp (I.Cgt, I.Cnorm, p1, p1', t, hi));
    stop ctx;
    emitp ctx p1 (I.Mov (t, indef));
    stop ctx;
    let p2 = ctx.pfresh () and p2' = ctx.pfresh () in
    emit ctx (I.Cmp (I.Clt, I.Cnorm, p2, p2', t, lo));
    stop ctx;
    emitp ctx p2 (I.Mov (t, indef));
    stop ctx;
    let p3 = ctx.pfresh () and p3' = ctx.pfresh () in
    emit ctx (I.Fcmp (I.Funord, p3, p3', b, b));
    stop ctx;
    emitp ctx p3 (I.Mov (t, indef));
    stop ctx;
    let res = ctx.fresh () in
    emit ctx (I.Zxt (res, t, 4));
    stop ctx;
    write_reg ctx S32 r res
  | Cvtss2sd (d, src) ->
    let b =
      match src with
      | XM s when s = d ->
        (* converting [d] below rewrites its lane FRs: copy the source
           value out first *)
        xmm_require ctx s Regs.fmt_ps;
        let f = ctx.ffresh () in
        emit ctx (I.Fmov (f, ps_lane s 0));
        stop ctx;
        f
      | XM s ->
        xmm_require ctx s Regs.fmt_ps;
        ps_lane s 0
      | XMem m ->
        let addr = ctx.ea ctx m in
        let f = ctx.ffresh () in
        mem_loadf ctx ~width:4 addr f;
        f
    in
    xmm_require ctx d Regs.fmt_pd;
    emit ctx (I.Fmov (Regs.fr_of_xmm_base d, b));
    stop ctx
  | Cvtsd2ss (d, src) ->
    let b =
      match src with
      | XM s when s = d ->
        (* as for cvtss2sd: the [d] conversion clobbers the source FR *)
        xmm_require ctx s Regs.fmt_pd;
        let f = ctx.ffresh () in
        emit ctx (I.Fmov (f, Regs.fr_of_xmm_base s));
        stop ctx;
        f
      | XM s ->
        xmm_require ctx s Regs.fmt_pd;
        Regs.fr_of_xmm_base s
      | XMem m ->
        let addr = ctx.ea ctx m in
        let f = ctx.ffresh () in
        mem_loadf ctx ~width:8 addr f;
        f
    in
    xmm_require ctx d Regs.fmt_ps;
    emit ctx (I.Fcvt_32 (ps_lane d 0, b));
    stop ctx

(* ---- string operations ------------------------------------------------- *)

(* DF-dependent element delta (positive or negative, 64-bit). *)
let string_delta ctx size =
  let n = bytes_of size in
  let p_fwd = ctx.pfresh () and p_bwd = ctx.pfresh () in
  emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p_fwd, p_bwd, 0, Regs.gr_of_flag DF));
  stop ctx;
  let d = ctx.fresh () in
  emitp ctx p_fwd (I.Addi (d, n, 0));
  emitp ctx p_bwd (I.Addi (d, -n, 0));
  stop ctx;
  d

let advance ctx reg d =
  let g = Regs.gr_of_reg reg in
  let t = ctx.fresh () in
  emit ctx (I.Add (t, g, d));
  stop ctx;
  emit ctx (I.Zxt (g, t, 4));
  stop ctx

let ecx = Regs.gr_of_reg Ecx

(* Wrap [body] in a REP loop over ECX. [break_zf] stops the loop when ZF
   equals the given boolean after the body (REPE/REPNE). *)
let rep_loop ctx ?break_zf body =
  let l_top = ctx.new_label () and l_done = ctx.new_label () in
  ctx.bind l_top;
  let p_done = ctx.pfresh () and p_go = ctx.pfresh () in
  emit ctx (I.Cmpi (I.Ceq, I.Cnorm, p_done, p_go, 0, ecx));
  stop ctx;
  emitp ctx p_done (I.Br (ctx.local l_done));
  body ();
  let t = ctx.fresh () in
  emit ctx (I.Addi (t, -1, ecx));
  stop ctx;
  emit ctx (I.Zxt (ecx, t, 4));
  stop ctx;
  (match break_zf with
  | Some stop_when ->
    let p_stop = ctx.pfresh () and p_cont = ctx.pfresh () in
    emit ctx
      (I.Cmpi
         ( (if stop_when then I.Ceq else I.Cne),
           I.Cnorm, p_stop, p_cont, 1, Regs.gr_of_flag ZF ));
    stop ctx;
    emitp ctx p_stop (I.Br (ctx.local l_done))
  | None -> ());
  emit ctx (I.Br (ctx.local l_top));
  ctx.bind l_done

let emit_string ctx insn =
  let esi = Regs.gr_of_reg Esi and edi = Regs.gr_of_reg Edi in
  match insn with
  | Movs (size, rep) ->
    let w = bytes_of size in
    let d = string_delta ctx size in
    let body () =
      let v = mem_load ctx ~width:w esi in
      mem_store ctx ~width:w edi v;
      advance ctx Esi d;
      advance ctx Edi d
    in
    if rep = No_rep then body () else rep_loop ctx body
  | Stos (size, rep) ->
    let w = bytes_of size in
    let d = string_delta ctx size in
    let acc = read_reg ctx size Eax in
    let body () =
      mem_store ctx ~width:w edi acc;
      advance ctx Edi d
    in
    if rep = No_rep then body () else rep_loop ctx body
  | Lods (size, rep) ->
    let w = bytes_of size in
    let d = string_delta ctx size in
    let body () =
      let v = mem_load ctx ~width:w esi in
      write_reg ctx size Eax v;
      advance ctx Esi d
    in
    if rep = No_rep then body () else rep_loop ctx body
  | Scas (size, rep) ->
    let w = bytes_of size in
    let d = string_delta ctx size in
    (* SCAS always materializes its live flags; REPE/REPNE also need ZF *)
    let flags =
      match ctx.plan with
      | Plan_set fl -> fl
      | Plan_fuse (c, fl) -> fl @ cond_uses c
      | Plan_none -> []
    in
    let flags = if rep = Repe || rep = Repne || rep = Rep then
        if List.mem ZF flags then flags else ZF :: flags
      else flags
    in
    let body () =
      let a = read_reg ctx size Eax in
      let b = mem_load ctx ~width:w edi in
      let full = ctx.fresh () in
      emit ctx (I.Sub (full, a, b));
      stop ctx;
      let res = ctx.fresh () in
      emit ctx (I.Zxt (res, full, w));
      stop ctx;
      materialize ctx
        { p_op = `Sub; p_size = size; p_a = a; p_b = b; p_res = res;
          p_full = full; p_guard = no_guard; p_cin = false }
        flags;
      advance ctx Edi d
    in
    (match rep with
    | No_rep -> body ()
    | Repe -> rep_loop ctx ~break_zf:false body
    | Repne | Rep -> rep_loop ctx ~break_zf:true body);
    (match ctx.plan with
    | Plan_fuse (c, _) -> ctx.fused_pred <- Some (cond_pred_canonic ctx c)
    | _ -> ())
  | _ -> Bt_error.fail ~component:"templates" "emit_string: not a string op"

(* ---- flag image (pushfd/popfd) ----------------------------------------- *)

let emit_pushfd ctx =
  (* build the EFLAGS image: bit1 always set *)
  let t = ctx.fresh () in
  emit ctx (I.Addi (t, 2, 0));
  stop ctx;
  List.iter
    (fun (f, pos) ->
      emit ctx (I.Dep (t, Regs.gr_of_flag f, t, pos, 1));
      stop ctx)
    [ (CF, 0); (PF, 2); (AF, 4); (ZF, 6); (SF, 7); (DF, 10); (OF, 11) ];
  push32 ctx t

let emit_popfd ctx =
  let v = pop32 ctx in
  List.iter
    (fun (f, pos) ->
      emit ctx (I.Extru (Regs.gr_of_flag f, v, pos, 1));
      stop ctx)
    [ (CF, 0); (PF, 2); (AF, 4); (ZF, 6); (SF, 7); (DF, 10); (OF, 11) ]

(* ---- main dispatch ------------------------------------------------------ *)

let emit_insn ctx (insn : insn) =
  match insn with
  | Alu (op, size, dst, src) -> emit_alu ctx op size dst src
  | Test (size, a, b) -> emit_test ctx size a b
  | Mov (size, dst, src) ->
    let v = read_operand ctx size src in
    write_operand ctx size dst v
  | Movzx (ssize, r, src) ->
    let v = read_operand ctx ssize src in
    write_reg ctx S32 r v
  | Movsx (ssize, r, src) ->
    let v = read_operand ctx ssize src in
    let s = sext ctx ssize v in
    stop ctx;
    let res = ctx.fresh () in
    emit ctx (I.Zxt (res, s, 4));
    stop ctx;
    write_reg ctx S32 r res
  | Lea (r, m) ->
    let a = ctx.ea ctx m in
    write_reg ctx S32 r a
  | Shift (sh, size, dst, Amt_imm n) -> emit_shift_imm ctx sh size dst n
  | Shift (sh, size, dst, Amt_cl) -> emit_shift_cl ctx sh size dst
  | Shld (dst, r, amt) -> emit_shld ctx ~left:true dst r amt
  | Shrd (dst, r, amt) -> emit_shld ctx ~left:false dst r amt
  | Inc (size, dst) -> emit_incdec ctx ~inc:true size dst
  | Dec (size, dst) -> emit_incdec ctx ~inc:false size dst
  | Neg (size, dst) -> emit_neg ctx size dst
  | Not (size, dst) -> emit_not ctx size dst
  | Imul_rr (r, src) -> emit_imul2 ctx r src None
  | Imul_rri (r, src, v) ->
    (* dst = src * imm *)
    let b0 = read_operand ctx S32 src in
    let b = sext ctx S32 b0 in
    let a = sext ctx S32 (imm ctx v) in
    stop ctx;
    let full = ctx.fresh () in
    emit ctx (I.Xma (full, a, b, 0));
    stop ctx;
    let res = ctx.fresh () in
    emit ctx (I.Zxt (res, full, 4));
    stop ctx;
    write_reg ctx S32 r res;
    (match ctx.plan with
    | Plan_none -> ()
    | _ ->
      let ovf = mul_overflow ctx full res 4 in
      finish_flags ctx
        { p_op = `Mul ovf; p_size = S32; p_a = a; p_b = b; p_res = res;
          p_full = full; p_guard = no_guard; p_cin = false })
  | Mul1 (size, src) -> emit_mul1 ctx ~signed:false size src
  | Imul1 (size, src) -> emit_mul1 ctx ~signed:true size src
  | Div (size, src) -> emit_div ctx ~signed:false size src
  | Idiv (size, src) -> emit_div ctx ~signed:true size src
  | Cdq ->
    let s = sext ctx S32 (Regs.gr_of_reg Eax) in
    stop ctx;
    let t = ctx.fresh () in
    emit ctx (I.Shrsi (t, s, 31));
    stop ctx;
    emit ctx (I.Zxt (Regs.gr_of_reg Edx, t, 4));
    stop ctx
  | Cwde ->
    let v = read_reg ctx S16 Eax in
    let s = sext ctx S16 v in
    stop ctx;
    emit ctx (I.Zxt (Regs.gr_of_reg Eax, s, 4));
    stop ctx
  | Xchg (size, dst, r) ->
    let a0, writeback = rmw_operand ctx size dst in
    (* both reads must be snapshotted: each write clobbers the other's
       source when the operands alias canonic registers *)
    let a = ctx.fresh () in
    emit ctx (I.Mov (a, a0));
    let b0 = read_reg ctx size r in
    let b = ctx.fresh () in
    emit ctx (I.Mov (b, b0));
    stop ctx;
    writeback b;
    write_reg ctx size r a
  | Push op ->
    let v = read_operand ctx S32 op in
    push32 ctx v
  | Pop op -> (
    match op with
    | R r ->
      let v = pop32 ctx in
      write_reg ctx S32 r v
    | M m ->
      (* address computed with the pre-pop ESP (matches the interpreter) *)
      let addr = ctx.ea ctx m in
      let v = mem_load ctx ~width:4 esp in
      mem_store ctx ~width:4 addr v;
      let t = ctx.fresh () in
      emit ctx (I.Addi (t, 4, esp));
      stop ctx;
      emit ctx (I.Zxt (esp, t, 4));
      stop ctx
    | I _ -> ctx.guest_fault ctx 6)
  | Pushfd -> emit_pushfd ctx
  | Popfd -> emit_popfd ctx
  | Jmp t -> ctx.goto ctx t
  | Jcc (c, t) ->
    let p1, _ = cond_pred ctx c in
    ctx.goto_if ctx ~pr:p1 t
  | Call t ->
    let ret = imm ctx ctx.next_ip in
    stop ctx;
    push32 ctx ret;
    ctx.goto ctx t
  | Jmp_ind op ->
    let v = read_operand ctx S32 op in
    emit ctx (I.Mov (Regs.r_btarget, v));
    stop ctx;
    ctx.indirect ctx
  | Call_ind op ->
    let v = read_operand ctx S32 op in
    let ret = imm ctx ctx.next_ip in
    stop ctx;
    push32 ctx ret;
    emit ctx (I.Mov (Regs.r_btarget, v));
    stop ctx;
    ctx.indirect ctx
  | Ret n ->
    let v = mem_load ctx ~width:4 esp in
    let t = ctx.fresh () in
    emit ctx (I.Addi (t, 4 + n, esp));
    stop ctx;
    emit ctx (I.Zxt (esp, t, 4));
    stop ctx;
    emit ctx (I.Mov (Regs.r_btarget, v));
    stop ctx;
    ctx.indirect ctx
  | Setcc (c, dst) ->
    let ps = cond_pred ctx c in
    let t = ctx.fresh () in
    bool01 ctx ps t;
    write_operand ctx S8 dst t
  | Cmovcc (c, r, src) ->
    (* the source is always read (it can fault); the write is predicated *)
    let v = read_operand ctx S32 src in
    let p1, _ = cond_pred ctx c in
    emitp ctx p1 (I.Mov (Regs.gr_of_reg r, v));
    stop ctx
  | Movs _ | Stos _ | Lods _ | Scas _ -> emit_string ctx insn
  | Cld ->
    emit ctx (I.Mov (Regs.gr_of_flag DF, 0));
    stop ctx
  | Std ->
    emit ctx (I.Addi (Regs.gr_of_flag DF, 1, 0));
    stop ctx
  | Int_n n -> ctx.syscall ctx n
  | Hlt -> ctx.guest_fault ctx 13
  | Ud2 -> ctx.guest_fault ctx 6
  | Nop -> ()
  | Fp f -> emit_fp ctx f
  | Mmx x -> emit_mmx ctx x
  | Sse x -> emit_sse ctx x

(* ---- block head checks and exit updates -------------------------------- *)

(* Check code ids reported in Spec_fail exits. *)
let check_tos = 1
let check_tag = 2
let check_mode_fp = 3
let check_mode_mmx = 4
let check_sse = 5
let check_park = 6

(* Emit the FP-stack entry check: TOS equals the speculated value and the
   TAG satisfies the block's needs. Mismatch exits with [Spec_fail]. *)
let emit_fp_entry_check ctx ~block_id =
  let fp = ctx.fp in
  if Fpmap.(fp.used) then begin
    let p_ok = ctx.pfresh () and p_bad = ctx.pfresh () in
    emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_bad, p_ok, fp.Fpmap.entry_tos, Regs.r_tos));
    stop ctx;
    emitp ctx p_bad (I.Br (I.Out (I.Spec_fail (block_id, check_tos))));
    if fp.Fpmap.need_valid <> 0 then begin
      let t = ctx.fresh () in
      emit ctx (I.Andi (t, fp.Fpmap.need_valid, Regs.r_tag));
      stop ctx;
      let p_bad2 = ctx.pfresh () and p_ok2 = ctx.pfresh () in
      emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_bad2, p_ok2, fp.Fpmap.need_valid, t));
      stop ctx;
      emitp ctx p_bad2 (I.Br (I.Out (I.Spec_fail (block_id, check_tag))))
    end;
    if fp.Fpmap.need_empty <> 0 then begin
      let t = ctx.fresh () in
      emit ctx (I.Andi (t, fp.Fpmap.need_empty, Regs.r_tag));
      stop ctx;
      let p_bad3 = ctx.pfresh () and p_ok3 = ctx.pfresh () in
      emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_bad3, p_ok3, 0, t));
      stop ctx;
      emitp ctx p_bad3 (I.Br (I.Out (I.Spec_fail (block_id, check_tag))))
    end;
    stop ctx
  end

(* Parking check for MMX blocks: their register accesses are absolute
   (MMn lives at a fixed GR/FR index), so the physical file must sit at
   its canonic parking — no recovery rotation outstanding. *)
let emit_park_check ctx ~block_id =
  let p_bad = ctx.pfresh () and p_ok = ctx.pfresh () in
  emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_bad, p_ok, 0, Regs.r_park));
  stop ctx;
  emitp ctx p_bad (I.Br (I.Out (I.Spec_fail (block_id, check_park))));
  stop ctx

(* MMX/FP mode check: an FP block needs no FP-stale registers, an MMX block
   needs no MMX-stale registers. One compare against zero, as in the
   paper's single Boolean check. *)
let emit_mode_check ctx ~block_id ~mmx =
  let reg = if mmx then Regs.r_mstale else Regs.r_fstale in
  let chk = if mmx then check_mode_mmx else check_mode_fp in
  let p_bad = ctx.pfresh () and p_ok = ctx.pfresh () in
  emit ctx (I.Cmpi (I.Cne, I.Cnorm, p_bad, p_ok, 0, reg));
  stop ctx;
  emitp ctx p_bad (I.Br (I.Out (I.Spec_fail (block_id, chk))));
  stop ctx

(* SSE format entry check: the required format nibbles must match. *)
let emit_sse_entry_check ctx ~block_id =
  let mask = ref 0 and want = ref 0 in
  Array.iteri
    (fun i f ->
      if f >= 0 then begin
        mask := !mask lor (0xF lsl (4 * i));
        want := !want lor (f lsl (4 * i))
      end)
    ctx.xmm_entry;
  if !mask <> 0 then begin
    let m = imm ctx !mask in
    stop ctx;
    let t = ctx.fresh () in
    emit ctx (I.And (t, Regs.r_ssefmt, m));
    stop ctx;
    let w = imm ctx !want in
    stop ctx;
    let p_bad = ctx.pfresh () and p_ok = ctx.pfresh () in
    emit ctx (I.Cmp (I.Cne, I.Cnorm, p_bad, p_ok, t, w));
    stop ctx;
    emitp ctx p_bad (I.Br (I.Out (I.Spec_fail (block_id, check_sse))));
    stop ctx
  end

(* Block-exit status updates: TOS/TAG changes, FXCHG permutation restore,
   SSE format nibbles. [qp] predicates every update — required for
   conditional side exits, where the fallthrough path must not apply them
   (they run again, from the same static state, at the next exit). *)
let emit_fp_exit_update ?qp ctx =
  let emit ctx sem =
    match qp with Some p -> emitp ctx p sem | None -> emit ctx sem
  in
  let fp = ctx.fp in
  if ctx.uses_mmx then begin
    (* MMX semantics: TOS = 0, all tags valid (or empty after EMMS); MMX
       writes make the FP view of those slots stale and their MMX view
       authoritative *)
    emit ctx (I.Mov (Regs.r_tos, 0));
    emit ctx (I.Addi (Regs.r_tag, ctx.mmx_exit_tag, 0));
    stop ctx;
    if ctx.mmx_written <> 0 then begin
      emit ctx (I.Ori (Regs.r_fstale, ctx.mmx_written, Regs.r_fstale));
      stop ctx;
      let t = ctx.fresh () in
      emit ctx (I.Addi (t, ctx.mmx_written, 0));
      stop ctx;
      emit ctx (I.Andcm (Regs.r_mstale, Regs.r_mstale, t));
      stop ctx
    end
  end
  else if Fpmap.(fp.used) then begin
    (* restore the FXCHG permutation with real moves (usually empty) *)
    let cycles = Fpmap.exit_permutation fp in
    List.iter
      (fun cyc ->
        match cyc with
        | [] | [ _ ] -> ()
        | first :: _ ->
          (* slot s's value currently lives in fr(map s); write
             fr(s) := fr(map s) along the cycle, keeping fr(first) for
             the final move *)
          let tmp = ctx.ffresh () in
          emit ctx (I.Fmov (tmp, Regs.fr_of_phys first));
          stop ctx;
          let rec walk s =
            let src = fp.Fpmap.map.(s) in
            if src = first then emit ctx (I.Fmov (Regs.fr_of_phys s, tmp))
            else begin
              emit ctx (I.Fmov (Regs.fr_of_phys s, Regs.fr_of_phys src));
              stop ctx;
              walk src
            end
          in
          walk first;
          stop ctx)
      cycles;
    (* the exit TOS is a compile-time constant (entry TOS is speculated),
       so set it absolutely — idempotent across multiple exit paths *)
    if Fpmap.tos_delta fp <> 0 then begin
      emit ctx (I.Addi (Regs.r_tos, fp.Fpmap.vtos, 0));
      stop ctx
    end;
    let set_valid, set_empty = Fpmap.tag_updates fp in
    if set_valid <> 0 then begin
      emit ctx (I.Ori (Regs.r_tag, set_valid, Regs.r_tag));
      stop ctx
    end;
    if set_empty <> 0 then begin
      let t = ctx.fresh () in
      emit ctx (I.Addi (t, set_empty, 0));
      stop ctx;
      emit ctx (I.Andcm (Regs.r_tag, Regs.r_tag, t));
      stop ctx
    end;
    (* x87 writes make the MMX view of those slots stale *)
    if fp.Fpmap.written <> 0 then begin
      emit ctx (I.Ori (Regs.r_mstale, fp.Fpmap.written, Regs.r_mstale));
      stop ctx
    end
  end

let emit_sse_exit_update ?qp ctx =
  let emit ctx sem =
    match qp with Some p -> emitp ctx p sem | None -> emit ctx sem
  in
  Array.iteri
    (fun i f ->
      if f >= 0 then begin
        let t = imm ctx f in
        stop ctx;
        emit ctx (I.Dep (Regs.r_ssefmt, t, Regs.r_ssefmt, 4 * i, 4));
        stop ctx
      end)
    ctx.xmm_fmt
