(* Hot code translation (paper §2, Figure 2).

   A heat session selects a trace of basic blocks into a hyper-block using
   the use/edge counters collected by cold instrumentation, optionally
   if-converting small diamonds and unrolling tight loops; re-decodes the
   source (cold decode results are not kept, as in the paper); generates
   IL through the shared templates with the IA-32-specific optimizations
   (address CSE, lazy EFLAGS with sideways materialization in side-exit
   stubs, FP-stack/FXCHG/SSE-format machinery, misalignment avoidance
   informed by the stage-2 profile); partitions the IL into commit regions
   delimited by irreversible instructions (stores, string operations);
   backs up overwritten canonic state per region; schedules each region by
   dependence-driven list scheduling; renames virtual registers into the
   hot pools; and emits bundles carrying commit tags.

   Precise exceptions: a fault in a hot block restores the covering commit
   region (backups + static FP snapshot) and the engine rolls forward with
   the reference interpreter. Lazy flags are flushed at region starts, so
   restored states are exact. *)

open Templates
module I = Ipf.Insn

type profile = {
  use_count : int -> int; (* block entry address -> executions *)
  taken_count : int -> int; (* block entry address -> taken-edge count *)
  misaligned : int -> int -> bool; (* block entry, access index *)
}

exception Give_up (* register pressure or unsupported shape: stay cold *)

(* Trace shape. [translate] divides the two length limits by its retry
   level when a trace runs out of registers. *)
let trace_max_blocks = 8 (* hyper-block length limit, in basic blocks *)
let trace_max_insns = 48
let diamond_max_side = 4 (* max IA-32 insns per if-converted side *)
let unroll_copies = 2
let unroll_max_body = 10 (* only unroll loop bodies up to this size *)

(* ------------------------------------------------------------------ *)
(* Trace selection                                                     *)
(* ------------------------------------------------------------------ *)

type step =
  | S_src of int (* entering the source basic block at this address *)
  | S_insn of int * Ia32.Insn.insn
  | S_exit_if of int * Ia32.Insn.cond * int (* jcc addr, exit cond, target *)
  | S_diamond of
      int
      * Ia32.Insn.cond
      * (int * Ia32.Insn.insn) array
      * (int * Ia32.Insn.insn) array
      * int (* jcc addr, cond, then side, else side, join address *)
  | S_end of ender

and ender =
  | E_goto of int
  | E_insn of int * Ia32.Insn.insn (* terminator translated by template *)

(* If-conversion candidates: no flag definitions, no control flow, no
   x87/MMX/SSE (predicating those would entangle the static tracking). *)
(* Replay idempotence for a predicated side: a fault anywhere after a
   memory write re-executes the side from the commit point, and a read
   that originally executed before an aliasing write would then observe
   post-write memory (XCHG is the classic case: its re-executed load
   reads its own store). Pure store sequences replay identically (their
   sources are registers the commit restore rewinds), so the side is
   unsafe only when a write has BOTH a read at-or-before it (possible
   alias, including same-instruction RMW) and a faultable memory access
   after it. *)
let side_mem_safe insns =
  let n = Array.length insns in
  let refs k = Ia32.Insn.mem_refs (snd insns.(k)) in
  let has_read k = List.exists (fun (_, _, st) -> not st) (refs k) in
  let has_write k = List.exists (fun (_, _, st) -> st) (refs k) in
  let safe = ref true in
  for w = 0 to n - 1 do
    if has_write w then begin
      let earlier_read = ref false in
      for r = 0 to w do
        if has_read r then earlier_read := true
      done;
      let later_mem = ref false in
      for f = w + 1 to n - 1 do
        if refs f <> [] then later_mem := true
      done;
      if !earlier_read && !later_mem then safe := false
    end
  done;
  !safe

let predicable insn =
  match insn with
  | Ia32.Insn.Mov _ | Ia32.Insn.Lea _ | Ia32.Insn.Movzx _ | Ia32.Insn.Movsx _
  | Ia32.Insn.Not _ | Ia32.Insn.Xchg _ ->
    true
  | _ -> false

let select_trace (env : Cold.env) ~shrink profile ~entry =
  let config = env.Cold.config in
  let max_blocks = max 2 (trace_max_blocks / shrink) in
  let max_insns = max 6 (trace_max_insns / shrink) in
  let mem = env.Cold.mem in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let visited = Hashtbl.create 16 in
  let ninsns = ref 0 in
  let nblocks = ref 0 in
  let code_end = ref entry in
  let fclass = ref None in
  let loop_head = ref false in
  let exception Cut of int in
  let note_class insn =
    match Discover.class_of insn with
    | Discover.C_fpu | Discover.C_mmx -> (
      let c = Discover.class_of insn in
      match !fclass with
      | Some s when Discover.class_conflict s c -> false
      | _ ->
        fclass := Some c;
        true)
    | _ -> true
  in
  let try_diamond taken fall =
    if not config.Config.enable_predication then None
    else
      match (Discover.decode_bb mem taken, Discover.decode_bb mem fall) with
      | exception (Ia32.Decode.Invalid _ | Ia32.Fault.Fault _) -> None
      | bt, bf -> (
        let side_of b =
          match b.Discover.term with
          | (Discover.T_jmp j | Discover.T_fallthrough j)
            when Array.length b.Discover.insns <= diamond_max_side
                 && Array.for_all (fun (_, i) -> predicable i) b.Discover.insns
                 && side_mem_safe b.Discover.insns
            ->
            Some (b.Discover.insns, j, b.Discover.next)
          | _ -> None
        in
        match (side_of bt, side_of bf) with
        | Some (ti, tj, te), Some (fi, fj, fe) when tj = fj ->
          code_end := max !code_end (max te fe);
          Some (ti, fi, tj)
        | _ -> (
          (* one-sided hammock, the common IA-32 shape: the jcc skips
             forward over a few predicable instructions and the
             fall-through path rejoins at the branch target *)
          let rec collect addr acc n =
            if addr = taken then Some (Array.of_list (List.rev acc))
            else if n >= diamond_max_side || addr > taken then None
            else
              match Ia32.Decode.decode mem addr with
              | exception (Ia32.Decode.Invalid _ | Ia32.Fault.Fault _) ->
                None
              | insn, len ->
                if predicable insn then
                  collect (addr + len) ((addr, insn) :: acc) (n + 1)
                else None
          in
          match collect fall [] 0 with
          | Some fi when Array.length fi > 0 && side_mem_safe fi ->
            code_end := max !code_end taken;
            Some ([||], fi, taken)
          | _ -> None))
  in
  let rec walk addr =
    if Hashtbl.mem visited addr then begin
      if addr = entry then loop_head := true;
      push (S_end (E_goto addr))
    end
    else if !nblocks >= max_blocks || !ninsns >= max_insns then
      push (S_end (E_goto addr))
    else begin
      Hashtbl.replace visited addr ();
      incr nblocks;
      match Discover.decode_bb mem addr with
      | exception (Ia32.Decode.Invalid _ | Ia32.Fault.Fault _) ->
        push (S_end (E_goto addr))
      | bb -> (
        push (S_src addr);
        code_end := max !code_end bb.Discover.next;
        (try
           Array.iter
             (fun (a, insn) ->
               if not (Ia32.Insn.is_block_end insn) then begin
                 if not (note_class insn) then raise (Cut a);
                 push (S_insn (a, insn));
                 incr ninsns
               end)
             bb.Discover.insns
         with Cut a ->
           push (S_end (E_goto a));
           raise Exit);
        let n = Array.length bb.Discover.insns in
        let term =
          if n = 0 then None else Some bb.Discover.insns.(n - 1)
        in
        match bb.Discover.term with
        | Discover.T_jmp t -> walk t
        | Discover.T_fallthrough t -> walk t
        | Discover.T_call _ | Discover.T_indirect | Discover.T_syscall _
        | Discover.T_fault -> (
          match term with
          | Some (a, insn) when Ia32.Insn.is_block_end insn ->
            push (S_end (E_insn (a, insn)))
          | _ -> push (S_end (E_goto bb.Discover.next)))
        | Discover.T_jcc (c, taken, fall) -> (
          let a, _ = Option.get term in
          match try_diamond taken fall with
          | Some (ti, fi, join) ->
            push (S_diamond (a, c, ti, fi, join));
            walk join
          | None ->
            let uses = max 1 (profile.use_count addr) in
            let taken_n = profile.taken_count addr in
            if 2 * taken_n >= uses then begin
              push (S_exit_if (a, Ia32.Insn.cond_negate c, fall));
              walk taken
            end
            else begin
              push (S_exit_if (a, c, taken));
              walk fall
            end))
    end
  in
  (try walk entry with Exit -> ());
  (List.rev !steps, !code_end, !loop_head)

(* Unroll a self-loop trace: duplicate everything between the head and the
   E_goto-to-head, [unroll_copies] times. Only a first, unshrunk attempt
   unrolls. *)
let unroll_trace config ~shrink steps ~entry ~loop_head =
  if not (loop_head && config.Config.enable_unroll && shrink = 1) then steps
  else begin
    let body =
      List.filter (function S_end _ -> false | _ -> true) steps
    in
    let n_insns =
      List.length (List.filter (function S_insn _ -> true | _ -> false) body)
    in
    if n_insns > unroll_max_body then steps
    else begin
      let copies = List.concat (List.init unroll_copies (fun _ -> body)) in
      copies @ [ S_end (E_goto entry) ]
    end
  end

(* ------------------------------------------------------------------ *)
(* IL buffer with commit regions, scheduling and renaming              *)
(* ------------------------------------------------------------------ *)

(* Virtual register bases (anything >= vbase is renamed). *)
let vgr_base = 256
let vfr_base = 256
let vpr_base = 64

type region_item = R_il of I.t | R_lbl of int

type hstate = {
  (* current commit region items (reversed) *)
  mutable cur : region_item list;
  mutable region_backups : region_item list; (* reversed; run at region top *)
  mutable regions : (int * int * region_item array) list;
      (* (idx, nbackups, items) reversed *)
  mutable region_idx : int;
  mutable region_first_ip : int;
  mutable region_saved : Block.saved_loc list;
  mutable backed_up : (int, unit) Hashtbl.t; (* canonic GR backed up *)
  mutable fbacked_up : (int, unit) Hashtbl.t; (* canonic FR backed up *)
  mutable commit_maps : Block.commit_map list; (* reversed *)
  mutable store_seen : bool; (* a store was emitted for the current insn *)
  mutable vgr : int;
  mutable vfr : int;
  mutable vpr : int;
  (* external lifetime pins: virtual -> () meaning live to end *)
  pinned_gr : (int, unit) Hashtbl.t;
  pinned_fr : (int, unit) Hashtbl.t;
  (* stubs: (label, items) where items are (insn, tag) in order *)
  mutable stubs : (int * (I.t * int) list) list;
  mutable next_label : int;
  (* lazy flags *)
  pending : (Ia32.Insn.flag, producer) Hashtbl.t;
  (* address CSE *)
  mutable reg_version : int array; (* per guest reg *)
  ea_cache : (string, int) Hashtbl.t;
  mutable in_diamond : int option; (* side predicate *)
}

let is_canonic_gr r = (r >= 8 && r <= 23) || (r >= 40 && r <= 71)
let is_canonic_fr f = f >= 8 && f <= 47

(* ------------------------------------------------------------------ *)
(* Dependence-driven list scheduling of one region                      *)
(* ------------------------------------------------------------------ *)

let res_key = function
  | I.Rgr r -> r
  | I.Rfr f -> 1000 + f
  | I.Rpr p -> 2000 + p
  | I.Rbr b -> 3000 + b
  | I.Rmem -> 4000

let is_barrier insn =
  match insn.I.sem with
  (* speculation checks are NOT barriers: their dependences (the checked
     register, store ordering for chk.a) are tracked precisely *)
  | I.Br _ | I.Br_ind _ | I.Movpr _ | I.Prmov _ -> true
  | _ -> false

let latency_estimate insn =
  match insn.I.sem with
  | I.Ld _ -> 2
  | I.Ldf _ -> 6
  | I.Xma _ | I.Xmau _ | I.Xmah _ | I.Xmahu _ | I.Pmull _ -> 4
  | I.Fadd _ | I.Fsub _ | I.Fmul _ | I.Fma _ | I.Fmin _ | I.Fmax _ | I.Fneg _
  | I.Fabs_ _ | I.Fmov _ | I.Frint _ | I.Fcvt_xf _ | I.Fcvt_fx _
  | I.Fcvt_fxt _ | I.Fcvt_32 _ ->
    4
  | I.Fdiv _ | I.Fsqrt _ | I.Divs _ | I.Divu _ | I.Rems _ | I.Remu _ -> 24
  | I.Getf_s _ | I.Getf_d _ | I.Setf_s _ | I.Setf_d _ -> 5
  | _ -> 1

(* Schedule a region: returns items in a new order together with group
   boundaries. Regions containing local labels (REP loops) are emitted in
   order, cold-style. *)
let schedule_region config ~nbackups items =
  let has_label = Array.exists (function R_lbl _ -> true | _ -> false) items in
  let in_order () =
    Array.to_list
      (Array.map
         (function
           | R_il i -> (`I (i, true) : [ `I of I.t * bool | `L of int ])
           | R_lbl l -> `L l)
         items)
  in
  if has_label || not config.Config.enable_scheduling then in_order ()
  else begin
    let ils =
      Array.of_list
        (List.filter_map
           (function R_il i -> Some i | R_lbl _ -> None)
           (Array.to_list items))
    in
    let n = Array.length ils in
    if n = 0 then []
    else begin
    (* build dependence edges *)
    let succs = Array.make n [] in
    let npreds = Array.make n 0 in
    let add_edge a b =
      if a <> b then begin
        succs.(a) <- b :: succs.(a);
        npreds.(b) <- npreds.(b) + 1
      end
    in
    let last_def = Hashtbl.create 32 in
    let uses_since_def = Hashtbl.create 32 in
    let last_barrier = ref (-1) in
    let last_store = ref (-1) in
    let mem_ops_since_store = ref [] in
    for k = 0 to n - 1 do
      let insn = ils.(k) in
      (* Hoisting above branch barriers: a control-speculative load's
         faults defer to the NaT bit (its chk.s stays put), and a plain
         computation whose writes are all virtual registers is invisible
         at exits — neither needs the branch-before-it edge. Everything
         touching canonic state, memory, predicates it doesn't own, or
         control flow stays pinned. *)
      let hoistable =
        match insn.I.sem with
        | I.Ld (_, (I.Ld_s | I.Ld_sa), _, _) -> true
        | I.St _ | I.Stf _ | I.Ld _ | I.Ldf _ | I.Br _ | I.Br_ind _
        | I.Chk_s _ | I.Chk_a _ | I.Movpr _ | I.Prmov _ | I.Invala
        | I.Mov_to_br _ ->
          false
        | _ ->
          insn.I.qp = None
          && List.for_all
               (function
                 | I.Rgr g -> g >= vgr_base
                 | I.Rfr f -> f >= vfr_base
                 | I.Rpr p -> p >= vpr_base
                 | I.Rbr _ | I.Rmem -> false)
               (I.writes insn)
      in
      if !last_barrier >= 0 && not hoistable then add_edge !last_barrier k;
      List.iter
        (fun r ->
          let key = res_key r in
          (match Hashtbl.find_opt last_def key with
          | Some d -> add_edge d k (* RAW *)
          | None -> ());
          Hashtbl.replace uses_since_def key
            (k :: (try Hashtbl.find uses_since_def key with Not_found -> [])))
        (I.reads insn);
      List.iter
        (fun r ->
          let key = res_key r in
          (match Hashtbl.find_opt last_def key with
          | Some d -> add_edge d k (* WAW *)
          | None -> ());
          (match Hashtbl.find_opt uses_since_def key with
          | Some us -> List.iter (fun u -> add_edge u k (* WAR *)) us
          | None -> ());
          Hashtbl.replace last_def key k;
          Hashtbl.remove uses_since_def key)
        (I.writes insn);
      (* memory ordering: stores are ordered against everything touching
         memory; loads only against stores *)
      (match insn.I.sem with
      | I.Chk_a _ ->
        (* the check must observe every store the advanced load was
           hoisted above, and later stores must not move above it *)
        if !last_store >= 0 then add_edge !last_store k;
        mem_ops_since_store := k :: !mem_ops_since_store
      | _ -> ());
      (match insn.I.sem with
      | I.St _ | I.Stf _ ->
        if !last_store >= 0 then add_edge !last_store k;
        List.iter (fun m -> add_edge m k) !mem_ops_since_store;
        last_store := k;
        mem_ops_since_store := []
      | I.Ld (_, I.Ld_sa, _, _) ->
        (* advanced load: free to hoist above earlier stores (the ALAT
           catches aliasing), but later stores still wait for it *)
        mem_ops_since_store := k :: !mem_ops_since_store
      | I.Ld _ | I.Ldf _ ->
        if !last_store >= 0 then add_edge !last_store k;
        mem_ops_since_store := k :: !mem_ops_since_store
      | _ -> ());
      (* region-top backups precede every other instruction: a fault or
         reconstructing exit scheduled before a backup would make the commit
         restore copy an uninitialized backup register over live state *)
      if k < nbackups then
        for j = nbackups to n - 1 do
          add_edge k j
        done;
      if is_barrier insn then begin
        (* everything before the barrier must precede it *)
        for j = 0 to k - 1 do
          add_edge j k
        done;
        last_barrier := k
      end
    done;
    (* priorities: critical-path height *)
    let height = Array.make n 0 in
    for k = n - 1 downto 0 do
      List.iter
        (fun s -> height.(k) <- max height.(k) (height.(s) + latency_estimate ils.(k)))
        succs.(k);
      if succs.(k) = [] then height.(k) <- latency_estimate ils.(k)
    done;
    (* greedy grouped list scheduling *)
    let scheduled = ref [] in
    let ready = ref [] in
    let remaining = ref n in
    for k = 0 to n - 1 do
      if npreds.(k) = 0 then ready := k :: !ready
    done;
    let group_defs = Hashtbl.create 8 in
    let group_weight = ref 0 in
    let flush_group () =
      (match !scheduled with
      | (i, _) :: rest -> scheduled := (i, true) :: rest
      | [] -> ());
      Hashtbl.reset group_defs;
      group_weight := 0
    in
    while !remaining > 0 do
      (* pick the ready insn with max height that does not RAW-depend on a
         definition in the current group *)
      let ok k =
        List.for_all
          (fun r -> not (Hashtbl.mem group_defs (res_key r)))
          (I.reads ils.(k))
      in
      let candidates = List.filter ok !ready in
      (match candidates with
      | [] -> flush_group ()
      | _ ->
        let best =
          List.fold_left
            (fun b k -> if height.(k) > height.(b) then k else b)
            (List.hd candidates) candidates
        in
        ready := List.filter (fun k -> k <> best) !ready;
        decr remaining;
        scheduled := (best, false) :: !scheduled;
        List.iter
          (fun r -> Hashtbl.replace group_defs (res_key r) ())
          (I.writes ils.(best));
        group_weight := !group_weight + (match ils.(best).I.sem with I.Movi _ -> 2 | _ -> 1);
        if !group_weight >= 6 || is_barrier ils.(best) then flush_group ();
        List.iter
          (fun s ->
            npreds.(s) <- npreds.(s) - 1;
            if npreds.(s) = 0 then ready := s :: !ready)
          succs.(best))
    done;
      flush_group ();
      List.rev_map (fun (k, stop) -> `I (ils.(k), stop)) !scheduled
    end
  end

(* ------------------------------------------------------------------ *)
(* Renaming                                                            *)
(* ------------------------------------------------------------------ *)

type final_item =
  | F_insn of I.t * int (* tag *)
  | F_stop
  | F_label of int

(* Map virtual registers to the hot pools by linear scan over the final
   order; [pinned] virtuals stay live to the end. Returns the rewritten
   items plus the virtual->physical assignment. *)
let rename_all items ~pinned_gr ~pinned_fr =
  let last_gr = Hashtbl.create 64 in
  let last_fr = Hashtbl.create 16 in
  let last_pr = Hashtbl.create 16 in
  let first_gr = Hashtbl.create 64 in
  let first_fr = Hashtbl.create 16 in
  let first_pr = Hashtbl.create 16 in
  let note first last v k =
    if not (Hashtbl.mem first v) then Hashtbl.replace first v k;
    Hashtbl.replace last v k
  in
  List.iteri
    (fun k item ->
      match item with
      | F_insn (insn, _) ->
        List.iter
          (fun r ->
            match r with
            | I.Rgr g when g >= vgr_base -> note first_gr last_gr g k
            | I.Rfr f when f >= vfr_base -> note first_fr last_fr f k
            | I.Rpr p when p >= vpr_base -> note first_pr last_pr p k
            | _ -> ())
          (I.reads insn @ I.writes insn)
      | _ -> ())
    items;
  let n_items = List.length items in
  (* loop spans: a backward branch to a local label means every virtual
     live anywhere inside the span must survive the whole span (its value
     flows around the loop) *)
  let label_pos = Hashtbl.create 8 in
  List.iteri
    (fun k item -> match item with F_label l -> Hashtbl.replace label_pos l k | _ -> ())
    items;
  let spans = ref [] in
  List.iteri
    (fun k item ->
      match item with
      | F_insn (insn, _) -> (
        let target = function
          | I.To n when n < 0 -> Hashtbl.find_opt label_pos (-1 - n)
          | _ -> None
        in
        let t =
          match insn.I.sem with
          | I.Br tg | I.Chk_s (_, tg) | I.Chk_a (_, tg) -> target tg
          | _ -> None
        in
        match t with
        | Some i when i < k -> spans := (i, k) :: !spans
        | _ -> ())
      | _ -> ())
    items;
  let extend first last =
    (* to a fixpoint: extending a lifetime into a later span can make it
       overlap further spans (nested or sequential loops) *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (i, j) ->
          Hashtbl.iter
            (fun v f ->
              let l = try Hashtbl.find last v with Not_found -> f in
              if f < j && l > i && l < j then begin
                Hashtbl.replace last v j;
                changed := true
              end)
            first)
        !spans
    done
  in
  extend first_gr last_gr;
  extend first_fr last_fr;
  extend first_pr last_pr;
  Hashtbl.iter (fun v () -> Hashtbl.replace last_gr v n_items) pinned_gr;
  Hashtbl.iter (fun v () -> Hashtbl.replace last_fr v n_items) pinned_fr;
  let assign_gr = Hashtbl.create 64 in
  let assign_fr = Hashtbl.create 16 in
  let assign_pr = Hashtbl.create 16 in
  let free_gr = ref (List.init (Regs.hot_pool_last - Regs.hot_pool_first + 1)
                       (fun i -> Regs.hot_pool_first + i)) in
  let free_fr = ref (List.init (Regs.hot_fpool_last - Regs.hot_fpool_first + 1)
                       (fun i -> Regs.hot_fpool_first + i)) in
  let free_pr = ref (List.init (Regs.hot_pr_last - Regs.hot_pr_first + 1)
                       (fun i -> Regs.hot_pr_first + i)) in
  let expiry = Hashtbl.create 64 in (* item idx -> (kind, phys) list *)
  let take free assign v k last =
    match Hashtbl.find_opt assign v with
    | Some p -> p
    | None ->
      let p =
        match !free with
        | p :: rest ->
          free := rest;
          p
        | [] -> raise Give_up
      in
      Hashtbl.replace assign v p;
      let l = try Hashtbl.find last v with Not_found -> k in
      Hashtbl.replace expiry l
        ((free, p) :: (try Hashtbl.find expiry l with Not_found -> []));
      p
  in
  let out = ref [] in
  List.iteri
    (fun k item ->
      (match item with
      | F_insn (insn, tag) ->
        let g r = if r >= vgr_base then take free_gr assign_gr r k last_gr else r in
        let f r = if r >= vfr_base then take free_fr assign_fr r k last_fr else r in
        let p r = if r >= vpr_base then take free_pr assign_pr r k last_pr else r in
        out := F_insn (I.map_regs ~g ~f ~p insn, tag) :: !out
      | other -> out := other :: !out);
      (* release registers whose last use was here *)
      match Hashtbl.find_opt expiry k with
      | Some l -> List.iter (fun (free, p) -> free := p :: !free) l
      | None -> ())
    items;
  (List.rev !out, assign_gr, assign_fr)

(* ------------------------------------------------------------------ *)
(* The hot translation driver                                          *)
(* ------------------------------------------------------------------ *)

(* Producers that must materialize their flags eagerly rather than through
   the lazy-pending machinery: templates without a reusable producer record
   (shld/ucomiss/scas/popfd), the MUL family (whose overflow bit is only
   computed when a plan asks for it), and conditional flag writers (CL and
   zero-count shifts, which leave the *previous* flag values in place when
   the count is zero — their guarded materialization needs the canonic
   registers to hold those previous values). *)
let odd_producer insn =
  match insn with
  | Ia32.Insn.Shld _ | Ia32.Insn.Shrd _ | Ia32.Insn.Sse (Ia32.Insn.Ucomiss _)
  | Ia32.Insn.Scas _ | Ia32.Insn.Popfd | Ia32.Insn.Imul_rr _
  | Ia32.Insn.Imul_rri _ | Ia32.Insn.Mul1 _ | Ia32.Insn.Imul1 _ ->
    true
  | _ -> Ia32.Insn.flags_def_must insn <> Ia32.Insn.flags_def insn

let flags_live_out steps =
  let n = Array.length steps in
  let out = Array.make n Discover.all_flags_mask in
  let live = ref Discover.all_flags_mask in
  for k = n - 1 downto 0 do
    out.(k) <- !live;
    match steps.(k) with
    | S_insn (_, insn) | S_end (E_insn (_, insn)) ->
      let def = Discover.mask_of_flags (Ia32.Insn.flags_def_must insn) in
      let use = Discover.mask_of_flags (Ia32.Insn.flags_use insn) in
      live := !live land lnot def lor use
    | S_src _ | S_exit_if _ | S_diamond _ | S_end (E_goto _) -> ()
  done;
  out

let consumer_of_step = function
  | S_insn (_, Ia32.Insn.Jcc (c, _))
  | S_insn (_, Ia32.Insn.Setcc (c, _))
  | S_insn (_, Ia32.Insn.Cmovcc (c, _, _))
  | S_exit_if (_, c, _)
  | S_diamond (_, c, _, _, _) ->
    Some c
  | _ -> None

let translate_exn (env : Cold.env) ~shrink ~entry ~entry_tos ~profile ~avoid =
  let config = env.Cold.config in
  let steps_l, code_end, loop_head = select_trace env ~shrink profile ~entry in
  let steps_l = unroll_trace config ~shrink steps_l ~entry ~loop_head in
  let steps = Array.of_list steps_l in
  let nsteps = Array.length steps in
  if nsteps = 0 then raise Give_up;
  let live_out = flags_live_out steps in
  let id = Block.fresh_id env.Cold.cache in
  let hs =
    {
      cur = [];
      regions = [];
      region_idx = 0;
      region_backups = [];
      region_first_ip = entry;
      region_saved = [];
      backed_up = Hashtbl.create 16;
      fbacked_up = Hashtbl.create 8;
      commit_maps = [];
      store_seen = false;
      vgr = vgr_base;
      vfr = vfr_base;
      vpr = vpr_base;
      pinned_gr = Hashtbl.create 16;
      pinned_fr = Hashtbl.create 8;
      stubs = [];
      next_label = 0;
      pending = Hashtbl.create 8;
      reg_version = Array.make 8 0;
      ea_cache = Hashtbl.create 16;
      in_diamond = None;
    }
  in
  let fp = Fpmap.create ~entry_tos in
  let cur_src = ref entry in
  (* snapshot at the current point, used for commit maps *)
  let uses_mmx_ref = ref false in
  let mmx_exit_tag_ref = ref 0xFF in
  let mmx_written_ref = ref 0 in
  let xmm_fmt_ref = ref (Array.make 8 (-1)) in
  let snapshot_now () =
    let base =
      if !uses_mmx_ref then
        { (Block.identity_snapshot ~entry_tos:0) with
          Block.s_set_valid = !mmx_exit_tag_ref;
          Block.s_written = !mmx_written_ref;
          Block.s_mmx = true }
      else Block.snapshot_of_fpmap fp
    in
    { base with Block.s_xmm_fmt = Array.copy !xmm_fmt_ref }
  in
  (* --- emission sink with backups, versions, store detection ---------- *)
  let stub_sink = ref None in
  let sink (insn : I.t) =
    match !stub_sink with
    | Some buf ->
      buf := (insn, hs.region_idx) :: !buf
    | None ->
      (* if-conversion: qualify everything emitted inside a diamond side *)
      let insn =
        match (hs.in_diamond, insn.I.qp) with
        | Some p, None -> { insn with I.qp = Some p }
        | _ -> insn
      in
      (* canonic-state backups for the commit map *)
      List.iter
        (fun r ->
          match r with
          | I.Rgr g when is_canonic_gr g && not (Hashtbl.mem hs.backed_up g) ->
            Hashtbl.replace hs.backed_up g ();
            let bk = hs.vgr in
            hs.vgr <- hs.vgr + 1;
            Hashtbl.replace hs.pinned_gr bk ();
            hs.region_backups <- R_il (I.mk (I.Mov (bk, g))) :: hs.region_backups;
            let loc =
              if g >= 8 && g <= 15 then
                Block.Sgr (Ia32.Insn.reg_of_index (g - 8), bk)
              else if g >= 16 && g <= 22 then
                Block.Sflag
                  ( List.nth Ia32.Insn.all_flags (g - 16)
                    (* CF..DF in gr_of_flag order *),
                    bk )
              else if g >= 48 && g <= 55 then Block.Smm (g - 48, bk)
              else if g >= 56 && g <= 71 then
                if (g - 56) mod 2 = 0 then Block.Sxlo ((g - 56) / 2, bk)
                else Block.Sxhi ((g - 57) / 2, bk)
              else Block.Sstatus (g, bk)
            in
            hs.region_saved <- loc :: hs.region_saved
          | I.Rfr f when is_canonic_fr f && not (Hashtbl.mem hs.fbacked_up f) ->
            Hashtbl.replace hs.fbacked_up f ();
            let bk = hs.vfr in
            hs.vfr <- hs.vfr + 1;
            Hashtbl.replace hs.pinned_fr bk ();
            hs.region_backups <- R_il (I.mk (I.Fmov (bk, f))) :: hs.region_backups;
            hs.region_saved <- Block.Sfr (f, bk) :: hs.region_saved
          | _ -> ())
        (I.writes insn);
      (* guest register versions for the address CSE *)
      List.iter
        (fun r ->
          match r with
          | I.Rgr g when g >= 8 && g <= 15 ->
            hs.reg_version.(g - 8) <- hs.reg_version.(g - 8) + 1
          | _ -> ())
        (I.writes insn);
      (match insn.I.sem with I.St _ | I.Stf _ -> hs.store_seen <- true | _ -> ());
      hs.cur <- R_il insn :: hs.cur
  in
  (* --- context --------------------------------------------------------- *)
  let counted_avoid = Hashtbl.create 4 in
  let misalign_policy idx width =
    ignore width;
    if hs.in_diamond <> None then Ma_plain
    else if not config.Config.misalign_avoidance then Ma_plain
    else if avoid || profile.misaligned !cur_src idx then begin
      (* templates may query the policy more than once per access *)
      (if not (Hashtbl.mem counted_avoid (!cur_src, idx)) then begin
         Hashtbl.replace counted_avoid (!cur_src, idx) ();
         env.Cold.acct.Account.misalign_avoided <-
           env.Cold.acct.Account.misalign_avoided + 1
       end);
      Ma_avoid 1
    end
    else Ma_plain
  in
  let ea_hot ctx (m : Ia32.Insn.mem) =
    let raw () =
      let g0 = default_ea ctx m in
      if g0 < vgr_base then begin
        let t = ctx.fresh () in
        emit ctx (I.Mov (t, g0));
        t
      end
      else g0
    in
    if (not config.Config.enable_cse) || hs.in_diamond <> None then raw ()
    else begin
      let vers r = hs.reg_version.(Ia32.Insn.reg_index r) in
      let key =
        Printf.sprintf "%s%s.%d"
          (match m.Ia32.Insn.base with
          | Some b -> Printf.sprintf "b%d.%d" (Ia32.Insn.reg_index b) (vers b)
          | None -> "")
          (match m.Ia32.Insn.index with
          | Some (r, sc) ->
            Printf.sprintf "+i%d.%d*%d" (Ia32.Insn.reg_index r) (vers r) sc
          | None -> "")
          m.Ia32.Insn.disp
      in
      match Hashtbl.find_opt hs.ea_cache key with
      | Some g -> g
      | None ->
        let g = raw () in
        Hashtbl.replace hs.ea_cache key g;
        g
    end
  in
  let ctx =
    {
      emit = sink;
      emit_stop = (fun () -> () (* scheduling re-derives grouping *));
      new_label =
        (fun () ->
          let l = hs.next_label in
          hs.next_label <- l + 1;
          l);
      bind =
        (fun l ->
          match !stub_sink with
          | Some _ -> Bt_error.fail ~component:"hot" "no labels inside stubs"
          | None -> hs.cur <- R_lbl l :: hs.cur);
      local = (fun l -> I.To (-1 - l));
      fresh =
        (fun () ->
          let r = hs.vgr in
          hs.vgr <- r + 1;
          r);
      ffresh =
        (fun () ->
          let r = hs.vfr in
          hs.vfr <- r + 1;
          r);
      pfresh =
        (fun () ->
          let p = hs.vpr in
          hs.vpr <- p + 1;
          p);
      ea = ea_hot;
      goto =
        (fun ctx target ->
          emit ctx (I.Br (I.Out (I.Dispatch target))));
      goto_if =
        (fun ctx ~pr target ->
          emitp ctx pr (I.Br (I.Out (I.Dispatch target))));
      indirect = (fun ctx -> emit ctx (I.Br (I.Out I.Indirect)));
      syscall =
        (fun ctx n ->
          emit ctx (I.Movi (Regs.r_state, Int64.of_int ctx.next_ip));
          emit ctx (I.Br (I.Out (I.Syscall n))));
      guest_fault =
        (fun ctx ?pr v ->
          let sem = I.Br (I.Out (I.Guest_fault (ctx.cur_ip, v))) in
          match pr with Some p -> emitp ctx p sem | None -> emit ctx sem);
      misalign_out =
        (fun ctx ~pr -> emitp ctx pr (I.Br (I.Out (I.Misalign_regen id))));
      fp;
      xmm_fmt = Array.make 8 (-1);
      xmm_entry = Array.make 8 (-1);
      uses_mmx = false;
      mmx_exit_tag = 0xFF;
      mmx_written = 0;
      cur_ip = entry;
      next_ip = entry;
      plan = Plan_none;
      fused_pred = None;
      last_producer = None;
      access_idx = 0;
      misalign_policy;
      ma_pred_cache = Hashtbl.create 16;
    }
  in
  (* --- lazy flag helpers ----------------------------------------------- *)
  let flush_flag f prod = set_flag ctx prod f in
  let flush_pending ~clear () =
    (* deterministic order *)
    List.iter
      (fun f ->
        match Hashtbl.find_opt hs.pending f with
        | Some prod ->
          flush_flag f prod;
          if clear then Hashtbl.remove hs.pending f
        | None -> ())
      Ia32.Insn.all_flags
  in
  let pre_materialize flags =
    if ctx.fused_pred = None then
      List.iter
        (fun f ->
          match Hashtbl.find_opt hs.pending f with
          | Some prod ->
            flush_flag f prod;
            Hashtbl.remove hs.pending f
          | None -> ())
        flags
  in
  (* --- commit regions ----------------------------------------------------
     Commit snapshots reflect the region START state; captured when the
     region begins. *)
  let start_snapshot = ref (snapshot_now ()) in
  let close_region ~next_ip =
    flush_pending ~clear:true ();
    hs.commit_maps <-
      { Block.cm_ip = hs.region_first_ip;
        cm_saved = hs.region_saved;
        cm_fp = !start_snapshot }
      :: hs.commit_maps;
    (* Backups execute at the region top, before anything that can fault or
       exit: a commit restore copies every backup register back, so each must
       hold the region-start value before the first restorable event. *)
    let nb = List.length hs.region_backups in
    hs.regions <-
      ( hs.region_idx,
        nb,
        Array.of_list (List.rev_append hs.region_backups (List.rev hs.cur)) )
      :: hs.regions;
    hs.cur <- [];
    hs.region_backups <- [];
    hs.region_idx <- hs.region_idx + 1;
    hs.region_first_ip <- next_ip;
    hs.region_saved <- [];
    Hashtbl.reset hs.backed_up;
    Hashtbl.reset hs.fbacked_up;
    hs.store_seen <- false;
    start_snapshot := snapshot_now ()
  in
  (* --- step processing --------------------------------------------------- *)
  let src_insns = ref [] in
  let is_string_op = function
    | Ia32.Insn.Movs _ | Ia32.Insn.Stos _ | Ia32.Insn.Lods _ | Ia32.Insn.Scas _
      ->
      true
    | _ -> false
  in
  let plan_for k insn =
    let defs = Ia32.Insn.flags_def insn in
    if defs = [] then Plan_none
    else begin
      let live = live_out.(k) in
      let live_defs =
        List.filter (fun f -> live land Discover.flag_bit f <> 0) defs
      in
      if not config.Config.enable_flag_elim then Plan_set defs
      else if odd_producer insn then
        match (if k + 1 < nsteps then consumer_of_step steps.(k + 1) else None) with
        | Some c
          when List.for_all
                 (fun f -> List.mem f (Ia32.Insn.flags_def_must insn))
                 (Ia32.Insn.cond_uses c) ->
          Plan_fuse (c, defs)
        | _ -> Plan_set defs
      else
        match (if k + 1 < nsteps then consumer_of_step steps.(k + 1) else None) with
        | Some c
          when List.for_all
                 (fun f -> List.mem f (Ia32.Insn.flags_def_must insn))
                 (Ia32.Insn.cond_uses c) ->
          let cmask =
            match steps.(k + 1) with
            | S_insn (a, _) -> (
              ignore a;
              if k + 1 < nsteps then live_out.(k + 1) else Discover.all_flags_mask)
            | S_exit_if _ | S_diamond _ -> live_out.(k + 1)
            | _ -> Discover.all_flags_mask
          in
          let extra =
            List.filter (fun f -> cmask land Discover.flag_bit f <> 0) defs
          in
          Plan_fuse (c, extra)
        | _ ->
          (* Even when every defined flag is dead inside the trace, a side
             exit can still flush this producer lazily (stubs preserve
             EFLAGS at exits), so the template must build a self-contained
             record: Plan_set [] snapshots the operands without
             materializing anything. *)
          Plan_set live_defs
    end
  in
  let update_pending insn =
    let defs = Ia32.Insn.flags_def insn in
    if defs <> [] then begin
      let materialized =
        match ctx.plan with
        | Plan_none -> []
        | Plan_set fl -> fl
        | Plan_fuse (_, fl) -> fl
      in
      let materialized =
        if odd_producer insn then defs else materialized
      in
      List.iter
        (fun f ->
          if List.mem f materialized then Hashtbl.remove hs.pending f
          else
            match ctx.last_producer with
            | Some prod -> Hashtbl.replace hs.pending f prod
            | None ->
              (* no record means the template did not touch this flag
                 (e.g. rotates do not produce SZP); keep any pending state *)
              ())
        defs
    end
  in
  let emit_one k addr insn ~next_addr =
    ctx.cur_ip <- addr;
    ctx.next_ip <- next_addr;
    pre_materialize (Ia32.Insn.flags_use insn);
    (* eager producers need the previous flag values in canonic registers
       (conditional writers) and clear any pending state they redefine *)
    if odd_producer insn then pre_materialize (Ia32.Insn.flags_def insn);
    ctx.plan <- plan_for k insn;
    ctx.last_producer <- None;
    (* string operations are their own commit region: close before *)
    if is_string_op insn && hs.cur <> [] then close_region ~next_ip:addr;
    Templates.emit_insn ctx insn;
    update_pending insn;
    src_insns := (addr, insn) :: !src_insns;
    env.Cold.acct.Account.hot_target_insns <-
      env.Cold.acct.Account.hot_target_insns + 1;
    if hs.store_seen || is_string_op insn then
      close_region ~next_ip:next_addr
  in
  let make_stub () =
    let lbl = ctx.new_label () in
    let buf = ref [] in
    stub_sink := Some buf;
    (* sideways: pending flag materializations live in the stub *)
    flush_pending ~clear:false ();
    (* partial FP/SSE exit updates from a snapshot of the current state *)
    let ctx2 =
      { ctx with
        fp = Fpmap.copy ctx.fp;
        xmm_fmt = Array.copy ctx.xmm_fmt }
    in
    emit_fp_exit_update ctx2;
    emit_sse_exit_update ctx2;
    (lbl, buf)
  in
  let finish_stub lbl buf target =
    emit ctx (I.Br (I.Out (I.Dispatch target)));
    stub_sink := None;
    hs.stubs <- (lbl, List.rev !buf) :: hs.stubs
  in
  let side_exit _k _addr c target =
    pre_materialize (Ia32.Insn.cond_uses c);
    let p_taken, _ = cond_pred ctx c in
    let lbl, buf = make_stub () in
    finish_stub lbl buf target;
    emitp ctx p_taken (I.Br (ctx.local lbl))
  in
  let diamond _addr c then_side else_side ~join =
    pre_materialize (Ia32.Insn.cond_uses c);
    let p_then, p_else = cond_pred ctx c in
    Hashtbl.reset hs.ea_cache;
    hs.in_diamond <- Some p_then;
    Array.iter
      (fun (a, insn) ->
        ctx.cur_ip <- a;
        ctx.plan <- Plan_none;
        Templates.emit_insn ctx insn;
        src_insns := (a, insn) :: !src_insns)
      then_side;
    hs.in_diamond <- Some p_else;
    Array.iter
      (fun (a, insn) ->
        ctx.cur_ip <- a;
        ctx.plan <- Plan_none;
        Templates.emit_insn ctx insn;
        src_insns := (a, insn) :: !src_insns)
      else_side;
    hs.in_diamond <- None;
    Hashtbl.reset hs.ea_cache;
    (* a store inside a predicated side ends the commit region like any
       other store: later faults in the trace must not re-execute it *)
    if hs.store_seen then close_region ~next_ip:join
  in
  let emit_end e =
    flush_pending ~clear:true ();
    emit_fp_exit_update ctx;
    emit_sse_exit_update ctx;
    match e with
    | E_goto t -> ctx.goto ctx t
    | E_insn (a, insn) ->
      let len =
        match Ia32.Decode.decode env.Cold.mem a with
        | _, l -> l
        | exception _ -> 1
      in
      ctx.cur_ip <- a;
      ctx.next_ip <- Ia32.Word.mask32 (a + len);
      pre_materialize (Ia32.Insn.flags_use insn);
      ctx.plan <- Plan_none;
      Templates.emit_insn ctx insn;
      src_insns := (a, insn) :: !src_insns
  in
  (* next source address per step, for region boundaries *)
  let next_addr_of k =
    let rec find j =
      if j >= nsteps then code_end
      else
        match steps.(j) with
        | S_insn (a, _) | S_exit_if (a, _, _) | S_diamond (a, _, _, _, _)
        | S_end (E_insn (a, _)) ->
          a
        | S_end (E_goto a) -> a
        | S_src _ -> find (j + 1)
    in
    find (k + 1)
  in
  (* track uses_mmx / xmm formats via ctx after each step *)
  let sync_mmx_refs () =
    uses_mmx_ref := ctx.uses_mmx;
    mmx_exit_tag_ref := ctx.mmx_exit_tag;
    mmx_written_ref := ctx.mmx_written;
    xmm_fmt_ref := ctx.xmm_fmt
  in
  Array.iteri
    (fun k step ->
      (match step with
      | S_src a ->
        cur_src := a;
        ctx.access_idx <- 0
      | S_insn (a, insn) -> emit_one k a insn ~next_addr:(next_addr_of k)
      | S_exit_if (a, c, target) -> side_exit k a c target
      | S_diamond (a, c, ts, fs, join) -> diamond a c ts fs ~join
      | S_end e -> emit_end e);
      sync_mmx_refs ())
    steps;
  (* close the final region *)
  close_region ~next_ip:code_end;
  env.Cold.acct.Account.commit_points <-
    env.Cold.acct.Account.commit_points + hs.region_idx;
  (* --- head checks ------------------------------------------------------- *)
  let head_buf = ref [] in
  stub_sink := Some head_buf;
  if config.Config.mmx_mode_speculation then begin
    if ctx.uses_mmx then emit_mode_check ctx ~block_id:id ~mmx:true
    else if fp.Fpmap.used then emit_mode_check ctx ~block_id:id ~mmx:false
  end;
  if config.Config.fp_stack_speculation then begin
    if ctx.uses_mmx then begin
      (* MMX accesses are absolute: require canonic parking *)
      emit_park_check ctx ~block_id:id;
      env.Cold.acct.Account.tos_checks <- env.Cold.acct.Account.tos_checks + 1
    end
    else begin
      emit_fp_entry_check ctx ~block_id:id;
      if fp.Fpmap.used then
        env.Cold.acct.Account.tos_checks <- env.Cold.acct.Account.tos_checks + 1
    end
  end;
  if config.Config.sse_format_speculation then emit_sse_entry_check ctx ~block_id:id;
  stub_sink := None;
  let head_items = List.rev !head_buf in
  (* --- assemble, schedule, rename ---------------------------------------- *)
  let items = ref [] in
  let add i = items := i :: !items in
  List.iter (fun (insn, _) -> add (F_insn (insn, -1))) head_items;
  add F_stop;
  List.iter
    (fun (tag, nbackups, ritems) ->
      (* control speculation (paper §4.2): rewrite plain loads that sit
         below a conditional exit branch into ld.s at the same position
         (free to hoist above the branch) plus a chk.s where the load
         was. A fault on the hoisted load defers into the register's NaT
         bit; if the exit is taken the NaT dies unobserved (the fault is
         filtered), otherwise the chk.s exits to the engine, which
         restores the commit point and re-raises the fault precisely. *)
      let ritems =
        if
          config.Config.enable_scheduling
          && config.Config.enable_control_spec
          && not (Array.exists (function R_lbl _ -> true | _ -> false) ritems)
        then begin
          let out = ref [] in
          let seen_branch = ref false in
          let seen_store = ref false in
          Array.iter
            (fun item ->
              (match item with
              | R_il { I.qp = Some _; I.sem = I.Br _ } -> seen_branch := true
              | R_il { I.sem = I.St _ | I.Stf _; _ } -> seen_store := true
              | _ -> ());
              match item with
              | R_il ({ I.qp = None; I.sem = I.Ld (sz, I.Ld_none, d, a) } as il)
                when !seen_store ->
                (* data + control speculation: ld.sa both defers faults
                   and allocates an ALAT entry that any aliasing store
                   kills; the chk.a covers both failure modes *)
                out := R_il { il with I.sem = I.Ld (sz, I.Ld_sa, d, a) } :: !out;
                out :=
                  R_il (I.mk (I.Chk_a (d, I.Out (I.Nat_recover id)))) :: !out
              | R_il ({ I.qp = None; I.sem = I.Ld (sz, I.Ld_none, d, a) } as il)
                when !seen_branch ->
                out := R_il { il with I.sem = I.Ld (sz, I.Ld_s, d, a) } :: !out;
                out :=
                  R_il (I.mk (I.Chk_s (d, I.Out (I.Nat_recover id)))) :: !out
              | _ -> out := item :: !out)
            ritems;
          Array.of_list (List.rev !out)
        end
        else ritems
      in
      List.iter
        (fun item ->
          match item with
          | `I (insn, stop) ->
            add (F_insn (insn, tag));
            if stop then add F_stop
          | `L l -> add (F_label l))
        (schedule_region config ~nbackups ritems))
    (List.rev hs.regions);
  List.iter
    (fun (lbl, stub_items) ->
      add (F_label lbl);
      List.iter
        (fun (insn, tag) ->
          add (F_insn (insn, tag));
          add F_stop)
        stub_items)
    (List.rev hs.stubs);
  let final = List.rev !items in
  let renamed, assign_gr, assign_fr =
    rename_all final ~pinned_gr:hs.pinned_gr ~pinned_fr:hs.pinned_fr
  in
  (* --- lower ------------------------------------------------------------- *)
  let cg = Cgen.create () in
  List.iter
    (fun item ->
      match item with
      | F_insn (insn, tag) -> Cgen.emit ~tag cg insn
      | F_stop -> Cgen.stop cg
      | F_label l -> Cgen.bind cg l)
    renamed;
  let tstart, tlen, tags = Cgen.lower cg env.Cold.tcache in
  (* --- block record ------------------------------------------------------ *)
  let phys_of_gr v =
    match Hashtbl.find_opt assign_gr v with Some p -> p | None -> v
  in
  let phys_of_fr v =
    match Hashtbl.find_opt assign_fr v with Some p -> p | None -> v
  in
  let commit_maps =
    List.rev_map
      (fun cm ->
        { cm with
          Block.cm_saved =
            List.map
              (fun loc ->
                match loc with
                | Block.Sgr (r, bk) -> Block.Sgr (r, phys_of_gr bk)
                | Block.Sflag (f, bk) -> Block.Sflag (f, phys_of_gr bk)
                | Block.Sfr (fr, bk) -> Block.Sfr (fr, phys_of_fr bk)
                | Block.Sxlo (i, bk) -> Block.Sxlo (i, phys_of_gr bk)
                | Block.Sxhi (i, bk) -> Block.Sxhi (i, phys_of_gr bk)
                | Block.Smm (i, bk) -> Block.Smm (i, phys_of_gr bk)
                | Block.Sstatus (r, bk) -> Block.Sstatus (r, phys_of_gr bk))
              cm.Block.cm_saved })
      hs.commit_maps
    |> Array.of_list
  in
  let bundle_commit = Array.map (fun t -> if t < 0 then 0 else t) tags in
  let block =
    {
      Block.id;
      entry;
      kind = Block.Hot;
      tstart;
      tlen;
      insns = Array.of_list (List.rev !src_insns);
      code_end;
      span = Block.capture_span env.Cold.mem ~lo:entry ~hi:code_end;
      ma_base = 0;
      n_accesses = 0;
      entry_tos;
      sse_entry = Array.copy ctx.xmm_entry;
      fp_recovery = Hashtbl.create 1;
      commit_maps;
      bundle_commit;
      misalign_stage = 3;
      live = true;
      registered = 0;
    }
  in
  (* watch source pages (SMC) *)
  Block.watch env.Cold.mem block;
  env.Cold.acct.Account.hot_blocks <- env.Cold.acct.Account.hot_blocks + 1;
  block

(* Register pressure grows with trace length (side-exit stubs pin flag
   producers); retry with traces half and a quarter as long, not unrolled,
   before giving up. *)
let translate (env : Cold.env) ~entry ~entry_tos ~profile ~avoid =
  List.find_map
    (fun shrink ->
      match translate_exn env ~shrink ~entry ~entry_tos ~profile ~avoid with
      | b -> Some b
      | exception (Give_up | Fpmap.Static_fault | Ipf.Bundle.Invalid _) -> None)
    [ 1; 2; 4 ]
