(* Cold code generation (paper §2, Figure 1): basic-block granularity with
   neighbourhood analysis for EFLAGS liveness, template-based emission with
   per-instruction stops (no reordering), instrumentation (use counter with
   heat trigger, taken-edge counter, stage-1/2 misalignment machinery), the
   IA-32 state register protocol for precise exceptions, and block-head
   speculation checks for x87/MMX/SSE state. *)

open Templates
module I = Ipf.Insn

type env = {
  config : Config.t;
  tcache : Ipf.Tcache.t;
  cache : Block.cache;
  mem : Ia32.Memory.t;
  acct : Account.t;
}

exception Cannot_translate of int (* entry address: undecodable/unmapped *)

(* Fusion candidate: the following instruction consumes only flags this one
   defines. *)
let fusable_consumer insns k =
  if k + 1 >= Array.length insns then None
  else
    let _, producer = insns.(k) in
    let caddr, consumer = insns.(k + 1) in
    let c =
      match consumer with
      | Ia32.Insn.Jcc (c, _) | Ia32.Insn.Setcc (c, _) | Ia32.Insn.Cmovcc (c, _, _)
        ->
        Some c
      | _ -> None
    in
    match c with
    | Some c
      when List.for_all
             (fun f -> List.mem f (Ia32.Insn.flags_def_must producer))
             (Ia32.Insn.cond_uses c) ->
      Some (c, caddr)
    | _ -> None

(* Build a cold-translation context over a Cgen buffer. *)
let make_ctx env cg ~block_id ~entry_tos ~stage2 ~ma_base ~edge_slot ~is_cond =
  let scratch = ref Regs.hot_pool_first in
  let fscratch = ref Regs.cold_fscratch_first in
  let pscratch = ref Regs.pr_scratch1 in
  let counted_avoid = Hashtbl.create 4 in
  let misalign_policy idx _width =
    if not env.config.misalign_avoidance then Ma_plain
    else if stage2 then begin
      (* templates may query the policy more than once per access *)
      if not (Hashtbl.mem counted_avoid idx) then begin
        Hashtbl.replace counted_avoid idx ();
        env.acct.Account.misalign_avoided <-
          env.acct.Account.misalign_avoided + 1
      end;
      Ma_avoid_record (1, ma_base + (4 * idx))
    end
    else Ma_detect
  in
  let ctx =
    {
      emit = (fun i -> Cgen.emit cg i);
      emit_stop = (fun () -> Cgen.stop cg);
      new_label = (fun () -> Cgen.new_label cg);
      bind = (fun l -> Cgen.bind cg l);
      local = (fun l -> Cgen.local l);
      fresh =
        (fun () ->
          let r = !scratch in
          if r > Regs.hot_pool_last then
            Bt_error.fail ~component:"cold" ~block:block_id "scratch overflow";
          scratch := r + 1;
          r);
      ffresh =
        (fun () ->
          let r = !fscratch in
          if r > Regs.cold_fscratch_last then
            Bt_error.fail ~component:"cold" ~block:block_id "fscratch overflow";
          fscratch := r + 1;
          r);
      pfresh =
        (fun () ->
          let p = !pscratch in
          if p > Regs.hot_pr_last then
            Bt_error.fail ~component:"cold" ~block:block_id "pscratch overflow";
          pscratch := p + 1;
          p);
      ea = default_ea;
      goto =
        (fun ctx target ->
          emit_fp_exit_update ctx;
          emit_sse_exit_update ctx;
          emit ctx (I.Br (I.Out (I.Dispatch target)));
          stop ctx);
      goto_if =
        (fun ctx ~pr target ->
          (* taken-edge counter, bumped under the taken predicate: one
             saturating slot hashed from the block entry (the address the
             hot-phase profile queries for taken bias) *)
          if is_cond && env.config.two_phase then
            emitp ctx pr (I.Edgec edge_slot);
          emit_fp_exit_update ~qp:pr ctx;
          emit_sse_exit_update ~qp:pr ctx;
          emitp ctx pr (I.Br (I.Out (I.Dispatch target)));
          stop ctx);
      indirect =
        (fun ctx ->
          emit_fp_exit_update ctx;
          emit_sse_exit_update ctx;
          emit ctx (I.Br (I.Out I.Indirect));
          stop ctx);
      syscall =
        (fun ctx n ->
          emit_fp_exit_update ctx;
          emit_sse_exit_update ctx;
          emit ctx (I.Movi (Regs.r_state, Int64.of_int ctx.next_ip));
          stop ctx;
          emit ctx (I.Br (I.Out (I.Syscall n)));
          stop ctx);
      guest_fault =
        (fun ctx ?pr v ->
          let sem = I.Br (I.Out (I.Guest_fault (ctx.cur_ip, v))) in
          (match pr with Some p -> emitp ctx p sem | None -> emit ctx sem);
          stop ctx);
      misalign_out =
        (fun ctx ~pr ->
          emitp ctx pr (I.Br (I.Out (I.Misalign_regen block_id)));
          stop ctx);
      fp = Fpmap.create ~entry_tos;
      xmm_fmt = Array.make 8 (-1);
      xmm_entry = Array.make 8 (-1);
      uses_mmx = false;
      mmx_exit_tag = 0xFF;
      mmx_written = 0;
      cur_ip = 0;
      next_ip = 0;
      plan = Plan_none;
      fused_pred = None;
      last_producer = None;
      access_idx = 0;
      misalign_policy;
      ma_pred_cache = Hashtbl.create 8;
    }
  in
  let reset_scratch ~keep_preds =
    scratch := Regs.hot_pool_first;
    fscratch := Regs.cold_fscratch_first;
    if not keep_preds then pscratch := Regs.pr_scratch1;
    (* the misalignment predicate cache only holds within one instruction
       in cold code (scratch registers are reused) *)
    Hashtbl.reset ctx.ma_pred_cache
  in
  (ctx, reset_scratch)

(* Translate one cold block at [entry]. [entry_tos] is the runtime TOS at
   translation time (the speculation); [stage2] selects the regenerated
   misalignment-avoiding variant. *)
let translate env ~entry ~entry_tos ~stage2 =
  let region =
    try
      Discover.discover env.mem ~entry
    with Ia32.Decode.Invalid _ | Ia32.Fault.Fault _ -> raise (Cannot_translate entry)
  in
  let bb =
    match Hashtbl.find_opt region.Discover.blocks entry with
    | Some bb when Array.length bb.Discover.insns > 0 -> bb
    | _ -> raise (Cannot_translate entry)
  in
  let live_out = Discover.flags_liveness region in
  let id = Block.fresh_id env.cache in
  let n_acc =
    Array.fold_left
      (fun a (_, i) -> a + List.length (Ia32.Insn.mem_refs i))
      0 bb.Discover.insns
  in
  let ma_base = Block.alloc_arena env.cache (max 1 n_acc) in
  let is_cond = match bb.Discover.term with Discover.T_jcc _ -> true | _ -> false in
  let cg = Cgen.create () in
  let ctx, reset_scratch =
    make_ctx env cg ~block_id:id ~entry_tos ~stage2 ~ma_base
      ~edge_slot:(Ipf.Machine.counter_slot entry) ~is_cond
  in
  let fp_recovery = Hashtbl.create 8 in
  let insns = bb.Discover.insns in
  let n = Array.length insns in
  let skip_plan = ref false in
  let exception Stop_block in
  (try
  for k = 0 to n - 1 do
    let addr, insn = insns.(k) in
    let next = if k + 1 < n then fst insns.(k + 1) else bb.Discover.next in
    ctx.cur_ip <- addr;
    ctx.next_ip <- next;
    reset_scratch ~keep_preds:(ctx.fused_pred <> None);
    (* flag plan *)
    let defs = Ia32.Insn.flags_def insn in
    let live = Discover.flags_to_set live_out addr insn in
    ctx.plan <-
      (if defs = [] then Plan_none
       else if not env.config.enable_flag_elim then Plan_set defs
       else if !skip_plan then if live = [] then Plan_none else Plan_set live
       else
         match fusable_consumer insns k with
         | Some (c, caddr) ->
           let mask =
             match Hashtbl.find_opt live_out caddr with
             | Some m -> m
             | None -> Discover.all_flags_mask
           in
           (* A faulting fused consumer (cmov/setcc with a bad or misaligned
              memory operand) is reconstructed and re-translated starting at
              its own address, where it reads the producer's flags from
              canonic state: those flags must be materialized, not only
              folded into the fused predicate. *)
           let mask =
             let _, consumer = insns.(k + 1) in
             if Ia32.Insn.may_fault consumer then
               mask lor Discover.mask_of_flags (Ia32.Insn.flags_use consumer)
             else mask
           in
           let extra =
             List.filter
               (fun f -> mask land Discover.flag_bit f <> 0)
               defs
           in
           Plan_fuse (c, extra)
         | None -> if live = [] then Plan_none else Plan_set live);
    skip_plan := false;
    (match ctx.plan with Plan_fuse _ -> skip_plan := true | _ -> ());
    (* the IA-32 state register protocol: record the source IP before any
       potentially faulty sequence, plus an FP snapshot for reconstruction *)
    if Ia32.Insn.may_fault insn then begin
      emit ctx (I.Movi (Regs.r_state, Int64.of_int addr));
      stop ctx;
      let snap =
        if ctx.uses_mmx then
          { (Block.identity_snapshot ~entry_tos:0) with
            Block.s_set_valid = ctx.mmx_exit_tag;
            Block.s_written = ctx.mmx_written;
            Block.s_mmx = true }
        else Block.snapshot_of_fpmap ctx.fp
      in
      let snap = { snap with Block.s_xmm_fmt = Array.copy ctx.xmm_fmt } in
      Hashtbl.replace fp_recovery addr snap
    end;
    (try Templates.emit_insn ctx insn
     with Fpmap.Static_fault ->
       (* the block's own FP code is statically guaranteed to stack-fault:
          raise it precisely and stop translating the block *)
       ctx.guest_fault ctx 16;
       raise Stop_block);
    stop ctx;
    env.acct.Account.cold_insns <- env.acct.Account.cold_insns + 1
  done;
  (* fallthrough exits *)
  (match bb.Discover.term with
  | Discover.T_jcc (_, _, fall) -> ctx.goto ctx fall
  | Discover.T_fallthrough next -> ctx.goto ctx next
  | Discover.T_jmp _ | Discover.T_call _ | Discover.T_indirect
  | Discover.T_syscall _ | Discover.T_fault ->
    ())
  with Stop_block -> ());
  (* block head: entry checks + instrumentation, prepended *)
  let head = Cgen.create () in
  let hctx, _ = make_ctx env head ~block_id:id ~entry_tos ~stage2 ~ma_base
      ~edge_slot:(Ipf.Machine.counter_slot entry) ~is_cond in
  (* speculation checks use the body's accumulated requirements *)
  let hctx =
    { hctx with
      fp = ctx.fp;
      uses_mmx = ctx.uses_mmx }
  in
  Array.blit ctx.xmm_entry 0 hctx.xmm_entry 0 8;
  if env.config.mmx_mode_speculation then begin
    if ctx.uses_mmx then emit_mode_check hctx ~block_id:id ~mmx:true
    else if ctx.fp.Fpmap.used then emit_mode_check hctx ~block_id:id ~mmx:false
  end;
  if env.config.fp_stack_speculation then begin
    if ctx.uses_mmx then begin
      (* MMX accesses are absolute: require canonic parking *)
      emit_park_check hctx ~block_id:id;
      env.acct.Account.tos_checks <- env.acct.Account.tos_checks + 1
    end
    else begin
      emit_fp_entry_check hctx ~block_id:id;
      if ctx.fp.Fpmap.used then
        env.acct.Account.tos_checks <- env.acct.Account.tos_checks + 1
    end
  end;
  if env.config.sse_format_speculation then emit_sse_entry_check hctx ~block_id:id;
  (* use counter + heat trigger — also in interpret-first mode, where cold
     blocks exist only as fallbacks for failed hot translations and must
     still be able to re-heat *)
  if env.config.two_phase then begin
    (* one saturating counter slot: the Hotc uop bumps the hashed slot and
       leaves with [Heat id] at the threshold *)
    emit hctx
      (I.Hotc (Ipf.Machine.counter_slot entry, env.config.heat_threshold, id));
    stop hctx
  end;
  Cgen.prepend cg head;
  let tstart, tlen, _tags = Cgen.lower cg env.tcache in
  let block =
    {
      Block.id;
      entry;
      kind = Block.Cold;
      tstart;
      tlen;
      insns;
      code_end = bb.Discover.next;
      span = Block.capture_span env.mem ~lo:entry ~hi:bb.Discover.next;
      ma_base;
      n_accesses = n_acc;
      entry_tos;
      sse_entry = Array.copy ctx.xmm_entry;
      fp_recovery;
      commit_maps = [||];
      bundle_commit = [||];
      misalign_stage = (if stage2 then 2 else 1);
      live = true;
      registered = 0;
    }
  in
  Block.register env.cache block;
  (* watch the source pages so stores into them trigger SMC detection *)
  Block.watch env.mem block;
  env.acct.Account.cold_blocks <- env.acct.Account.cold_blocks + 1;
  if stage2 then env.acct.Account.cold_regens <- env.acct.Account.cold_regens + 1;
  block
