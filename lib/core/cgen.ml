(* Code-generation buffer: collects IPF instructions in groups (stop-bit
   boundaries) with local labels, then lowers them into bundles appended to
   the translation cache. Local branch targets become bundle indices; a
   label always starts a fresh bundle because branch targets are
   bundle-aligned. *)

type item =
  | I of Ipf.Insn.t * int (* instruction, tag (commit-region id; -1 = none) *)
  | Stop (* close the current instruction group *)
  | Lbl of int (* local label id *)

(* Catenation tree over items, stored in REVERSED program order (the
   newest item is the leftmost leaf). O(1) emit and O(1) prepend; lowering
   flattens once. The old representation was a reversed list whose
   [prepend] copied the whole body ([items @ head.items]) — quadratic when
   a translation session prepends heads to ever-growing buffers. *)
type seq = Nil | One of item | Cat of seq * seq

type t = {
  mutable items : seq; (* reversed *)
  mutable next_label : int;
}

let create () = { items = Nil; next_label = 0 }

let new_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let emit ?(tag = -1) t insn =
  t.items <- Cat (One (I (insn, tag)), t.items)

let stop t = t.items <- Cat (One Stop, t.items)

let bind t l = t.items <- Cat (One (Lbl l), t.items)

(* Prepend previously generated items (used to put block-head checks in
   front of an already generated body). In reversed storage the head's
   items come after the body's. Label ids stay per-buffer, so the merged
   counter takes the max to keep future labels fresh. *)
let prepend t (head : t) =
  t.items <- Cat (t.items, head.items);
  t.next_label <- max t.next_label head.next_label

(* Flatten a reversed seq into a forward (program-order) item list.
   [reverse (flatten (Cat (a, b))) = reverse b @ reverse a], so the deep
   right spine produced by repeated [emit] is consumed by tail calls;
   non-tail depth is bounded by the number of [prepend]s. *)
let rec rev_flatten s acc =
  match s with
  | Nil -> acc
  | One x -> x :: acc
  | Cat (a, b) -> rev_flatten b (rev_flatten a acc)

(* Branch-target placeholder: local labels are encoded as [To (-1 - l)]
   during generation and fixed up at lowering time. *)
let local l = Ipf.Insn.To (-1 - l)

(* ------------------------------------------------------------------ *)
(* Lowering into the translation cache                                 *)
(* ------------------------------------------------------------------ *)

(* Packs items into bundles:
   - a bundle holds at most 3 slots and never spans a Stop or a label;
   - branches terminate their bundle (IPF-ish: we keep it simple);
   - labels bind to the next bundle index.
   Returns [(first_bundle, n_bundles, bundle_tags)]; [bundle_tags.(k)] is
   the commit tag covering bundle [first_bundle + k] (carried forward from
   the last tagged instruction). *)
let lower t tcache =
  let items = rev_flatten t.items [] in
  (* first pass: split into bundles of (insns, stop_end) plus label binds *)
  let bundles = ref [] in (* reversed: (insn list, stop, tag) *)
  let labels = Hashtbl.create 8 in
  let cur = ref [] in
  let cur_tag = ref (-1) in
  let last_tag = ref (-1) in
  let nbundles = ref 0 in
  let flush stop_end =
    if !cur <> [] then begin
      let tag = if !cur_tag >= 0 then !cur_tag else !last_tag in
      bundles := (List.rev !cur, stop_end, tag) :: !bundles;
      if tag >= 0 then last_tag := tag;
      incr nbundles;
      cur := [];
      cur_tag := -1
    end
    else if stop_end then begin
      (* a stop with an empty bundle: mark the previous bundle *)
      match !bundles with
      | (is, _, tg) :: rest -> bundles := (is, true, tg) :: rest
      | [] -> ()
    end
  in
  let is_br i =
    match i.Ipf.Insn.sem with
    | Ipf.Insn.Br _ | Ipf.Insn.Br_ind _ -> true
    (* a check that branches to a local label must end its bundle (local
       targets are bundle indices); one that exits to the runtime can
       share a bundle like any other instruction *)
    | Ipf.Insn.Chk_s (_, Ipf.Insn.To _) | Ipf.Insn.Chk_a (_, Ipf.Insn.To _) ->
      true
    | _ -> false
  in
  let fits insns =
    match Ipf.Bundle.make insns with
    | _ -> true
    | exception Ipf.Bundle.Invalid _ -> false
  in
  List.iter
    (fun item ->
      match item with
      | Stop -> flush true
      | Lbl l ->
        flush false;
        Hashtbl.replace labels l !nbundles
      | I (insn, tag) ->
        (* a commit-region change forces a fresh bundle so faults map to
           the right recovery map *)
        if tag >= 0 && !cur_tag >= 0 && tag <> !cur_tag then flush false;
        let attempt = List.rev (insn :: !cur) in
        if List.length attempt <= 3 && fits attempt then cur := insn :: !cur
        else begin
          flush false;
          cur := [ insn ]
        end;
        if tag >= 0 && !cur_tag < 0 then cur_tag := tag;
        if is_br insn then flush true)
    items;
  flush true;
  let bundle_specs = List.rev !bundles in
  (* second pass: fix local targets and append *)
  let start = Ipf.Tcache.length tcache in
  let fix_target = function
    | Ipf.Insn.To n when n < 0 -> (
      let l = -1 - n in
      match Hashtbl.find_opt labels l with
      | Some rel -> Ipf.Insn.To (start + rel)
      | None ->
        Bt_error.fail ~component:"cgen"
          ~detail:(Printf.sprintf "label %d" l)
          "lower: unbound local label")
    | t -> t
  in
  let fix_insn i =
    let sem =
      match i.Ipf.Insn.sem with
      | Ipf.Insn.Br tg -> Ipf.Insn.Br (fix_target tg)
      | Ipf.Insn.Chk_s (r, tg) -> Ipf.Insn.Chk_s (r, fix_target tg)
      | Ipf.Insn.Chk_a (r, tg) -> Ipf.Insn.Chk_a (r, fix_target tg)
      | s -> s
    in
    { i with Ipf.Insn.sem }
  in
  let tags = ref [] in
  List.iter
    (fun (insns, stop_end, tag) ->
      let insns = List.map fix_insn insns in
      ignore (Ipf.Tcache.append tcache (Ipf.Bundle.make ~stop_end insns));
      tags := tag :: !tags)
    bundle_specs;
  (start, Ipf.Tcache.length tcache - start, Array.of_list (List.rev !tags))
