(* IPF bundles: three instruction slots plus a template that fixes the
   functional-unit kind of each slot, with stop bits delimiting instruction
   groups.

   Model deviations from real IPF (documented in DESIGN.md): stop bits are
   allowed after any slot (real templates restrict positions), and [Movi]
   (movl) occupies one slot but is charged double width by the cost model
   (real MLX uses two slots). *)

type template = MII | MMI | MFI | MMF | MIB | MBB | BBB | MMB | MFB

let template_kinds = function
  | MII -> Insn.[ M; I; I ]
  | MMI -> Insn.[ M; M; I ]
  | MFI -> Insn.[ M; F; I ]
  | MMF -> Insn.[ M; M; F ]
  | MIB -> Insn.[ M; I; B ]
  | MBB -> Insn.[ M; B; B ]
  | BBB -> Insn.[ B; B; B ]
  | MMB -> Insn.[ M; M; B ]
  | MFB -> Insn.[ M; F; B ]

let all_templates = [ MII; MMI; MFI; MMF; MIB; MBB; BBB; MMB; MFB ]

let template_name = function
  | MII -> "MII" | MMI -> "MMI" | MFI -> "MFI" | MMF -> "MMF" | MIB -> "MIB"
  | MBB -> "MBB" | BBB -> "BBB" | MMB -> "MMB" | MFB -> "MFB"

type t = {
  template : template;
  slots : Insn.t array; (* length 3 *)
  stops : bool array; (* length 3; stops.(i) ends a group after slot i *)
}

(* Chaining and invalidation patch tcache bundles in place, so a bundle
   kept aside (a persisted translation, a killed block's code) needs
   arrays of its own. *)
let copy b = { b with slots = Array.copy b.slots; stops = Array.copy b.stops }

(* A unit kind may occupy a slot: ALU (I-kind) instructions also fit M slots
   (real A-type instructions), but true M-unit operations need an M slot. *)
let kind_fits ~slot ~insn =
  match (slot, insn) with
  | Insn.M, Insn.M | Insn.I, Insn.I | Insn.F, Insn.F | Insn.B, Insn.B -> true
  | Insn.M, Insn.I -> true (* A-type: ALU goes in M or I *)
  | _ -> false

exception Invalid of string

let check b =
  let kinds = template_kinds b.template in
  if Array.length b.slots <> 3 || Array.length b.stops <> 3 then
    raise (Invalid "bundle must have 3 slots");
  List.iteri
    (fun i k ->
      let u = Insn.unit_of b.slots.(i).Insn.sem in
      let ok =
        match b.slots.(i).Insn.sem with
        | Insn.Nop _ -> true (* nops are re-typed to the slot *)
        | _ -> kind_fits ~slot:k ~insn:u
      in
      if not ok then
        raise
          (Invalid
             (Printf.sprintf "slot %d of %s cannot hold %s" i
                (template_name b.template)
                (Insn.to_string b.slots.(i)))))
    kinds

let nop_for kind = Insn.mk (Insn.Nop kind)

(* Make a bundle from at most 3 instructions in program order, padding with
   nops. For each template we greedily place the instructions left to right
   in the first slots they fit, keeping their order; unused slots become
   nops of the slot's kind. A trailing stop is placed when [stop_end]. *)
let make ?(stop_end = false) insns =
  if List.length insns > 3 then raise (Invalid "more than 3 instructions");
  let try_template t =
    let kinds = Array.of_list (template_kinds t) in
    let slots = Array.init 3 (fun i -> nop_for kinds.(i)) in
    let rec place slot = function
      | [] -> Some slots
      | insn :: rest ->
        if slot >= 3 then None
        else if kind_fits ~slot:kinds.(slot) ~insn:(Insn.unit_of insn.Insn.sem)
        then begin
          slots.(slot) <- insn;
          place (slot + 1) rest
        end
        else place (slot + 1) (insn :: rest)
    in
    place 0 insns |> Option.map (fun slots -> (t, slots))
  in
  let rec first = function
    | [] -> raise (Invalid "no template for instruction kinds")
    | t :: rest -> ( match try_template t with Some r -> r | None -> first rest)
  in
  let template, slots = first all_templates in
  let stops = Array.make 3 false in
  if stop_end then stops.(2) <- true;
  let b = { template; slots; stops } in
  check b;
  b
