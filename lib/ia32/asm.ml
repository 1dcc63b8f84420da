(* Small assembler DSL used to author guest IA-32 programs (workloads,
   tests, examples). Multi-section, label-based, resolved to real machine
   code by {!Encode} via fixpoint iteration (instruction lengths can depend
   on label values through immediate-width selection). *)

type item =
  | Ins of Insn.insn
  | Ins_lab of string * (int -> Insn.insn) (* built once the label is known *)
  | Label of string
  | Raw of string (* literal bytes *)
  | Raw_lab of string * (int -> string) (* label-dependent bytes, fixed length *)
  | Align of int
  | Space of int

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---- combinators ------------------------------------------------------ *)

let i insn = Ins insn
let label name = Label name
let raw s = Raw s
let align n = Align n
let space n = Space n

let jmp name = Ins_lab (name, fun a -> Insn.Jmp a)
let jcc c name = Ins_lab (name, fun a -> Insn.Jcc (c, a))
let call name = Ins_lab (name, fun a -> Insn.Call a)
let mov_ri_lab r name = Ins_lab (name, fun a -> Insn.Mov (Insn.S32, Insn.R r, Insn.I a))

(* Build any instruction from a label address. *)
let with_lab name f = Ins_lab (name, f)

let db v = Raw (String.make 1 (Char.chr (Word.mask8 v)))

let dw v =
  Raw (String.init 2 (fun k -> Char.chr ((Word.mask16 v lsr (8 * k)) land 0xFF)))

let dd v =
  Raw (String.init 4 (fun k -> Char.chr ((Word.mask32 v lsr (8 * k)) land 0xFF)))

let dq v =
  Raw
    (String.init 8 (fun k ->
         Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)))

let df32 f = dd (Fpconv.bits_of_f32 f)
let df64 f = dq (Fpconv.bits_of_f64 f)

(* A data dword holding the address of a label (e.g. a jump table entry). *)
let dd_lab name =
  Raw_lab
    ( name,
      fun a ->
        String.init 4 (fun k -> Char.chr ((Word.mask32 a lsr (8 * k)) land 0xFF)) )

(* ---- assembly --------------------------------------------------------- *)

type section = { base : int; items : item list }

let section ~base items = { base; items }

(* Length of an item under a given label environment. *)
let item_parts lookup addr = function
  | Ins insn -> Encode.encode ~ip:addr insn
  | Ins_lab (name, f) -> Encode.encode ~ip:addr (f (lookup name))
  | Label _ -> ""
  | Raw s -> s
  | Raw_lab (name, f) -> f (lookup name)
  | Align n ->
    let pad = (n - (addr mod n)) mod n in
    String.make pad '\x90'
  | Space n -> String.make n '\000'

(* Resolve labels by fixpoint: immediate/displacement width selection makes
   lengths depend on label values. *)
let resolve_labels sections =
  let env = Hashtbl.create 64 in
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some a -> a
    | None -> 0x01000000 (* large dummy: forces wide forms initially *)
  in
  let pass () =
    let changed = ref false in
    List.iter
      (fun { base; items } ->
        let addr = ref base in
        List.iter
          (fun item ->
            (match item with
            | Label name ->
              if Hashtbl.find_opt env name <> Some !addr then begin
                Hashtbl.replace env name !addr;
                changed := true
              end
            | _ -> ());
            addr := !addr + String.length (item_parts lookup !addr item))
          items)
      sections;
    !changed
  in
  let rec iterate n =
    if n = 0 then err "assembler: label resolution did not converge";
    if pass () then iterate (n - 1)
  in
  iterate 16;
  env

(* [assemble sections] resolves all labels across sections and returns the
   bytes of each section (in order) plus the label table. *)
let assemble_env sections =
  let env = resolve_labels sections in
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some a -> a
    | None -> err "assembler: undefined label %S" name
  in
  let emit { base; items } =
    let buf = Buffer.create 256 in
    List.iter
      (fun item ->
        Buffer.add_string buf (item_parts lookup (base + Buffer.length buf) item))
      items;
    (base, Buffer.contents buf)
  in
  (List.map emit sections, lookup, env)

let assemble sections =
  let parts, lookup, _env = assemble_env sections in
  (parts, lookup)

(* ---- program images --------------------------------------------------- *)

(* Conventional layout for guest programs: code at 4 MiB, data at 128 MiB,
   stack just below 512 MiB. *)
let default_code_base = 0x00400000
let default_data_base = 0x08000000
let default_stack_top = 0x1FFFF000
let default_stack_size = 0x10000

type image = {
  entry : int;
  code_base : int;
  code : string;
  data_base : int;
  data : string;
  stack_top : int;
  lookup : string -> int;
  labels : (string * int) list; (* every label, sorted by address *)
}

let build ~code ~data () =
  let parts, lookup, env =
    assemble_env
      [
        section ~base:default_code_base code;
        section ~base:default_data_base data;
      ]
  in
  let labels =
    Hashtbl.fold (fun name addr acc -> (name, addr) :: acc) env []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare a b with 0 -> compare na nb | c -> c)
  in
  match parts with
  | [ (_, code_bytes); (_, data_bytes) ] ->
    {
      entry = lookup "start";
      code_base = default_code_base;
      code = code_bytes;
      data_base = default_data_base;
      data = data_bytes;
      stack_top = default_stack_top;
      lookup;
      labels;
    }
  | _ -> assert false

(* Map an image into guest memory and initialise a machine state at its
   entry point. Code pages are mapped read+execute unless [writable_code]. *)
let load ?(writable_code = false) image mem =
  let round_up n = (n + Memory.page_size - 1) land lnot (Memory.page_size - 1) in
  let code_prot = if writable_code then Memory.prot_rwx else Memory.prot_rx in
  Memory.map mem ~addr:image.code_base
    ~len:(round_up (max 1 (String.length image.code)))
    ~prot:code_prot;
  Memory.load_bytes mem image.code_base image.code;
  if String.length image.data > 0 then begin
    Memory.map mem ~addr:image.data_base
      ~len:(round_up (String.length image.data))
      ~prot:Memory.prot_rw;
    Memory.load_bytes mem image.data_base image.data
  end;
  Memory.map mem
    ~addr:(image.stack_top - default_stack_size)
    ~len:(default_stack_size + Memory.page_size)
    ~prot:Memory.prot_rw;
  let st = State.create mem in
  st.State.eip <- image.entry;
  State.set32 st Insn.Esp image.stack_top;
  st
