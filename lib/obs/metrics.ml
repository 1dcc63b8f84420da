(* Machine-readable metrics snapshots. A snapshot is a named schema plus
   an ordered list of sections, each an ordered list of (key, json)
   pairs — stable field order keeps emitted JSON diffable across runs.
   The same snapshot renders three ways: JSON export ([to_string],
   [write]), grouped human text ([pp_text], used by `ia32el-run --stats`),
   and the flat counter list ([counters]) that steers fuzzer coverage.

   JSON is hand-rolled (writer and a minimal parser) because the build
   environment deliberately carries no JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* ---- writer ----------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_to_json f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    Printf.sprintf "%.17g" f

let rec write_json buf ~indent ~level j =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_to_json f)
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        write_json buf ~indent ~level:(level + 1) item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf (if indent then "\": " else "\":");
        write_json buf ~indent ~level:(level + 1) v)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let json_to_string ?(pretty = true) j =
  let buf = Buffer.create 1024 in
  write_json buf ~indent:pretty ~level:0 j;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- minimal recursive-descent parser --------------------------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "bad \\u escape"
          in
          (* Decode the code point as UTF-8. Surrogate pairs are not
             recombined — sufficient for validating our own output,
             which never emits them. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
          end
        | _ -> fail "bad escape");
        loop ())
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.contains tok '.' || String.contains tok 'e'
       || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ---- snapshots -------------------------------------------------------- *)

type t = {
  schema : string;
  mutable sections : (string * (string * json) list) list; (* reversed *)
}

let make ~schema = { schema; sections = [] }

let section t name fields = t.sections <- (name, fields) :: t.sections

let sections t = List.rev t.sections

let to_json t =
  Obj
    (("schema", Str t.schema)
    :: List.map (fun (name, fields) -> (name, Obj fields)) (sections t))

let to_string t = json_to_string (to_json t)

let write t oc = output_string oc (to_string t)

let counters t =
  match List.assoc_opt "counters" (sections t) with
  | None -> []
  | Some fields ->
    List.filter_map
      (fun (k, v) -> match v with Int n -> Some (k, n) | _ -> None)
      fields

let pp_value ppf = function
  | Null -> Fmt.string ppf "-"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.pf ppf "%.2f" f
  | Str s -> Fmt.string ppf s
  | (List _ | Obj _) as j -> Fmt.string ppf (json_to_string ~pretty:false j)

let pp_text ppf t =
  Fmt.pf ppf "schema: %s@." t.schema;
  List.iter
    (fun (name, fields) ->
      Fmt.pf ppf "%s:@." name;
      List.iter
        (fun (k, v) -> Fmt.pf ppf "  %-24s %a@." k pp_value v)
        fields)
    (sections t)
