(** Machine-readable metrics snapshots.

    A snapshot is a schema name plus ordered sections of ordered
    (key, value) pairs. The same snapshot renders as stable JSON
    ([to_string], [write]), grouped human text ([pp_text]), or a flat
    counter list ([counters]) for fuzzer coverage steering.

    JSON is hand-rolled — writer plus a minimal parser used by the
    smoke validator — because the build carries no JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : ?pretty:bool -> json -> string
(** [pretty] defaults to [true] (2-space indent, trailing newline). *)

val escape : Buffer.t -> string -> unit
(** [escape buf s] appends [s] as the body of a JSON string literal (no
    quotes), escaping the quote, the backslash and control characters. *)

val parse : string -> (json, string) result
(** Minimal recursive-descent JSON parser. Rejects trailing garbage.
    [\uXXXX] escapes decode to UTF-8 without surrogate recombination. *)

val member : string -> json -> json option
(** [member k (Obj _)] looks up field [k]; [None] on other variants. *)

type t

val make : schema:string -> t
val section : t -> string -> (string * json) list -> unit
(** Append a named section. Order of calls is preserved in output. *)

val sections : t -> (string * (string * json) list) list

val to_json : t -> json
(** [Obj] with a leading ["schema"] field followed by one field per
    section. *)

val to_string : t -> string
val write : t -> out_channel -> unit

val counters : t -> (string * int) list
(** Integer fields of the ["counters"] section (empty if absent). *)

val pp_text : Format.formatter -> t -> unit
(** Grouped human rendering, used by [ia32el-run --stats]. *)
