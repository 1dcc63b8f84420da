(* Virtual-cycle sampling profiler.

   Driven by the engine's deterministic clock: the engine polls [due]
   from its charge probe / commit points and calls [record] whenever the
   clock has crossed the next sampling boundary. Because the trigger is
   virtual cycles — not host time — the sample stream is a pure function
   of the run, so the folded flamegraph output is byte-identical across
   runs of the same image and config.

   Aggregation is by guest symbol: each sample folds into a
   "tN;symbol;phase[;degraded]" stack key (two frames: thread, then
   symbol annotated with translation phase), which is exactly the
   collapsed-stack format flamegraph.pl / speedscope consume. A second
   table keyed by block entry EIP feeds the per-entry sample-share
   column in the --profile top-N table. *)

type t = {
  interval : int;
  labels : (int * string) array;  (* sorted by address, ascending *)
  mutable next : int;  (* clock value of the next sample boundary *)
  mutable taken : int;
  buckets : (string, int ref) Hashtbl.t;
  entries : (int, int ref) Hashtbl.t;
}

let create ~interval ~labels =
  if interval <= 0 then invalid_arg "Sample.create: interval must be > 0";
  let labels =
    let a = Array.of_list (List.map (fun (name, addr) -> (addr, name)) labels) in
    Array.sort (fun (a, _) (b, _) -> compare a b) a;
    a
  in
  {
    interval;
    labels;
    next = interval;
    taken = 0;
    buckets = Hashtbl.create 64;
    entries = Hashtbl.create 64;
  }

let interval t = t.interval
let samples t = t.taken
let bucket_count t = Hashtbl.length t.buckets

let due t ~now = now >= t.next

(* Greatest label at or below [eip], if it is within 64 KiB — same
   attribution window the --profile renderer uses. Unlabelled addresses
   aggregate by 4 KiB page so stripped regions still bucket sanely. *)
let symbol_of t eip =
  let n = Array.length t.labels in
  if n = 0 then Printf.sprintf "0x%x" (eip land lnot 0xfff)
  else begin
    let lo = ref 0 and hi = ref n in
    (* invariant: labels below !lo are <= eip, labels at/after !hi are > eip *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let addr, _ = t.labels.(mid) in
      if addr <= eip then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then Printf.sprintf "0x%x" (eip land lnot 0xfff)
    else
      let addr, name = t.labels.(!lo - 1) in
      if eip - addr < 0x10000 then name
      else Printf.sprintf "0x%x" (eip land lnot 0xfff)
  end

let bump tbl key w =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + w
  | None -> Hashtbl.add tbl key (ref w)

let record t ~now ~tid ~eip ~entry ~phase ~degraded =
  (* Weight by the number of boundaries crossed since the last poll, so
     a long charge (e.g. a translation burst) counts proportionally. *)
  let w = ref 0 in
  while t.next <= now do
    t.next <- t.next + t.interval;
    incr w
  done;
  if !w > 0 then begin
    t.taken <- t.taken + !w;
    let key =
      Printf.sprintf "t%d;%s;%s%s" tid (symbol_of t eip) phase
        (if degraded then ";degraded" else "")
    in
    bump t.buckets key !w;
    bump t.entries entry !w
  end

let entry_samples t entry =
  match Hashtbl.find_opt t.entries entry with Some r -> !r | None -> 0

let sorted_buckets t =
  let rows = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.buckets [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

(* Collapsed-stack output: "stack;frames count" lines, sorted by stack
   key so the file is byte-identical across runs. *)
let folded t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, n) -> Buffer.add_string b (Printf.sprintf "%s %d\n" k n))
    (sorted_buckets t);
  Buffer.contents b

let write_folded t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (folded t))

let top n t =
  let rows = sorted_buckets t in
  let rows =
    List.sort
      (fun (ka, na) (kb, nb) ->
        if na <> nb then compare nb na else String.compare ka kb)
      rows
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take n rows

let render_top ?(top_n = 10) ppf t =
  if t.taken = 0 then Fmt.pf ppf "no samples taken@."
  else begin
    Fmt.pf ppf "%d samples every %d cycles (%d buckets)@." t.taken t.interval
      (bucket_count t);
    Fmt.pf ppf "%8s  %6s  %s@." "samples" "share" "region";
    List.iter
      (fun (k, n) ->
        Fmt.pf ppf "%8d  %5.1f%%  %s@." n
          (100.0 *. float_of_int n /. float_of_int t.taken)
          k)
      (top top_n t)
  end
