(* x87 FPU model: eight physical registers organised as a stack through the
   TOP-of-stack pointer, a TAG word, condition-code bits, and the MMX
   registers aliased onto the physical registers' significands.

   Substitution note (see DESIGN.md): values are OCaml 64-bit floats rather
   than 80-bit extended reals. The aliased MMX view keeps its own 64-bit
   integer image which is refreshed from the float bits on FP writes, so the
   aliasing semantics are deterministic and identical between the reference
   interpreter and the translator. *)

type tag = Valid | Empty

type t = {
  fval : float array; (* physical register file, indices 0-7 *)
  ival : int64 array; (* aliased MMX view of the significands *)
  tags : tag array;
  mutable top : int;
  mutable c0 : bool;
  mutable c1 : bool;
  mutable c2 : bool;
  mutable c3 : bool;
}

let create () =
  {
    fval = Array.make 8 0.0;
    ival = Array.make 8 0L;
    tags = Array.make 8 Empty;
    top = 0;
    c0 = false;
    c1 = false;
    c2 = false;
    c3 = false;
  }

let phys t i = (t.top + i) land 7

let stack_fault () = raise (Fault.Fault Fault.Fp_stack_fault)

(* Reading ST(i) faults when the entry is empty (stack underflow). *)
let get t i =
  let p = phys t i in
  match t.tags.(p) with
  | Valid -> t.fval.(p)
  | Empty -> stack_fault ()

(* Writing ST(i): the entry must already be allocated (Valid). *)
let set t i v =
  let p = phys t i in
  (match t.tags.(p) with Valid -> () | Empty -> stack_fault ());
  t.fval.(p) <- v;
  t.ival.(p) <- Int64.bits_of_float v

(* Push: the incoming physical slot must be Empty (else stack overflow). *)
let push t v =
  let p = (t.top - 1) land 7 in
  (match t.tags.(p) with Empty -> () | Valid -> stack_fault ());
  t.top <- p;
  t.tags.(p) <- Valid;
  t.fval.(p) <- v;
  t.ival.(p) <- Int64.bits_of_float v

let pop t =
  let p = t.top in
  (match t.tags.(p) with Valid -> () | Empty -> stack_fault ());
  t.tags.(p) <- Empty;
  t.top <- (p + 1) land 7

let free t i = t.tags.(phys t i) <- Empty

let incstp t = t.top <- (t.top + 1) land 7
let decstp t = t.top <- (t.top - 1) land 7

let fxch t i =
  let p0 = phys t 0 and pi = phys t i in
  (match (t.tags.(p0), t.tags.(pi)) with
  | Valid, Valid -> ()
  | _ -> stack_fault ());
  let f = t.fval.(p0) and v = t.ival.(p0) in
  t.fval.(p0) <- t.fval.(pi);
  t.ival.(p0) <- t.ival.(pi);
  t.fval.(pi) <- f;
  t.ival.(pi) <- v

(* Compare ST(0) with [v]; sets C3/C2/C0 like FCOM. *)
let compare_with t v =
  let a = get t 0 in
  if Float.is_nan a || Float.is_nan v then begin
    t.c3 <- true; t.c2 <- true; t.c0 <- true
  end
  else if a > v then begin t.c3 <- false; t.c2 <- false; t.c0 <- false end
  else if a < v then begin t.c3 <- false; t.c2 <- false; t.c0 <- true end
  else begin t.c3 <- true; t.c2 <- false; t.c0 <- false end;
  t.c1 <- false

(* FNSTSW AX image: C0=bit8, C1=bit9, C2=bit10, TOP=bits 11-13, C3=bit14. *)
let status_word t =
  (if t.c0 then 0x100 else 0)
  lor (if t.c1 then 0x200 else 0)
  lor (if t.c2 then 0x400 else 0)
  lor (t.top lsl 11)
  lor if t.c3 then 0x4000 else 0

(* IA-32 tag word: 2 bits per physical register; we model Valid=00 Empty=11. *)
let tag_word t =
  let w = ref 0 in
  for i = 7 downto 0 do
    w := (!w lsl 2) lor (match t.tags.(i) with Valid -> 0 | Empty -> 3)
  done;
  !w

(* ---- MMX aliased view ------------------------------------------------ *)

(* Any MMX instruction (except EMMS) sets TOP to 0 and marks every entry
   Valid, per the IA-32 aliasing rules. *)
let mmx_touch t =
  t.top <- 0;
  Array.fill t.tags 0 8 Valid

let mmx_get t i =
  mmx_touch t;
  t.ival.(i land 7)

let mmx_set t i v =
  mmx_touch t;
  t.ival.(i land 7) <- v;
  (* The FP view of an MMX write is a NaN-like pattern (exponent all ones). *)
  t.fval.(i land 7) <- Float.nan

let emms t =
  Array.fill t.tags 0 8 Empty;
  t.top <- 0

(* ---- structural operations ------------------------------------------ *)

let copy t =
  {
    fval = Array.copy t.fval;
    ival = Array.copy t.ival;
    tags = Array.copy t.tags;
    top = t.top;
    c0 = t.c0;
    c1 = t.c1;
    c2 = t.c2;
    c3 = t.c3;
  }

(* Equality for differential tests: float values compared by bits, but only
   on Valid entries; NaN FP views of MMX writes compare equal through the
   integer image. *)
let equal a b =
  a.top = b.top
  && a.c0 = b.c0 && a.c1 = b.c1 && a.c2 = b.c2 && a.c3 = b.c3
  && Array.for_all2 ( = ) a.tags b.tags
  &&
  let ok = ref true in
  for i = 0 to 7 do
    if a.tags.(i) = Valid then
      if not (Int64.equal a.ival.(i) b.ival.(i)) then ok := false
  done;
  !ok

(* ST(i)-relative equality: the physical TOP may legitimately differ
   between two correct executions (a TOS-speculation recovery physically
   rotates one side's register file); what must agree is the logical stack
   the guest sees. *)
let logical_equal a b =
  a.c0 = b.c0 && a.c1 = b.c1 && a.c2 = b.c2 && a.c3 = b.c3
  &&
  let ok = ref true in
  for i = 0 to 7 do
    let pa = (a.top + i) land 7 and pb = (b.top + i) land 7 in
    if a.tags.(pa) <> b.tags.(pb) then ok := false
    else if a.tags.(pa) = Valid && not (Int64.equal a.ival.(pa) b.ival.(pb))
    then ok := false
  done;
  !ok

let pp ppf t =
  Fmt.pf ppf "top=%d tags=[%s] cc=%d%d%d%d"
    t.top
    (String.concat ""
       (List.map (function Valid -> "v" | Empty -> "." ) (Array.to_list t.tags)))
    (Bool.to_int t.c3) (Bool.to_int t.c2) (Bool.to_int t.c1) (Bool.to_int t.c0);
  for i = 0 to 7 do
    if t.tags.(i) = Valid then Fmt.pf ppf " r%d=%h" i t.fval.(i)
  done
