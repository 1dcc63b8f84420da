(* Shared helpers for authoring synthetic guest workloads in the assembler
   DSL. All workloads use the linuxsim system-call convention. *)

open Ia32.Insn
module A = Ia32.Asm

let a32 = A.i

(* exit(0) *)
let exit0 =
  [ a32 (Mov (S32, R Eax, I 1)); a32 (Mov (S32, R Ebx, I 0)); a32 (Int_n 0x80) ]

(* kernel_work(n): spend n cycles in the (natively executing) OS kernel *)
let kernel_work n =
  [
    a32 (Push (R Eax));
    a32 (Push (R Ebx));
    a32 (Mov (S32, R Eax, I 200));
    a32 (Mov (S32, R Ebx, I n));
    a32 (Int_n 0x80);
    a32 (Pop (R Ebx));
    a32 (Pop (R Eax));
  ]

(* idle(n) *)
let idle n =
  [
    a32 (Push (R Eax));
    a32 (Push (R Ebx));
    a32 (Mov (S32, R Eax, I 158));
    a32 (Mov (S32, R Ebx, I n));
    a32 (Int_n 0x80);
    a32 (Pop (R Ebx));
    a32 (Pop (R Eax));
  ]

(* counted loop on a register: reg runs n..1 *)
let counted name reg n body =
  [ a32 (Mov (S32, R reg, I n)); A.label name ]
  @ body
  @ [ a32 (Dec (S32, R reg)); A.jcc Ne name ]

(* counted loop with the counter in memory (keeps all registers free) *)
let counted_mem name ctr_label n body =
  [ A.with_lab ctr_label (fun a -> Mov (S32, M (mem_abs a), I n)); A.label name ]
  @ body
  @ [
      A.with_lab ctr_label (fun a -> Dec (S32, M (mem_abs a)));
      A.jcc Ne name;
    ]

(* A workload: name plus an image builder. [scale] stretches the run
   length; [wide] selects the LP64-flavoured variant used by the native
   baseline (bigger data, 64-bit-native idioms). *)
type t = {
  name : string;
  build : scale:int -> wide:bool -> A.image;
  (* the paper's reported EL-vs-native score for this benchmark (Figure 5),
     in percent; None when the paper gives no per-benchmark number *)
  paper_score : int option;
}

let build_image code data =
  A.build ~code:(A.label "start" :: (code @ exit0)) ~data ()

let lcg_next = [ (* eax = eax * 1103515245 + 12345 *)
    a32 (Imul_rri (Eax, R Eax, 1103515245));
    a32 (Alu (Add, S32, R Eax, I 12345));
  ]
