(* Differential tests: every program runs both on the reference interpreter
   (golden model) and under the IA-32 EL translator on the IPF machine; the
   final architectural states, memory, and exception behaviour must match.
   Plus targeted tests for the engine mechanisms (chaining, heat counters,
   misalignment stages, SMC, speculation recoveries, precise exceptions). *)

open Ia32
open Ia32el

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Differential runner                                                  *)
(* ------------------------------------------------------------------ *)

(* Epilogue: dump registers + eflags to [dump], then exit(0). *)
let epilogue =
  let open Asm in
  let open Insn in
  List.concat
    [
      List.mapi
        (fun k r ->
          with_lab "dump" (fun a -> Mov (S32, M (mem_abs (a + (4 * k))), R r)))
        [ Eax; Ecx; Edx; Ebx; Esp; Ebp; Esi; Edi ];
      [
        i Pushfd;
        with_lab "dump" (fun a -> Pop (M (mem_abs (a + 32))));
        i (Mov (S32, R Eax, I 1));
        i (Mov (S32, R Ebx, I 0));
        i (Int_n 0x80);
      ];
    ]

let dump_space = Asm.[ label "dump"; space 64 ]

(* Logical x87 equality: the translator's TOS-rotation recovery can leave
   the stack at a different absolute TOP with identical ST(i) contents;
   that difference is only observable through FNSTSW's TOP field, which the
   paper's recovery also accepts (see DESIGN.md). Now lives in the ia32
   library so the lockstep vehicle shares it. *)
let fpu_logical_equal = Fpu.logical_equal

type side = {
  outcome : [ `Exit of int | `Fault of Fault.t ];
  st : State.t;
  data_bytes : string;
  stack_bytes : string;
}

let data_len image = max 64 (String.length image.Asm.data + 64)

let run_ref ?(writable_code = false) image =
  let mem = Memory.create () in
  let st = Asm.load ~writable_code image mem in
  let vos = Btlib.Vos.create mem in
  match Refvehicle.run ~fuel:2_000_000 ~btlib:(module Btlib.Linuxsim) vos st with
  | Refvehicle.Exited (code, st), _ ->
    {
      outcome = `Exit code;
      st;
      data_bytes = Memory.dump_bytes mem image.Asm.data_base (data_len image);
      stack_bytes = Memory.dump_bytes mem (image.Asm.stack_top - 256) 256;
    }
  | Refvehicle.Unhandled_fault (f, st), _ ->
    {
      outcome = `Fault f;
      st;
      data_bytes = Memory.dump_bytes mem image.Asm.data_base (data_len image);
      stack_bytes = Memory.dump_bytes mem (image.Asm.stack_top - 256) 256;
    }
  | Refvehicle.Out_of_fuel, _ -> Alcotest.fail "reference: out of fuel"

let run_el ?(writable_code = false) ?(config = Config.cold_only) image =
  let mem = Memory.create () in
  let st = Asm.load ~writable_code image mem in
  let eng = Engine.create ~config ~btlib:(module Btlib.Linuxsim) mem in
  match Engine.run ~fuel:20_000_000 eng st with
  | Engine.Exited (code, st) ->
    ( {
        outcome = `Exit code;
        st;
        data_bytes = Memory.dump_bytes mem image.Asm.data_base (data_len image);
        stack_bytes = Memory.dump_bytes mem (image.Asm.stack_top - 256) 256;
      },
      eng )
  | Engine.Unhandled_fault (f, st) ->
    ( {
        outcome = `Fault f;
        st;
        data_bytes = Memory.dump_bytes mem image.Asm.data_base (data_len image);
        stack_bytes = Memory.dump_bytes mem (image.Asm.stack_top - 256) 256;
      },
      eng )
  | Engine.Out_of_fuel -> Alcotest.fail "engine: out of fuel"

let hex_diff name a b =
  if a <> b then begin
    let n = min (String.length a) (String.length b) in
    let k = ref (-1) in
    for i = n - 1 downto 0 do
      if a.[i] <> b.[i] then k := i
    done;
    Alcotest.failf "%s differs at offset %d: ref %02x vs el %02x" name !k
      (Char.code a.[!k]) (Char.code b.[!k])
  end

let compare_sides ?(compare_flags = true) name (r : side) (e : side) =
  (match (r.outcome, e.outcome) with
  | `Exit a, `Exit b -> check int (name ^ ": exit code") a b
  | `Fault a, `Fault b ->
    check bool
      (Printf.sprintf "%s: faults match (%s vs %s)" name (Fault.to_string a)
         (Fault.to_string b))
      true (Fault.equal a b)
  | `Exit _, `Fault f ->
    Alcotest.failf "%s: ref exited but el faulted with %s" name (Fault.to_string f)
  | `Fault f, `Exit _ ->
    Alcotest.failf "%s: ref faulted with %s but el exited" name (Fault.to_string f));
  hex_diff (name ^ ": data") r.data_bytes e.data_bytes;
  hex_diff (name ^ ": stack") r.stack_bytes e.stack_bytes;
  check int (name ^ ": eip") r.st.State.eip e.st.State.eip;
  List.iter
    (fun reg ->
      check int
        (Printf.sprintf "%s: %s" name (Insn.reg_name reg))
        (State.get32 r.st reg) (State.get32 e.st reg))
    Insn.all_regs;
  if compare_flags then begin
    check bool (name ^ ": cf") r.st.State.cf e.st.State.cf;
    check bool (name ^ ": zf") r.st.State.zf e.st.State.zf;
    check bool (name ^ ": sf") r.st.State.sf e.st.State.sf;
    check bool (name ^ ": of") r.st.State.of_ e.st.State.of_;
    check bool (name ^ ": pf") r.st.State.pf e.st.State.pf;
    check bool (name ^ ": af") r.st.State.af e.st.State.af;
    check bool (name ^ ": df") r.st.State.df e.st.State.df
  end;
  check bool (name ^ ": fpu") true (fpu_logical_equal r.st.State.fpu e.st.State.fpu);
  for k = 0 to 7 do
    check bool
      (Printf.sprintf "%s: xmm%d" name k)
      true
      (State.get_xmm r.st k = State.get_xmm e.st k)
  done

let diff ?writable_code ?config ?compare_flags name code data =
  let image =
    Asm.build ~code:(Asm.label "start" :: (code @ epilogue)) ~data:(data @ dump_space) ()
  in
  let r = run_ref ?writable_code image in
  let e, _ = run_el ?writable_code ?config image in
  compare_sides ?compare_flags name r e

(* also run with the two-phase config to exercise hot paths later *)
let diff_both ?writable_code ?compare_flags name code data =
  diff ?writable_code ~config:Config.cold_only ?compare_flags name code data;
  diff ?writable_code ~config:Config.default ?compare_flags
    (name ^ " (two-phase)") code data

(* ------------------------------------------------------------------ *)
(* Program library                                                     *)
(* ------------------------------------------------------------------ *)

let a32 = Asm.i
let open_insn = ()
let _ = open_insn

(* capture all six arithmetic flags into memory after the preceding op *)
let capture_flags tag =
  let open Asm in
  let open Insn in
  List.concat
    (List.mapi
       (fun k c ->
         [ with_lab "flags" (fun a -> Setcc (c, M (mem_abs (a + (8 * tag) + k)))) ])
       [ O; B; E; S; P; Ae ])

let flags_space = Asm.[ label "flags"; space 256 ]

let int_programs =
  let open Asm in
  let open Insn in
  [
    ( "add carry/overflow matrix",
      List.concat
        [
          [ a32 (Mov (S32, R Eax, I 0xFFFFFFFF)); a32 (Alu (Add, S32, R Eax, I 1)) ];
          capture_flags 0;
          [ a32 (Mov (S32, R Ebx, I 0x7FFFFFFF)); a32 (Alu (Add, S32, R Ebx, I 1)) ];
          capture_flags 1;
          [ a32 (Mov (S32, R Ecx, I 5)); a32 (Alu (Add, S32, R Ecx, I (-7 land 0xFFFFFFFF))) ];
          capture_flags 2;
        ],
      flags_space );
    ( "sub/sbb/adc chains",
      List.concat
        [
          [
            a32 (Mov (S32, R Eax, I 3));
            a32 (Mov (S32, R Edx, I 10));
            a32 (Alu (Sub, S32, R Eax, I 5));
          ];
          capture_flags 0;
          [ a32 (Alu (Sbb, S32, R Edx, I 2)) ];
          capture_flags 1;
          [ a32 (Alu (Adc, S32, R Edx, I 0xFFFFFFFF)) ];
          capture_flags 2;
          [ a32 (Alu (Cmp, S32, R Edx, R Eax)) ];
          capture_flags 3;
        ],
      flags_space );
    ( "logic ops and AF",
      List.concat
        [
          [
            a32 (Mov (S32, R Eax, I 0xF0F0F0F0));
            a32 (Alu (And, S32, R Eax, I 0xFF00FF00));
          ];
          capture_flags 0;
          [ a32 (Alu (Xor, S32, R Eax, R Eax)) ];
          capture_flags 1;
          [ a32 (Mov (S32, R Ebx, I 0x80000000)); a32 (Alu (Or, S32, R Ebx, I 1)) ];
          capture_flags 2;
          [ a32 (Test (S32, R Ebx, I 0x80000000)) ];
          capture_flags 3;
        ],
      flags_space );
    ( "inc/dec/neg flag preservation",
      List.concat
        [
          [
            a32 (Mov (S32, R Eax, I 0xFFFFFFFF));
            a32 (Alu (Add, S32, R Eax, I 1)); (* CF=1 *)
            a32 (Inc (S32, R Eax));
          ];
          capture_flags 0;
          (* CF must still be 1 *)
          [ a32 (Dec (S32, R Eax)); a32 (Dec (S32, R Eax)) ];
          capture_flags 1;
          [ a32 (Mov (S32, R Ecx, I 7)); a32 (Neg (S32, R Ecx)) ];
          capture_flags 2;
          [ a32 (Mov (S32, R Edx, I 0)); a32 (Neg (S32, R Edx)) ];
          capture_flags 3;
          [ a32 (Not (S32, R Ecx)) ];
        ],
      flags_space );
    ( "8/16-bit subregisters",
      [
        a32 (Mov (S32, R Eax, I 0x11223344));
        a32 (Mov (S8, R Esp (* ah *), I 0xAA));
        a32 (Alu (Add, S8, R Eax (* al *), I 0x77));
        a32 (Mov (S32, R Ebx, I 0xDEAD0000));
        a32 (Alu (Add, S16, R Ebx, I 0xBEEF));
        a32 (Movzx (S8, Ecx, R Esp));
        a32 (Movsx (S8, Edx, R Esp));
        a32 (Movzx (S16, Esi, R Ebx));
        a32 (Movsx (S16, Edi, R Ebx));
      ],
      [] );
    ( "shifts immediate",
      List.concat
        [
          [ a32 (Mov (S32, R Eax, I 0x80000001)); a32 (Shift (Shl, S32, R Eax, Amt_imm 1)) ];
          capture_flags 0;
          [ a32 (Mov (S32, R Ebx, I 0x80000000)); a32 (Shift (Sar, S32, R Ebx, Amt_imm 4)) ];
          capture_flags 1;
          [ a32 (Mov (S32, R Ecx, I 0x12345678)); a32 (Shift (Ror, S32, R Ecx, Amt_imm 8)) ];
          capture_flags 2;
          [ a32 (Mov (S32, R Edx, I 0x12345678)); a32 (Shift (Rol, S32, R Edx, Amt_imm 4)) ];
          capture_flags 3;
          [ a32 (Mov (S32, R Esi, I 0xFF)); a32 (Shift (Shr, S32, R Esi, Amt_imm 3)) ];
          capture_flags 4;
          [ a32 (Mov (S16, R Edi, I 0x8001)); a32 (Shift (Shl, S16, R Edi, Amt_imm 1)) ];
          capture_flags 5;
        ],
      flags_space );
    ( "shifts by cl including zero",
      List.concat
        [
          [
            a32 (Mov (S32, R Eax, I 0xABCD1234));
            a32 (Mov (S32, R Ecx, I 0)); (* zero count: flags unchanged *)
            a32 (Alu (Cmp, S32, R Eax, R Eax)); (* set ZF *)
            a32 (Shift (Shl, S32, R Eax, Amt_cl));
          ];
          capture_flags 0;
          [
            a32 (Mov (S32, R Ecx, I 36)); (* masked to 4 *)
            a32 (Shift (Shr, S32, R Eax, Amt_cl));
          ];
          capture_flags 1;
          [ a32 (Mov (S32, R Ecx, I 31)); a32 (Shift (Sar, S32, R Eax, Amt_cl)) ];
          capture_flags 2;
          [
            a32 (Mov (S32, R Eax, I 0x12345678));
            a32 (Mov (S32, R Ecx, I 12));
            a32 (Shift (Rol, S32, R Eax, Amt_cl));
          ];
          capture_flags 3;
        ],
      flags_space );
    ( "shld/shrd",
      List.concat
        [
          [
            a32 (Mov (S32, R Eax, I 0x12345678));
            a32 (Mov (S32, R Ebx, I 0x9ABCDEF0));
            a32 (Shld (R Eax, Ebx, Amt_imm 8));
          ];
          capture_flags 0;
          [
            a32 (Mov (S32, R Ecx, I 4));
            a32 (Shrd (R Ebx, Eax, Amt_cl));
          ];
          capture_flags 1;
        ],
      flags_space );
    ( "mul/imul/div/idiv",
      List.concat
        [
          [
            a32 (Mov (S32, R Eax, I 123456));
            a32 (Mov (S32, R Ebx, I 789));
            a32 (Mul1 (S32, R Ebx));
          ];
          capture_flags 0;
          [
            a32 (Mov (S32, R Ecx, I 1000));
            a32 (Div (S32, R Ecx));
            a32 (Mov (S32, R Esi, R Eax));
            a32 (Mov (S32, R Edi, R Edx));
            a32 (Mov (S32, R Eax, I (-50000 land 0xFFFFFFFF)));
            a32 Cdq;
            a32 (Mov (S32, R Ecx, I 7));
            a32 (Idiv (S32, R Ecx));
          ];
          [
            a32 (Mov (S32, R Ebx, R Eax));
            a32 (Mov (S32, R Eax, I 0x10000));
            a32 (Imul_rr (Eax, R Eax));
          ];
          capture_flags 1;
          [ a32 (Imul_rri (Edx, R Ebx, 100)) ];
          capture_flags 2;
          [
            a32 (Mov (S32, R Eax, I 0xFF));
            a32 (Mov (S8, R Ebx, I 16));
            a32 (Mul1 (S8, R Ebx));
          ];
          [
            a32 (Mov (S16, R Eax, I 30000));
            a32 (Mov (S16, R Edx, I 0));
            a32 (Mov (S16, R Ecx, I 256));
            a32 (Div (S16, R Ecx));
          ];
        ],
      flags_space );
    ( "lea forms",
      [
        a32 (Mov (S32, R Ebx, I 0x1000));
        a32 (Mov (S32, R Ecx, I 0x20));
        a32 (Lea (Eax, Insn.mem_full Ebx Ecx 4 0x12));
        a32 (Lea (Edx, Insn.mem_bd Ebx (-8)));
        a32 (Lea (Esi, { base = None; index = Some (Ecx, 8); disp = 0x100 }));
        a32 (Lea (Edi, Insn.mem_b Ebx));
      ],
      [] );
    ( "memory addressing and rmw",
      [
        mov_ri_lab Ebx "buf";
        a32 (Mov (S32, M (Insn.mem_b Ebx), I 0x11111111));
        a32 (Mov (S32, M (Insn.mem_bd Ebx 4), I 0x22222222));
        a32 (Alu (Add, S32, M (Insn.mem_b Ebx), I 0x11));
        a32 (Mov (S32, R Ecx, I 1));
        a32 (Alu (Sub, S32, M { base = Some Ebx; index = Some (Ecx, 4); disp = 0 }, I 2));
        a32 (Inc (S32, M (Insn.mem_b Ebx)));
        a32 (Shift (Shl, S32, M (Insn.mem_bd Ebx 4), Amt_imm 1));
        a32 (Xchg (S32, M (Insn.mem_b Ebx), Ecx));
        a32 (Mov (S8, M (Insn.mem_bd Ebx 9), I 0x5A));
        a32 (Mov (S16, M (Insn.mem_bd Ebx 12), I 0xBEEF));
      ],
      Asm.[ label "buf"; space 32 ] );
    ( "fib via call/ret",
      [
        a32 (Mov (S32, R Eax, I 10));
        call "fib";
        jmp "done";
        label "fib";
        (* fib(eax) -> ebx iteratively *)
        a32 (Mov (S32, R Ebx, I 0));
        a32 (Mov (S32, R Ecx, I 1));
        label "floop";
        a32 (Test (S32, R Eax, R Eax));
        jcc E "fdone";
        a32 (Mov (S32, R Edx, R Ebx));
        a32 (Alu (Add, S32, R Edx, R Ecx));
        a32 (Mov (S32, R Ebx, R Ecx));
        a32 (Mov (S32, R Ecx, R Edx));
        a32 (Dec (S32, R Eax));
        jmp "floop";
        label "fdone";
        a32 (Ret 0);
        label "done";
      ],
      [] );
    ( "jump table",
      [
        a32 (Mov (S32, R Ecx, I 1));
        with_lab "table" (fun a ->
            Jmp_ind (M { base = None; index = Some (Ecx, 4); disp = a }));
        label "case0";
        a32 (Mov (S32, R Eax, I 100));
        jmp "out";
        label "case1";
        a32 (Mov (S32, R Eax, I 200));
        jmp "out";
        label "out";
      ],
      Asm.[ label "table"; dd_lab "case0"; dd_lab "case1" ] );
    ( "setcc/cmov battery",
      List.concat
        (List.map
           (fun (k, c) ->
             [
               a32 (Mov (S32, R Eax, I 5));
               a32 (Alu (Cmp, S32, R Eax, I 9));
               with_lab "flags" (fun a -> Setcc (c, M (mem_abs (a + k))));
               a32 (Mov (S32, R Edx, I 0));
               a32 (Cmovcc (c, Edx, R Eax));
               with_lab "flags" (fun a -> Mov (S32, M (mem_abs (a + 64 + (4 * k))), R Edx));
             ])
           (List.mapi (fun k c -> (k, c))
              [ O; No; B; Ae; E; Ne; Be; A; S; Ns; P; Np; L; Ge; Le; G ])),
      flags_space );
    ( "string ops",
      [
        mov_ri_lab Esi "src";
        mov_ri_lab Edi "dst";
        a32 (Mov (S32, R Ecx, I 4));
        a32 Cld;
        a32 (Movs (S32, Rep));
        mov_ri_lab Edi "dst2";
        a32 (Mov (S32, R Eax, I 0xAB));
        a32 (Mov (S32, R Ecx, I 7));
        a32 (Stos (S8, Rep));
        mov_ri_lab Esi "src";
        a32 (Lods (S16, No_rep));
        a32 (Mov (S32, R Ebp, R Eax));
        (* scasb for the 'o' in "hello" *)
        mov_ri_lab Edi "src";
        a32 (Mov (S32, R Ecx, I 16));
        a32 (Mov (S8, R Eax, I (Char.code 'o')));
        a32 (Scas (S8, Repne));
        (* backward copy *)
        a32 Std;
        mov_ri_lab Esi "src";
        a32 (Alu (Add, S32, R Esi, I 15));
        mov_ri_lab Edi "dst3";
        a32 (Alu (Add, S32, R Edi, I 15));
        a32 (Mov (S32, R Ecx, I 16));
        a32 (Movs (S8, Rep));
        a32 Cld;
      ],
      Asm.
        [
          label "src";
          raw "hello world!!...";
          label "dst";
          space 16;
          label "dst2";
          space 8;
          label "dst3";
          space 16;
        ] );
    ( "pushfd/popfd",
      [
        a32 (Alu (Cmp, S32, R Eax, R Eax));
        a32 Pushfd;
        a32 (Alu (Add, S32, R Eax, I 1));
        a32 (Alu (Cmp, S32, R Eax, I 999));
        a32 Popfd;
      ],
      [] );
    ( "push pop variants",
      [
        a32 (Mov (S32, R Eax, I 0x1234));
        a32 (Push (R Eax));
        a32 (Push (I 0x77));
        mov_ri_lab Ebx "buf";
        a32 (Push (M (Insn.mem_b Ebx)));
        a32 (Pop (R Ecx));
        a32 (Pop (M (Insn.mem_bd Ebx 4)));
        a32 (Pop (R Edx));
      ],
      Asm.[ label "buf"; dd 0xFEEDFACE; space 12 ] );
  ]

let x87_programs =
  let open Asm in
  let open Insn in
  [
    ( "x87 basic arithmetic",
      [
        with_lab "a" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        with_lab "b" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp (Fop_st0_st (FAdd, 1)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, false)));
        a32 (Fp (Fop_st_st0 (FMul, 1, true)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 8), true)));
      ],
      [ label "a"; df64 1.5; label "b"; df64 2.25; label "out"; space 16 ] );
    ( "x87 fxch patterns",
      [
        a32 (Fp Fld1);
        a32 (Fp Fldz);
        with_lab "c" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp (Fxch 2));
        a32 (Fp (Fop_st0_st (FSub, 1)));
        a32 (Fp (Fxch 1));
        a32 (Fp (Fop_st_st0 (FDiv, 2, false)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, true)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 8), true)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 16), true)));
      ],
      [ label "c"; df64 8.0; label "out"; space 24 ] );
    ( "fild/fist rounding",
      [
        with_lab "n" (fun a -> Fp (Fild (I32, mem_abs a)));
        with_lab "half" (fun a -> Fp (Fop_m (FAdd, F64, mem_abs a)));
        with_lab "out" (fun a -> Fp (Fist_m (I32, mem_abs a, true)));
        with_lab "n2" (fun a -> Fp (Fild (I16, mem_abs a)));
        a32 (Fp Fchs);
        with_lab "out" (fun a -> Fp (Fist_m (I16, mem_abs (a + 4), true)));
      ],
      [
        label "n"; dd 7; label "n2"; dw 123; Asm.align 4;
        label "half"; df64 0.5; label "out"; space 8;
      ] );
    ( "fcom + fnstsw + branch",
      [
        with_lab "a" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        with_lab "b" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp (Fcom_st (1, 2))); (* fcompp: compare b with a, pop both *)
        a32 (Fp Fnstsw_ax);
        a32 (Test (S8, R Esp (* ah *), I 0x45));
        jcc E "greater";
        a32 (Mov (S32, R Ebx, I 111));
        jmp "end";
        label "greater";
        a32 (Mov (S32, R Ebx, I 222));
        label "end";
      ],
      [ label "a"; df64 2.0; label "b"; df64 5.0 ] );
    ( "x87 stack spanning blocks",
      [
        a32 (Fp Fldz);
        a32 (Mov (S32, R Ecx, I 5));
        label "loop";
        with_lab "inc" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp (Fop_st_st0 (FAdd, 1, true)));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, true)));
      ],
      [ label "inc"; df64 1.25; label "out"; space 8 ] );
    ( "fsqrt/fabs/fchs/frndint",
      [
        with_lab "a" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp Fsqrt);
        a32 (Fp Fchs);
        a32 (Fp Fabs);
        with_lab "r" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp Frndint);
        a32 (Fp (Fop_st0_st (FMul, 1)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, true)));
        with_lab "out" (fun a -> Fp (Fst_m (F32, mem_abs (a + 8), true)));
      ],
      [ label "a"; df64 16.0; label "r"; df64 2.5; label "out"; space 16 ] );
    ( "ffree/fincstp bookkeeping",
      [
        a32 (Fp Fld1);
        a32 (Fp Fldz);
        a32 (Fp (Ffree 1));
        a32 (Fp Fincstp);
        a32 (Fp Fld1); (* reuses the freed slot *)
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, true)));
      ],
      [ label "out"; space 8 ] );
  ]

(* Fault generators and indirect calls: the outcomes (not just happy
   paths) must match the interpreter exactly. *)
let fault_and_indirect_programs =
  let open Asm in
  let open Insn in
  [
    ( "hlt raises #GP",
      [ a32 (Mov (S32, R Eax, I 7)); a32 Hlt; a32 (Inc (S32, R Eax)) ],
      [] );
    ( "ud2 raises #UD",
      [ a32 (Mov (S32, R Eax, I 7)); a32 Ud2; a32 (Inc (S32, R Eax)) ],
      [] );
    ( "indirect call through a function table",
      [
        mov_ri_lab Esi "ftab";
        a32 (Mov (S32, R Eax, I 0));
        a32 (Mov (S32, R Ecx, I 3));
        label "cloop";
        a32 (Mov (S32, R Ebx, R Ecx));
        a32 (Alu (And, S32, R Ebx, I 1));
        a32 (Call_ind (M { base = Some Esi; index = Some (Ebx, 4); disp = 0 }));
        a32 (Dec (S32, R Ecx));
        jcc Ne "cloop";
        jmp "cdone";
        label "f0";
        a32 (Alu (Add, S32, R Eax, I 100));
        a32 (Ret 0);
        label "f1";
        a32 (Alu (Add, S32, R Eax, I 1));
        a32 (Ret 0);
        label "cdone";
      ],
      [ label "ftab"; dd_lab "f0"; dd_lab "f1" ] );
  ]

let x87_extra_programs =
  let open Asm in
  let open Insn in
  [
    ( "x87 constants, register moves and compares",
      [
        a32 (Fp Fldpi);
        a32 (Fp (Fld_st 0)); (* dup pi *)
        with_lab "c" (fun a -> Fp (Fop_m (FMul, F64, mem_abs a)));
        a32 (Fp (Fst_st (1, false))); (* st1 := st0 *)
        with_lab "c" (fun a -> Fp (Fcom_m (F64, mem_abs a, 0)));
        a32 (Fp Fnstsw_ax);
        a32 (Mov (S32, R Ebx, R Eax));
        with_lab "c" (fun a -> Fp (Fcom_m (F64, mem_abs (a + 8), 1)));
        a32 (Fp Fnstsw_ax);
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, true)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 8), true)));
      ],
      [ label "c"; df64 2.0; df64 100.0; label "out"; space 16 ] );
    ( "fincstp/fdecstp wraparound",
      [
        a32 (Fp Fld1);
        a32 (Fp Fldz);
        a32 (Fp Fdecstp); (* TOS moves to an empty slot *)
        a32 (Fp Fincstp);
        a32 (Fp Fincstp); (* now at the 1.0 entry *)
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs a, false)));
        a32 (Fp Fdecstp);
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 8), true)));
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 16), true)));
      ],
      [ label "out"; space 24 ] );
  ]

let mmx_sse_programs =
  let open Asm in
  let open Insn in
  [
    ( "mmx logicals and shifts",
      [
        with_lab "a" (fun a -> Mmx (Movq_to_mm (0, MMem (mem_abs a))));
        with_lab "b" (fun a -> Mmx (Movq_to_mm (1, MMem (mem_abs a))));
        a32 (Mmx (Pand (0, MM 1)));
        with_lab "a" (fun a -> Mmx (Por (0, MMem (mem_abs a))));
        a32 (Mmx (Psub (2, 1, MM 0)));
        a32 (Mmx (Psrl (2, 1, 5)));
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (mem_abs a), 0)));
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (mem_abs (a + 8)), 1)));
        a32 (Mmx Emms);
      ],
      [
        label "a"; dq 0x00FF00FF12345678L; label "b"; dq 0x0F0F0F0F0F0F0F0FL;
        label "out"; space 16;
      ] );
    ( "sse aligned and scalar-double moves",
      [
        with_lab "a" (fun a -> Sse (Movaps (XM 0, XMem (mem_abs a))));
        a32 (Sse (Movaps (XM 1, XM 0)));
        with_lab "b" (fun a -> Sse (Movsd_x (XM 1, XMem (mem_abs a))));
        a32 (Sse (Movsd_x (XM 2, XM 1)));
        a32 (Sse (Sse_arith (SAdd, Packed_single, 0, XM 0)));
        with_lab "out" (fun a -> Sse (Movaps (XMem (mem_abs a), XM 0)));
        with_lab "out" (fun a -> Sse (Movups (XMem (mem_abs (a + 16)), XM 1)));
        with_lab "out" (fun a -> Sse (Movsd_x (XMem (mem_abs (a + 32)), XM 2)));
      ],
      [
        label "a"; df32 1.0; df32 2.0; df32 3.0; df32 4.0;
        label "b"; df64 9.5; df64 0.0;
        label "out"; space 48;
      ] );
    ( "mmx lanes",
      [
        with_lab "a" (fun a -> Mmx (Movq_to_mm (0, MMem (mem_abs a))));
        with_lab "b" (fun a -> Mmx (Movq_to_mm (1, MMem (mem_abs a))));
        a32 (Mmx (Padd (2, 0, MM 1)));
        a32 (Mmx (Pmullw (1, MM 0)));
        a32 (Mmx (Pxor (2, MM 2)));
        a32 (Mmx (Pcmpeq (4, 2, MM 2)));
        a32 (Mmx (Psll (2, 0, 3)));
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (mem_abs a), 0)));
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (mem_abs (a + 8)), 1)));
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (mem_abs (a + 16)), 2)));
        a32 (Mmx (Movd_to_mm (3, R Eax)));
        a32 (Mmx (Movd_from_mm (R Ebx, 3)));
        a32 (Mmx Emms);
      ],
      [
        label "a"; dq 0x0001000200030004L; label "b"; dq 0x0010002000300040L;
        label "out"; space 24;
      ] );
    ( "fp then mmx then fp (mode switches)",
      [
        a32 (Fp Fld1);
        with_lab "t" (fun a -> Fp (Fst_m (F64, mem_abs a, true)));
        jmp "mmxpart";
        label "mmxpart";
        with_lab "a" (fun a -> Mmx (Movq_to_mm (0, MMem (mem_abs a))));
        a32 (Mmx (Padd (4, 0, MM 0)));
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (mem_abs a), 0)));
        jmp "fppart";
        label "fppart";
        a32 (Fp (Ffree 0)) (* free the slot the MMX write validated *);
        a32 (Fp Fincstp);
        a32 (Fp Fldz);
        with_lab "out" (fun a -> Fp (Fst_m (F64, mem_abs (a + 8), true)));
      ],
      [ label "a"; dq 0x1111111122222222L; label "t"; space 8; label "out"; space 16 ]
    );
    ( "sse packed single arithmetic",
      [
        with_lab "a" (fun a -> Sse (Movups (XM 0, XMem (mem_abs a))));
        with_lab "b" (fun a -> Sse (Movups (XM 1, XMem (mem_abs a))));
        a32 (Sse (Sse_arith (SAdd, Packed_single, 0, XM 1)));
        a32 (Sse (Sse_arith (SMul, Packed_single, 1, XM 0)));
        a32 (Sse (Sqrtps (2, XM 1)));
        a32 (Sse (Sse_arith (SMin, Packed_single, 2, XM 0)));
        a32 (Sse (Sse_arith (SMax, Packed_single, 0, XM 1)));
        with_lab "out" (fun a -> Sse (Movups (XMem (mem_abs a), XM 0)));
        with_lab "out" (fun a -> Sse (Movups (XMem (mem_abs (a + 16)), XM 2)));
      ],
      [
        label "a"; df32 1.0; df32 4.0; df32 9.0; df32 16.0;
        label "b"; df32 0.5; df32 1.5; df32 2.5; df32 3.5;
        label "out"; space 32;
      ] );
    ( "sse scalar + conversions",
      [
        a32 (Mov (S32, R Eax, I 42));
        a32 (Sse (Cvtsi2ss (0, R Eax)));
        with_lab "b" (fun a -> Sse (Movss (XM 1, XMem (mem_abs a))));
        a32 (Sse (Sse_arith (SDiv, Scalar_single, 0, XM 1)));
        a32 (Sse (Cvtss2sd (2, XM 0)));
        a32 (Sse (Sse_arith (SAdd, Scalar_double, 2, XM 2)));
        a32 (Sse (Cvtsd2ss (3, XM 2)));
        a32 (Sse (Cvttss2si (Ebx, XM 3)));
        with_lab "out" (fun a -> Sse (Movss (XMem (mem_abs a), XM 3)));
      ],
      [ label "b"; df32 4.0; label "out"; space 16 ] );
    ( "sse bitwise and packed int (format dance)",
      [
        with_lab "a" (fun a -> Sse (Movups (XM 0, XMem (mem_abs a))));
        a32 (Sse (Sse_arith (SAdd, Packed_single, 0, XM 0))); (* ps format *)
        with_lab "m" (fun a -> Sse (Andps (0, XMem (mem_abs a)))); (* -> int *)
        a32 (Sse (Paddd_x (0, XM 0)));
        a32 (Sse (Xorps (1, XM 1))); (* zero idiom *)
        a32 (Sse (Orps (1, XM 0)));
        a32 (Sse (Psubd_x (0, XM 1)));
        with_lab "out" (fun a -> Sse (Movups (XMem (mem_abs a), XM 0)));
        with_lab "out" (fun a -> Sse (Movups (XMem (mem_abs (a + 16)), XM 1)));
      ],
      [
        label "a"; df32 1.0; df32 2.0; df32 3.0; df32 4.0;
        label "m"; dd 0xFFFFFFFF; dd 0xFFFF0000; dd 0x0000FFFF; dd 0xFFFFFFFF;
        label "out"; space 32;
      ] );
    ( "ucomiss branching",
      [
        with_lab "a" (fun a -> Sse (Movss (XM 0, XMem (mem_abs a))));
        with_lab "b" (fun a -> Sse (Movss (XM 1, XMem (mem_abs a))));
        a32 (Sse (Ucomiss (0, XM 1)));
        jcc B "less";
        a32 (Mov (S32, R Ebx, I 1));
        jmp "end";
        label "less";
        a32 (Mov (S32, R Ebx, I 2));
        label "end";
        a32 (Sse (Ucomiss (1, XM 0)));
        with_lab "flags" (fun a -> Setcc (B, M (mem_abs a)));
        with_lab "flags" (fun a -> Setcc (E, M (mem_abs (a + 1))));
        with_lab "flags" (fun a -> Setcc (P, M (mem_abs (a + 2))));
      ],
      ([ label "a"; df32 1.5; label "b"; df32 2.5 ] @ flags_space) );
  ]

let misalign_programs =
  let open Asm in
  let open Insn in
  [
    ( "fused flags consumer faults (regression)",
      (* a cmov whose memory operand is misaligned regenerates mid-block and
         re-reads the producer's flags from canonic state: fusion must still
         materialize them (neg.w -> cmovg [misaligned]; sbb kills the flags
         afterwards so plain liveness would drop them) *)
      [
        mov_ri_lab Esi "fbuf";
        a32 (Mov (S32, R Eax, I 0x12345678));
        a32 (Mov (S32, R Ecx, I 0x0000000D));
        a32 (Mov (S32, R Ebp, I 0x00000101));
        a32 (Neg (S16, R Ebp));
        a32 (Cmovcc (G, Ecx, M { base = Some Esi; index = None; disp = 0x1f }));
        a32 (Alu (Sbb, S16, R Eax, M { base = Some Esi; index = None; disp = 0x10 }));
        a32 (Cmovcc (S, Ecx, M { base = Some Esi; index = None; disp = 0x2d }));
        a32 (Setcc (A, M { base = Some Esi; index = None; disp = 0x31 }));
      ],
      [ label "fbuf"; space 64 ] );
    ( "misaligned loads and stores",
      [
        mov_ri_lab Ebx "buf";
        a32 (Alu (Add, S32, R Ebx, I 1)); (* odd address *)
        a32 (Mov (S32, M (Insn.mem_b Ebx), I 0xCAFEBABE));
        a32 (Mov (S32, R Ecx, M (Insn.mem_b Ebx)));
        a32 (Mov (S16, M (Insn.mem_bd Ebx 5), I 0x1234));
        a32 (Mov (S32, R Edx, M (Insn.mem_bd Ebx 3)));
        (* run it in a loop so regeneration kicks in *)
        a32 (Mov (S32, R Esi, I 20));
        label "mloop";
        a32 (Alu (Add, S32, M (Insn.mem_b Ebx), I 1));
        a32 (Dec (S32, R Esi));
        jcc Ne "mloop";
      ],
      [ label "buf"; space 32 ] );
    ( "misaligned fp data",
      [
        mov_ri_lab Ebx "buf";
        a32 (Alu (Add, S32, R Ebx, I 4)); (* 4-aligned but not 8 *)
        with_lab "v" (fun a -> Fp (Fld_m (F64, mem_abs a)));
        a32 (Fp (Fst_m (F64, Insn.mem_b Ebx, true)));
        a32 (Fp (Fld_m (F64, Insn.mem_b Ebx)));
        a32 (Fp (Fop_st0_st (FAdd, 0)));
        a32 (Fp (Fst_m (F64, Insn.mem_bd Ebx 8, true)));
      ],
      [ label "v"; df64 3.25; label "buf"; space 32 ] );
  ]

(* ------------------------------------------------------------------ *)
(* Engine-mechanism tests                                              *)
(* ------------------------------------------------------------------ *)

let mechanism_tests =
  let open Asm in
  let open Insn in
  [
    Alcotest.test_case "chaining patches dispatch exits" `Quick (fun () ->
        let code =
          [ label "start"; a32 (Mov (S32, R Eax, I 1)); jmp "b2"; label "b2";
            a32 (Alu (Add, S32, R Eax, I 1)); jmp "b3"; label "b3" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        let _, eng = run_el ~config:Config.cold_only image in
        check bool "chained some branches" true
          (eng.Engine.acct.Account.chain_patches > 0));
    Alcotest.test_case "use counters count" `Quick (fun () ->
        let code =
          [ label "start";
            a32 (Mov (S32, R Eax, I 0));
            a32 (Mov (S32, R Ecx, I 50));
            label "loop";
            a32 (Alu (Add, S32, R Eax, R Ecx));
            a32 (Dec (S32, R Ecx));
            jcc Ne "loop" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        (* the hashed machine table must see the loop block run ~50 times *)
        let mem = Memory.create () in
        let st = Asm.load image mem in
        let eng =
          Engine.create
            ~config:{ Config.default with Config.heat_threshold = 1000 }
            ~btlib:(module Btlib.Linuxsim) mem
        in
        (match Engine.run ~fuel:10_000_000 eng st with
        | Engine.Exited (0, _) -> ()
        | _ -> Alcotest.fail "exit");
        (* find the loop block's counter: it ran 50 times *)
        let hotc = eng.Engine.machine.Ipf.Machine.hotc in
        let found = ref false in
        Hashtbl.iter
          (fun _ b ->
            if hotc.(Ipf.Machine.counter_slot b.Block.entry) >= 49 then
              found := true)
          eng.Engine.cache.Block.by_id;
        check bool "a block executed ~50 times" true !found);
    Alcotest.test_case "heat trigger fires and registers" `Quick (fun () ->
        let code =
          [ label "start";
            a32 (Mov (S32, R Eax, I 0));
            a32 (Mov (S32, R Ecx, I 400));
            label "loop";
            a32 (Alu (Add, S32, R Eax, R Ecx));
            a32 (Dec (S32, R Ecx));
            jcc Ne "loop" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        let mem = Memory.create () in
        let st = Asm.load image mem in
        let eng =
          Engine.create
            ~config:{ Config.default with Config.heat_threshold = 100 }
            ~btlib:(module Btlib.Linuxsim) mem
        in
        (match Engine.run ~fuel:10_000_000 eng st with
        | Engine.Exited (0, _) -> ()
        | _ -> Alcotest.fail "exit");
        check bool "heat triggered" true (eng.Engine.acct.Account.heat_triggers > 0));
    Alcotest.test_case "hot-counter hash aliasing heats only the runner" `Quick
      (fun () ->
        (* Two block entries that share a counter slot: "loop" (runs 60
           times, crosses the threshold) and "dead" (a conditional-branch
           target that never executes). The Hotc pulse embeds the cold
           block's id, so the shared slot must heat exactly the block
           that crossed the threshold — never the alias. The pad before
           "dead" is solved for below so that
           counter_slot(dead) = counter_slot(loop) by construction. *)
        let build pad =
          let code =
            [ label "start";
              a32 (Mov (S32, R Eax, I 0));
              a32 (Mov (S32, R Esi, I 60));
              jmp "loop";
              label "dead"; a32 (Mov (S32, R Eax, I 99)) ]
            @ (if pad > 0 then [ Asm.space pad ] else [])
            @ [ label "loop";
                a32 (Alu (Add, S32, R Eax, I 1));
                a32 (Alu (Cmp, S32, R Esi, I (-1)));
                jcc E "dead" (* never taken: esi stays >= 0 *);
                a32 (Dec (S32, R Esi));
                jcc Ne "loop" ]
            @ epilogue
          in
          Asm.build ~code ~data:dump_space ()
        in
        let slot = Ipf.Machine.counter_slot in
        (* solve the pad between the labels so the slots collide; branch
           encodings can shrink/stretch as distances change, so re-read
           the real addresses and refine until they actually collide *)
        let image = ref (build 0) and pad = ref 0 and rounds = ref 0 in
        let addr l = List.assoc l !image.Asm.labels in
        while slot (addr "loop") <> slot (addr "dead") && !rounds < 8 do
          let la = addr "loop" and da = addr "dead" in
          let q = ref 1 in
          while slot (la + !q) <> slot da && !q < 16384 do incr q done;
          pad := !pad + !q;
          image := build !pad;
          incr rounds
        done;
        let image = !image in
        let la = List.assoc "loop" image.Asm.labels
        and da = List.assoc "dead" image.Asm.labels in
        check bool "constructed a slot collision" true (slot la = slot da);
        let run () =
          let mem = Memory.create () in
          let st = Asm.load image mem in
          let eng =
            Engine.create
              ~config:{ Config.default with Config.heat_threshold = 40 }
              ~btlib:(module Btlib.Linuxsim) mem
          in
          (match Engine.run ~fuel:10_000_000 eng st with
          | Engine.Exited (0, _) -> ()
          | _ -> Alcotest.fail "exit");
          check bool "runner heated" true
            (eng.Engine.acct.Account.heat_triggers > 0);
          (* the alias never ran: it must not even have a block, let
             alone a hot one *)
          check bool "alias block never materialized" true
            (Block.find_entry eng.Engine.cache da = None);
          (* the trigger resets (decays) the shared slot *)
          check bool "hot counter decayed on trigger" true
            (eng.Engine.machine.Ipf.Machine.hotc.(slot la) < 40);
          ( eng.Engine.machine.Ipf.Machine.stats.Ipf.Machine.cycles,
            Array.copy eng.Engine.machine.Ipf.Machine.hotc,
            Array.copy eng.Engine.machine.Ipf.Machine.edgec )
        in
        (* counters are virtual-clock state: bit-identical across runs *)
        check bool "counters identical across runs" true (run () = run ()));
    Alcotest.test_case "edge counters saturate at the ceiling" `Quick
      (fun () ->
        (* Instrumentation lives only in cold translations, so keep the
           block cold (threshold above the trip count): 70k taken
           back-edges then push the edge counter past its 0xFFFF ceiling
           and it must pin there, not wrap, while the hot counter keeps
           the exact execution count. Deterministic across runs. *)
        let code =
          [ label "start";
            a32 (Mov (S32, R Eax, I 0));
            a32 (Mov (S32, R Esi, I 70000));
            label "loop";
            a32 (Alu (Add, S32, R Eax, I 1));
            a32 (Dec (S32, R Esi));
            jcc Ne "loop" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        let la = List.assoc "loop" image.Asm.labels in
        let s = Ipf.Machine.counter_slot la in
        let run () =
          let mem = Memory.create () in
          let st = Asm.load image mem in
          let eng =
            Engine.create
              ~config:{ Config.default with Config.heat_threshold = 100_000 }
              ~btlib:(module Btlib.Linuxsim) mem
          in
          (match Engine.run ~fuel:20_000_000 eng st with
          | Engine.Exited (0, _) -> ()
          | _ -> Alcotest.fail "exit");
          let m = eng.Engine.machine in
          check int "edge counter saturated exactly at the ceiling"
            Ipf.Machine.edgec_saturate
            m.Ipf.Machine.edgec.(s);
          (* 70k entries minus the initial translation-time entry *)
          check int "hot counter kept the exact execution count" 69_999
            m.Ipf.Machine.hotc.(s);
          ( m.Ipf.Machine.stats.Ipf.Machine.cycles,
            Array.copy m.Ipf.Machine.hotc,
            Array.copy m.Ipf.Machine.edgec )
        in
        check bool "counters identical across runs" true (run () = run ()));
    Alcotest.test_case "misalignment stages: detect then avoid" `Quick (fun () ->
        let code =
          [ label "start";
            mov_ri_lab Ebx "buf";
            a32 (Alu (Add, S32, R Ebx, I 2));
            a32 (Mov (S32, R Ecx, I 30));
            label "loop";
            a32 (Alu (Add, S32, M (Insn.mem_b Ebx), I 1));
            a32 (Dec (S32, R Ecx));
            jcc Ne "loop" ]
          @ epilogue
        in
        let image =
          Asm.build ~code ~data:(Asm.[ label "buf"; space 16 ] @ dump_space) ()
        in
        let mem = Memory.create () in
        let st = Asm.load image mem in
        let eng = Engine.create ~config:Config.cold_only ~btlib:(module Btlib.Linuxsim) mem in
        (match Engine.run ~fuel:10_000_000 eng st with
        | Engine.Exited (0, _) -> ()
        | _ -> Alcotest.fail "exit");
        check bool "stage-1 trigger fired" true
          (eng.Engine.acct.Account.misalign_stage1_hits > 0);
        check bool "stage-2 block generated" true
          (eng.Engine.acct.Account.cold_regens > 0);
        check int "value correct" 30
          (Memory.read32 mem (image.Asm.lookup "buf" + 2)));
    Alcotest.test_case "misalignment avoidance off -> OS faults" `Quick (fun () ->
        let code =
          [ label "start";
            mov_ri_lab Ebx "buf";
            a32 (Alu (Add, S32, R Ebx, I 2));
            a32 (Mov (S32, R Ecx, I 5));
            label "loop";
            a32 (Alu (Add, S32, M (Insn.mem_b Ebx), I 1));
            a32 (Dec (S32, R Ecx));
            jcc Ne "loop" ]
          @ epilogue
        in
        let image =
          Asm.build ~code ~data:(Asm.[ label "buf"; space 16 ] @ dump_space) ()
        in
        let mem = Memory.create () in
        let st = Asm.load image mem in
        let eng =
          Engine.create
            ~config:{ Config.cold_only with Config.misalign_avoidance = false }
            ~btlib:(module Btlib.Linuxsim) mem
        in
        (match Engine.run ~fuel:10_000_000 eng st with
        | Engine.Exited (0, _) -> ()
        | _ -> Alcotest.fail "exit");
        check bool "OS-handled misalignment happened" true
          (eng.Engine.acct.Account.misalign_os_faults > 0);
        check int "value still correct" 5
          (Memory.read32 mem (image.Asm.lookup "buf" + 2)));
    Alcotest.test_case "SMC invalidates and re-translates" `Quick (fun () ->
        (* patch the immediate of a later mov, then execute it *)
        let code =
          [ label "start";
            (* run the target once so it gets translated *)
            call "target";
            (* overwrite the imm32 of the mov at target+ (1 byte opcode) *)
            with_lab "target" (fun a ->
                Mov (S32, M (Insn.mem_abs (a + 1)), I 777));
            call "target";
            jmp "end";
            label "target";
            a32 (Mov (S32, R Eax, I 111));
            a32 (Ret 0);
            label "end" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        (* reference *)
        let r = run_ref ~writable_code:true image in
        let e, eng = run_el ~writable_code:true ~config:Config.cold_only image in
        compare_sides "smc" r e;
        (* the register dump (before the exit epilogue) holds the patched
           value in its EAX slot *)
        let dumped_eax =
          let b k = Char.code e.data_bytes.[k] in
          b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
        in
        check int "eax got patched value" 777 dumped_eax;
        check bool "smc invalidation counted" true
          (eng.Engine.acct.Account.smc_invalidations > 0));
    Alcotest.test_case "precise exception: push with bad esp (Table 1)" `Quick
      (fun () ->
        let code =
          [ label "start";
            a32 (Mov (S32, R Esp, I 0x30000000));
            a32 (Mov (S32, R Eax, I 0x1234));
            label "faultpoint";
            a32 (Push (R Eax)) ]
        in
        let image = Asm.build ~code ~data:[] () in
        let mem = Memory.create () in
        let st = Asm.load image mem in
        let eng = Engine.create ~config:Config.cold_only ~btlib:(module Btlib.Linuxsim) mem in
        (match Engine.run ~fuel:1_000_000 eng st with
        | Engine.Unhandled_fault (Fault.Page_fault (a, Fault.Write), fst) ->
          check int "fault addr" 0x2FFFFFFC a;
          check int "esp preserved (correct translation)" 0x30000000
            (State.get32 fst Insn.Esp);
          check int "eip at faulting push" (image.Asm.lookup "faultpoint")
            fst.State.eip
        | _ -> Alcotest.fail "expected unhandled #PF"));
    Alcotest.test_case "guest handler fixes fault and resumes" `Quick (fun () ->
        (* handler maps the missing page via mmap syscall, then retries *)
        let code =
          [ label "start";
            (* register handler for #PF (vector 14) *)
            a32 (Mov (S32, R Eax, I 48));
            a32 (Mov (S32, R Ebx, I 14));
            mov_ri_lab Ecx "handler";
            a32 (Int_n 0x80);
            (* now touch unmapped memory *)
            a32 (Mov (S32, R Edi, I 0x30000000));
            a32 (Mov (S32, M (Insn.mem_b Edi), I 0x5150));
            a32 (Mov (S32, R Edx, M (Insn.mem_b Edi)));
            jmp "end";
            label "handler";
            (* stack: [esp]=addr, [esp+4]=vector, [esp+8]=faulting eip *)
            a32 (Mov (S32, R Eax, I 90)); (* mmap *)
            a32 (Mov (S32, R Ebx, M (Insn.mem_b Esp)));
            a32 (Mov (S32, R Ecx, I 0x1000));
            a32 (Int_n 0x80);
            a32 (Alu (Add, S32, R Esp, I 8));
            a32 (Ret 0);
            label "end" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        let r = run_ref image in
        let e, _ = run_el ~config:Config.cold_only image in
        (* dead flags at the exception are allowed to differ *)
        compare_sides ~compare_flags:false "handler-resume" r e;
        check int "resumed and loaded" 0x5150 (State.get32 e.st Insn.Edx));
    Alcotest.test_case "div by zero delivered to handler" `Quick (fun () ->
        let code =
          [ label "start";
            a32 (Mov (S32, R Eax, I 48));
            a32 (Mov (S32, R Ebx, I 0));
            mov_ri_lab Ecx "handler";
            a32 (Int_n 0x80);
            a32 (Mov (S32, R Eax, I 100));
            a32 (Mov (S32, R Ecx, I 0));
            a32 Cdq;
            a32 (Div (S32, R Ecx));
            label "after";
            jmp "end";
            label "handler";
            (* skip the faulting instruction: replace return eip *)
            a32 (Mov (S32, R Esi, I 0xD1D1));
            mov_ri_lab Ebx "after";
            a32 (Mov (S32, M (Insn.mem_bd Esp 8), R Ebx));
            a32 (Alu (Add, S32, R Esp, I 8));
            a32 (Ret 0);
            label "end" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        let r = run_ref image in
        let e, _ = run_el ~config:Config.cold_only image in
        compare_sides ~compare_flags:false "div0-handler" r e;
        check int "handler ran" 0xD1D1 (State.get32 e.st Insn.Esi));
    Alcotest.test_case "translation-cache flush-on-full" `Quick (fun () ->
        (* a tiny cache limit forces wholesale flushes mid-run; results
           must stay exact and the engine must keep making progress *)
        let code =
          [ label "start"; a32 (Mov (S32, R Eax, I 0));
            a32 (Mov (S32, R Ecx, I 120)); label "loop";
            a32 (Alu (Add, S32, R Eax, R Ecx));
            a32 (Shift (Rol, S32, R Eax, Amt_imm 3));
            a32 (Alu (Xor, S32, R Eax, I 0x55AA));
            a32 (Dec (S32, R Ecx)); jcc Ne "loop" ]
          @ epilogue
        in
        let image = Asm.build ~code ~data:dump_space () in
        let r = run_ref image in
        let config =
          {
            Config.default with
            Config.heat_threshold = 15;
            session_candidates = 2;
            tcache_limit = 40;
          }
        in
        let e, eng = run_el ~config image in
        compare_sides "flush-on-full" r e;
        check bool "flushed at least twice" true
          (eng.Engine.acct.Account.cache_flushes >= 2));
    Alcotest.test_case "winsim and linuxsim agree" `Quick (fun () ->
        (* same program logic, different syscall conventions *)
        let prog vector exit_n set_exit =
          [ Asm.label "start";
            a32 (Mov (S32, R Ecx, I 10));
            Asm.label "loop";
            a32 (Alu (Add, S32, R Eax, R Ecx));
            a32 (Dec (S32, R Ecx));
            Asm.jcc Ne "loop" ]
          @ set_exit
          @ [ a32 (Mov (S32, R Eax, I exit_n)); a32 (Int_n vector) ]
        in
        let linux_img =
          Asm.build
            ~code:(prog 0x80 1 [ a32 (Mov (S32, R Ebx, I 55)) ])
            ~data:[] ()
        in
        let win_img =
          Asm.build
            ~code:(prog 0x2E 0x01 [ a32 (Mov (S32, R Edx, I 55)) ])
            ~data:[] ()
        in
        let run img btlib =
          let mem = Memory.create () in
          let st = Asm.load img mem in
          let eng = Engine.create ~config:Config.cold_only ~btlib mem in
          match Engine.run ~fuel:1_000_000 eng st with
          | Engine.Exited (code, _) -> code
          | _ -> Alcotest.fail "exit"
        in
        check int "linux exit" 55 (run linux_img (module Btlib.Linuxsim));
        check int "windows exit" 55 (run win_img (module Btlib.Winsim)));
    Alcotest.test_case "fp TOS speculation miss recovers" `Quick (fun () ->
        (* a function is entered once with empty stack and once with one
           element pushed: TOS differs -> rotation recovery *)
        let code =
          [ label "start";
            call "f"; (* TOS = 0 at translation *)
            a32 (Fp Fld1); (* push *)
            call "f"; (* TOS differs: speculation miss *)
            with_lab "out" (fun a -> Fp (Fst_m (F64, Insn.mem_abs a, true)));
            with_lab "out" (fun a -> Fp (Fst_m (F64, Insn.mem_abs (a + 8), true)));
            jmp "end";
            label "f";
            a32 (Fp Fldz);
            a32 (Fp Fld1);
            a32 (Fp (Fop_st_st0 (FAdd, 1, true)));
            a32 (Ret 0);
            label "end" ]
          @ epilogue
        in
        let image =
          Asm.build ~code ~data:(Asm.[ label "out"; space 16 ] @ dump_space) ()
        in
        let r = run_ref image in
        let e, eng = run_el ~config:Config.cold_only image in
        compare_sides "tos-miss" r e;
        check bool "tos miss recovered" true (eng.Engine.acct.Account.tos_misses > 0));
    Alcotest.test_case "version mismatch rejected at engine creation" `Quick
      (fun () ->
        let module Old = struct
          include Btlib.Linuxsim

          let version = { Btlib.Btos.major = 1; minor = 0 }
        end in
        try
          ignore
            (Engine.create ~btlib:(module Old) (Memory.create ()));
          Alcotest.fail "expected Version_mismatch"
        with Btlib.Btos.Version_mismatch _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Random differential testing                                         *)
(* ------------------------------------------------------------------ *)

let gen_straightline =
  let open QCheck.Gen in
  let open Insn in
  let reg = oneofl [ Eax; Ebx; Ecx; Edx; Ebp ] in
  let size = oneofl [ S8; S16; S32 ] in
  (* memory operands through ESI/EDI which point at a scratch buffer *)
  let mem =
    let* base = oneofl [ Esi; Edi ] in
    let* d = int_bound 48 in
    return { base = Some base; index = None; disp = d }
  in
  let operand = oneof [ map (fun r -> R r) reg; map (fun m -> M m) mem ] in
  let imm_for s =
    map (Ia32.Word.mask (size_bytes s)) (int_range min_int max_int)
  in
  let insn =
    oneof
      [
        (let* op = oneofl [ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ] in
         let* s = size in
         oneof
           [
             (let* d = operand in
              let* r = reg in
              return (Alu (op, s, d, R r)));
             (let* r = reg in
              let* m = mem in
              return (Alu (op, s, R r, M m)));
             (let* d = operand in
              let* v = imm_for s in
              return (Alu (op, s, d, I v)));
           ]);
        (let* s = size in
         let* d = operand in
         let* v = imm_for s in
         return (Mov (s, d, I v)));
        (let* s = size in
         let* d = operand in
         let* r = reg in
         return (Mov (s, d, R r)));
        (let* s = size in
         let* r = reg in
         let* m = mem in
         return (Mov (s, R r, M m)));
        (let* s = oneofl [ S8; S16 ] in
         let* r = reg in
         let* o = operand in
         return (Movzx (s, r, o)));
        (let* s = oneofl [ S8; S16 ] in
         let* r = reg in
         let* o = operand in
         return (Movsx (s, r, o)));
        (let* sh = oneofl [ Shl; Shr; Sar; Rol; Ror ] in
         let* s = size in
         let* d = operand in
         let* a = oneof [ map (fun n -> Amt_imm n) (int_bound 34); return Amt_cl ] in
         return (Shift (sh, s, d, a)));
        (let* s = size in
         let* d = operand in
         return (Inc (s, d)));
        (let* s = size in
         let* d = operand in
         return (Dec (s, d)));
        (let* s = size in
         let* d = operand in
         return (Neg (s, d)));
        (let* s = size in
         let* d = operand in
         return (Not (s, d)));
        (let* s = size in
         let* o = operand in
         return (Mul1 (s, o)));
        (let* s = size in
         let* o = operand in
         return (Imul1 (s, o)));
        (let* r = reg in
         let* o = operand in
         return (Imul_rr (r, o)));
        (let* c = oneofl [ O; B; E; Ne; S; P; L; G; Be; A ] in
         let* o = operand in
         return (Setcc (c, o)));
        (let* c = oneofl [ O; B; E; Ne; S; P; L; G ] in
         let* r = reg in
         let* o = operand in
         return (Cmovcc (c, r, o)));
        (let* r = reg in
         return (Push (R r)));
        (let* r = reg in
         return (Pop (R r)));
        return Cdq;
        return Cwde;
        (let* d = operand in
         let* r = reg in
         let* a = oneofl [ Amt_imm 0; Amt_imm 5; Amt_imm 31; Amt_cl ] in
         return (Shld (d, r, a)));
        (let* d = operand in
         let* r = reg in
         let* a = oneofl [ Amt_imm 3; Amt_cl ] in
         return (Shrd (d, r, a)));
        (let* s = size in
         let* d = operand in
         let* r = reg in
         return (Xchg (s, d, r)));
      ]
  in
  list_size (int_range 3 25) insn

let verbose_insn i =
  let sz =
    match i with
    | Insn.Alu (_, s, _, _) | Insn.Test (s, _, _) | Insn.Mov (s, _, _)
    | Insn.Shift (_, s, _, _) | Insn.Inc (s, _) | Insn.Dec (s, _)
    | Insn.Neg (s, _) | Insn.Not (s, _) | Insn.Mul1 (s, _) | Insn.Imul1 (s, _)
    | Insn.Div (s, _) | Insn.Idiv (s, _) | Insn.Xchg (s, _, _)
    | Insn.Movzx (s, _, _) | Insn.Movsx (s, _, _) ->
      (match s with Insn.S8 -> ".b" | Insn.S16 -> ".w" | Insn.S32 -> ".d")
    | _ -> ""
  in
  Insn.to_string i ^ sz

let arbitrary_prog =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map verbose_insn l))
    ~shrink:QCheck.Shrink.list gen_straightline

let random_diff_test =
  QCheck.Test.make ~name:"random straight-line differential" ~count:400
    arbitrary_prog (fun insns ->
      let open Asm in
      let open Insn in
      let prologue =
        [
          label "start";
          mov_ri_lab Esi "buf";
          mov_ri_lab Edi "buf2";
          a32 (Mov (S32, R Eax, I 0x12345678));
          a32 (Mov (S32, R Ebx, I 0x9ABCDEF0));
          a32 (Mov (S32, R Ecx, I 0x0000000D));
          a32 (Mov (S32, R Edx, I 0x7FFFFFFF));
          a32 (Mov (S32, R Ebp, I 0x00000101));
        ]
      in
      let data =
        [ label "buf"; space 64; label "buf2"; space 64 ] @ dump_space
      in
      let image =
        Asm.build
          ~code:(prologue @ List.map a32 insns @ epilogue)
          ~data ()
      in
      let r = run_ref image in
      let e, _ = run_el ~config:Config.cold_only image in
      (match (r.outcome, e.outcome) with
      | `Exit a, `Exit b when a = b -> ()
      | `Fault a, `Fault b when Fault.equal a b -> ()
      | _ -> QCheck.Test.fail_reportf "outcomes differ");
      if r.data_bytes <> e.data_bytes then
        QCheck.Test.fail_reportf "data differs";
      if r.stack_bytes <> e.stack_bytes then
        QCheck.Test.fail_reportf "stack differs";
      List.for_all
        (fun reg -> State.get32 r.st reg = State.get32 e.st reg)
        Insn.all_regs
      && r.st.State.eip = e.st.State.eip)

let gen_fp_prog =
  let open QCheck.Gen in
  let open Insn in
  (* maintain plausible stack depth to mostly avoid stack faults (faults
     are still valid outcomes and must match) *)
  let fmem = oneofl [ "fa"; "fb"; "fc" ] in
  let item depth =
    if depth = 0 then
      oneofl
        [ `Push (Fp Fld1); `Push (Fp Fldz); `PushMem ]
    else
      frequency
        [
          (2, return (`Push (Fp Fld1)));
          (1, return (`PushMem));
          (2, map (fun i -> `Op (Fp (Fop_st0_st (FAdd, i)))) (int_bound (depth - 1)));
          (2, map (fun i -> `Op (Fp (Fop_st0_st (FMul, i)))) (int_bound (depth - 1)));
          (1, map (fun i -> `Op (Fp (Fop_st0_st (FSub, i)))) (int_bound (depth - 1)));
          (1, map (fun i -> `PopOp i) (int_bound (depth - 1)));
          (1, map (fun i -> `Op (Fp (Fxch i))) (int_bound (depth - 1)));
          (1, return (`Op (Fp Fchs)));
          (1, return (`Op (Fp Fabs)));
          (1, return (`PopStore));
          (1, return (`Op (Fp (Fcom_st (0, 0)))));
        ]
  in
  let rec build n depth acc =
    if n = 0 then return (List.rev acc)
    else
      let* it = item depth in
      match it with
      | `Push insn -> build (n - 1) (min 8 (depth + 1)) (`I insn :: acc)
      | `PushMem ->
        let* m = fmem in
        build (n - 1) (min 8 (depth + 1)) (`Mem m :: acc)
      | `Op insn -> build (n - 1) depth (`I insn :: acc)
      | `PopOp i ->
        build (n - 1) (max 0 (depth - 1)) (`I (Fp (Fop_st_st0 (FAdd, max 1 i, true))) :: acc)
      | `PopStore -> build (n - 1) (max 0 (depth - 1)) (`Store :: acc)
  in
  let* n = int_range 4 20 in
  build n 0 []

let print_fp_item = function
  | `I insn -> Insn.to_string insn
  | `Mem name -> "fld " ^ name
  | `Store -> "fstp out"

let arbitrary_fp_prog =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_fp_item l))
    ~shrink:QCheck.Shrink.list gen_fp_prog

let random_fp_diff_test =
  QCheck.Test.make ~name:"random x87 differential" ~count:250 arbitrary_fp_prog
    (fun items ->
      let open Asm in
      let open Insn in
      let store_count = ref 0 in
      let code =
        List.map
          (fun it ->
            match it with
            | `I insn -> a32 insn
            | `Mem name -> with_lab name (fun a -> Fp (Fld_m (F64, mem_abs a)))
            | `Store ->
              let k = !store_count in
              incr store_count;
              with_lab "fout" (fun a ->
                  Fp (Fst_m (F64, mem_abs (a + (8 * (k land 7))), true))))
          items
      in
      let data =
        [ label "fa"; df64 1.5; label "fb"; df64 (-0.75); label "fc"; df64 1024.0;
          label "fout"; space 64 ]
        @ dump_space
      in
      let image = Asm.build ~code:((label "start" :: code) @ epilogue) ~data () in
      let r = run_ref image in
      let e, _ = run_el ~config:Config.cold_only image in
      (match (r.outcome, e.outcome) with
      | `Exit a, `Exit b when a = b -> ()
      | `Fault a, `Fault b when Fault.equal a b -> ()
      | `Fault _, `Fault _ -> QCheck.Test.fail_reportf "different faults"
      | _ -> QCheck.Test.fail_reportf "outcomes differ");
      r.data_bytes = e.data_bytes
      && Fpu.equal r.st.State.fpu e.st.State.fpu)

(* ------------------------------------------------------------------ *)
(* Hot-path differential tests                                         *)
(* ------------------------------------------------------------------ *)

let hot_config =
  {
    Config.default with
    Config.heat_threshold = 15;
    session_candidates = 2;
  }

(* Run under a hot-aggressive config and require that hot translation
   actually engaged. *)
let diff_hot ?(expect_hot = true) name code data =
  let image =
    Asm.build ~code:(Asm.label "start" :: (code @ epilogue)) ~data:(data @ dump_space) ()
  in
  let r = run_ref image in
  let e, eng = run_el ~config:hot_config image in
  compare_sides name r e;
  if expect_hot then
    check bool (name ^ ": hot blocks were generated") true
      (eng.Engine.acct.Account.hot_blocks > 0)

let hot_programs =
  let open Asm in
  let open Insn in
  [
    ( "hot: arithmetic loop",
      [
        a32 (Mov (S32, R Eax, I 0));
        a32 (Mov (S32, R Ecx, I 500));
        label "loop";
        a32 (Alu (Add, S32, R Eax, R Ecx));
        a32 (Alu (Xor, S32, R Eax, I 0x5A5A));
        a32 (Shift (Rol, S32, R Eax, Amt_imm 3));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
      ],
      [] );
    ( "hot: memory sum loop",
      [
        mov_ri_lab Esi "arr";
        a32 (Mov (S32, R Eax, I 0));
        a32 (Mov (S32, R Ecx, I 0));
        label "loop";
        a32 (Alu (Add, S32, R Eax, M { base = Some Esi; index = Some (Ecx, 4); disp = 0 }));
        a32 (Inc (S32, R Ecx));
        a32 (Alu (Cmp, S32, R Ecx, I 16));
        jcc Ne "loopchk";
        a32 (Mov (S32, R Ecx, I 0));
        a32 (Inc (S32, R Edx));
        label "loopchk";
        a32 (Alu (Cmp, S32, R Edx, I 40));
        jcc Ne "loop";
        (* store result *)
        with_lab "out" (fun a -> Mov (S32, M (mem_abs a), R Eax));
      ],
      Asm.(
        [ label "arr" ]
        @ List.init 16 (fun k -> dd (k * 3 + 1))
        @ [ label "out"; space 4 ]) );
    ( "hot: store-heavy loop (commit regions)",
      [
        mov_ri_lab Edi "buf";
        a32 (Mov (S32, R Ecx, I 300));
        label "loop";
        a32 (Mov (S32, R Eax, R Ecx));
        a32 (Imul_rri (Eax, R Eax, 7));
        a32 (Mov (S32, M (Insn.mem_b Edi), R Eax));
        a32 (Alu (Add, S32, M (Insn.mem_bd Edi 4), R Eax));
        a32 (Shift (Shr, S32, R Eax, Amt_imm 2));
        a32 (Mov (S32, M (Insn.mem_bd Edi 8), R Eax));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
      ],
      Asm.[ label "buf"; space 16 ] );
    ( "hot: conditional inside loop (side exits)",
      [
        a32 (Mov (S32, R Eax, I 0));
        a32 (Mov (S32, R Ebx, I 0));
        a32 (Mov (S32, R Ecx, I 400));
        label "loop";
        a32 (Test (S32, R Ecx, I 3));
        jcc E "mul4";
        a32 (Alu (Add, S32, R Eax, R Ecx));
        jmp "next";
        label "mul4";
        a32 (Alu (Add, S32, R Ebx, R Ecx));
        label "next";
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
      ],
      [] );
    ( "hot: diamond if-conversion",
      [
        a32 (Mov (S32, R Eax, I 0));
        a32 (Mov (S32, R Ebx, I 0));
        a32 (Mov (S32, R Ecx, I 300));
        label "loop";
        a32 (Test (S32, R Ecx, I 1));
        jcc E "even";
        a32 (Mov (S32, R Edx, I 111));
        jmp "join";
        label "even";
        a32 (Mov (S32, R Edx, I 222));
        jmp "join";
        label "join";
        a32 (Alu (Add, S32, R Eax, R Edx));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
      ],
      [] );
    ( "hot: x87 accumulation loop",
      [
        a32 (Fp Fldz);
        a32 (Mov (S32, R Ecx, I 200));
        label "loop";
        with_lab "step" (fun a -> Fp (Fld_m (F64, Insn.mem_abs a)));
        a32 (Fp (Fop_st_st0 (FAdd, 1, true)));
        a32 (Fp Fld1);
        a32 (Fp (Fxch 1));
        a32 (Fp (Fop_st_st0 (FMul, 1, true)));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
        with_lab "out" (fun a -> Fp (Fst_m (F64, Insn.mem_abs a, true)));
      ],
      Asm.[ label "step"; df64 0.125; label "out"; space 8 ] );
    ( "hot: call/ret in loop (indirect exits)",
      [
        a32 (Mov (S32, R Eax, I 0));
        a32 (Mov (S32, R Ecx, I 250));
        label "loop";
        call "bump";
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
        jmp "end";
        label "bump";
        a32 (Alu (Add, S32, R Eax, I 3));
        a32 (Ret 0);
        label "end";
      ],
      [] );
    ( "hot: misaligned loop regenerates with avoidance",
      [
        mov_ri_lab Ebx "buf";
        a32 (Alu (Add, S32, R Ebx, I 2));
        a32 (Mov (S32, R Ecx, I 300));
        label "loop";
        a32 (Alu (Add, S32, M (Insn.mem_b Ebx), I 5));
        a32 (Mov (S32, R Edx, M (Insn.mem_bd Ebx 6)));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
      ],
      Asm.[ label "buf"; space 32 ] );
    ( "hot: string op in loop",
      [
        a32 (Mov (S32, R Ebp, I 60));
        label "loop";
        mov_ri_lab Esi "src";
        mov_ri_lab Edi "dst";
        a32 (Mov (S32, R Ecx, I 4));
        a32 Cld;
        a32 (Movs (S32, Rep));
        a32 (Dec (S32, R Ebp));
        jcc Ne "loop";
      ],
      Asm.[ label "src"; raw "0123456789abcdef"; label "dst"; space 16 ] );
    ( "hot: sse loop",
      [
        with_lab "a" (fun a -> Sse (Movups (XM 0, XMem (Insn.mem_abs a))));
        with_lab "b" (fun a -> Sse (Movups (XM 1, XMem (Insn.mem_abs a))));
        a32 (Mov (S32, R Ecx, I 150));
        label "loop";
        a32 (Sse (Sse_arith (SAdd, Packed_single, 0, XM 1)));
        a32 (Sse (Sse_arith (SMul, Scalar_single, 1, XM 1)));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
        with_lab "out" (fun a -> Sse (Movups (XMem (Insn.mem_abs a), XM 0)));
      ],
      Asm.
        [ label "a"; df32 0.5; df32 1.0; df32 1.5; df32 2.0;
          label "b"; df32 0.001; df32 0.002; df32 0.003; df32 1.0000001;
          label "out"; space 16 ] );
    ( "hot: mmx loop",
      [
        with_lab "a" (fun a -> Mmx (Movq_to_mm (0, MMem (Insn.mem_abs a))));
        with_lab "b" (fun a -> Mmx (Movq_to_mm (1, MMem (Insn.mem_abs a))));
        a32 (Mov (S32, R Ecx, I 200));
        label "loop";
        a32 (Mmx (Padd (2, 0, MM 1)));
        a32 (Mmx (Pxor (1, MM 0)));
        a32 (Dec (S32, R Ecx));
        jcc Ne "loop";
        with_lab "out" (fun a -> Mmx (Movq_from_mm (MMem (Insn.mem_abs a), 0)));
        a32 (Mmx Emms);
      ],
      Asm.
        [ label "a"; dq 0x0001000200030004L; label "b"; dq 0x1111222233334444L;
          label "out"; space 8 ] );
    ( "hot: fault in hot code is precise",
      [
        (* register a #DE handler, then divide by a counter that hits zero
           only after the loop is hot *)
        a32 (Mov (S32, R Eax, I 48));
        a32 (Mov (S32, R Ebx, I 0));
        mov_ri_lab Ecx "handler";
        a32 (Int_n 0x80);
        a32 (Mov (S32, R Ebp, I 120));
        a32 (Mov (S32, R Esi, I 0));
        label "loop";
        a32 (Mov (S32, R Eax, I 1000));
        a32 Cdq;
        a32 (Mov (S32, R Ecx, R Ebp));
        a32 (Dec (S32, R Ecx)); (* becomes 0 on the last iteration *)
        a32 (Div (S32, R Ecx));
        a32 (Alu (Add, S32, R Esi, R Eax));
        a32 (Dec (S32, R Ebp));
        jcc Ne "loop";
        jmp "end";
        label "handler";
        (* skip past the faulting div: resume at "after" *)
        a32 (Mov (S32, R Edi, I 0xBEEF));
        mov_ri_lab Ebx "end";
        a32 (Mov (S32, M (Insn.mem_bd Esp 8), R Ebx));
        a32 (Alu (Add, S32, R Esp, I 8));
        a32 (Ret 0);
        label "end";
      ],
      [] );
  ]

let interpret_first_test =
  Alcotest.test_case "interpret-first mode matches and heats" `Quick (fun () ->
      let open Asm in
      let open Insn in
      let code =
        [ label "start";
          a32 (Mov (S32, R Eax, I 0));
          a32 (Mov (S32, R Ecx, I 400));
          label "loop";
          a32 (Alu (Add, S32, R Eax, R Ecx));
          a32 (Dec (S32, R Ecx));
          jcc Ne "loop" ]
      in
      let config =
        { hot_config with Config.first_phase = Config.Interpret_first }
      in
      let image =
        Asm.build ~code:(code @ epilogue) ~data:dump_space ()
      in
      let r = run_ref image in
      let e, eng = run_el ~config image in
      compare_sides "interpret-first" r e;
      check bool "interpreted some instructions" true
        (eng.Engine.acct.Account.interp_cycles > 0);
      check bool "hot code generated" true (eng.Engine.acct.Account.hot_blocks > 0))

let hot_cases =
  List.map
    (fun (name, code, data) ->
      Alcotest.test_case name `Quick (fun () -> diff_hot name code data))
    hot_programs

(* Regression: a hash loop whose trace contains a misaligned peek load. The
   hot block's commit backups must execute before the faulting load (a
   mis-scheduled backup made the commit restore copy uninitialized backup
   registers over live state and lose the outer-loop resets), and REP MOVS
   pairs exercise the renamer's loop-span lifetime extension. *)
let hot_hash_peek_program =
  let open Asm in
  let open Insn in
  let mix b i sc d = { base = Some b; index = Some (i, sc); disp = d } in
  ( [
      mov_ri_lab Esi "hsrc";
      mov_ri_lab Edi "hdict";
      a32 (Mov (S32, R Ebp, I 25));
      label "houter";
      a32 (Mov (S32, R Ecx, I 0));
      a32 (Mov (S32, R Eax, I 0));
      a32 (Mov (S32, R Ebx, I 48));
      label "hashl";
      a32 (Movzx (S8, Edx, M (mix Esi Ecx 1 0)));
      a32 (Shift (Shl, S32, R Eax, Amt_imm 5));
      a32 (Alu (Xor, S32, R Eax, R Edx));
      a32 (Alu (And, S32, R Eax, I 1023));
      a32 (Mov (S32, R Edx, M (mix Edi Eax 4 0)));
      a32 (Mov (S32, M (mix Edi Eax 4 0), R Ecx));
      a32 (Inc (S32, R Ecx));
      a32 (Alu (And, S32, R Edx, I 63));
      a32 (Mov (S32, R Edx, M (mix Esi Edx 1 1))) (* misaligned peek *);
      a32 (Dec (S32, R Ebx));
      jcc Ne "hashl";
      a32 (Dec (S32, R Ebp));
      jcc Ne "houter";
    ],
    [
      label "hsrc";
      raw (String.init 128 (fun i -> Char.chr (i * 7 land 0xFF)));
      label "hdict";
      space 4096;
    ] )

let hot_regression_cases =
  let run name config =
    Alcotest.test_case name `Quick (fun () ->
        let code, data = hot_hash_peek_program in
        let image =
          Asm.build
            ~code:(Asm.label "start" :: (code @ epilogue))
            ~data:(data @ dump_space) ()
        in
        let r = run_ref image in
        let e, eng = run_el ~config image in
        compare_sides name r e;
        check bool (name ^ ": hot blocks were generated") true
          (eng.Engine.acct.Account.hot_blocks > 0))
  in
  let rep_movs_pair =
    (* two REP MOVS in one hot trace: each is its own commit region and the
       delta registers span the backward branch (renamer loop-span bug) *)
    Alcotest.test_case "hot: double rep movs trace" `Quick (fun () ->
        let open Asm in
        let open Insn in
        let code =
          [
            a32 (Mov (S32, R Ebp, I 40));
            label "rloop";
            mov_ri_lab Esi "rsrc";
            mov_ri_lab Edi "rdst";
            a32 (Mov (S32, R Ecx, I 6));
            a32 (Movs (S32, Rep));
            a32 (Mov (S32, R Ecx, I 10));
            a32 (Movs (S8, Rep));
            a32 (Alu (Add, S32, R Ebx, R Edi));
            a32 (Dec (S32, R Ebp));
            jcc Ne "rloop";
          ]
        in
        let data =
          [
            label "rsrc";
            raw (String.init 64 (fun i -> Char.chr (i * 11 land 0xFF)));
            label "rdst";
            space 64;
          ]
        in
        diff_hot "hot: double rep movs trace" code data)
  in
  let hammock =
    (* one-sided hammock: the jcc skips a store+xchg sequence that must be
       if-converted predicated, not lost, in the hot trace *)
    Alcotest.test_case "hot: one-sided hammock if-conversion" `Quick
      (fun () ->
        let open Asm in
        let open Insn in
        let code =
          [
            mov_ri_lab Esi "hbuf";
            a32 (Mov (S32, R Ebp, I 300));
            a32 (Mov (S32, R Eax, I 12345));
            label "hloop";
            a32 (Imul_rri (Eax, R Eax, 1103515245));
            a32 (Alu (Add, S32, R Eax, I 12345));
            a32 (Mov (S32, R Ebx, R Eax));
            a32 (Alu (And, S32, R Ebx, I 31));
            a32 (Alu (Cmp, S32, R Ebx, I 20));
            jcc A "hskip";
            a32 (Mov (S32, R Edx, M { base = Some Esi; index = Some (Ebx, 4); disp = 0 }));
            a32 (Xchg (S32, M { base = Some Esi; index = Some (Ebx, 4); disp = 4 }, Edx));
            a32 (Mov (S32, M { base = Some Esi; index = Some (Ebx, 4); disp = 0 }, R Edx));
            label "hskip";
            a32 (Alu (Add, S32, R Edi, R Ebx));
            a32 (Dec (S32, R Ebp));
            jcc Ne "hloop";
          ]
        in
        let data =
          [ label "hbuf" ]
          @ List.init 36 (fun k -> dd (k * 7))
        in
        diff_hot "hot: one-sided hammock" code data)
  in
  let exit_flags =
    (* the final SHR's CF is dead inside the trace (the AND at the loop
       head kills it) but must still be correct at the loop exit: the
       lazy-flag producer must snapshot its operands even when its flags
       are dead in-trace (regression: stale canonic register in the
       pending flush) *)
    Alcotest.test_case "hot: exit flags from dead in-trace producer" `Quick
      (fun () ->
        let open Asm in
        let open Insn in
        let code =
          [
            mov_ri_lab Edi "fbuf2";
            a32 (Mov (S32, R Eax, I 0x1234567));
            a32 (Mov (S32, R Ebx, I 0x13));
            a32 (Mov (S32, R Edx, I 0x7FFF00));
            a32 (Mov (S32, R Ebp, I 0x101));
            with_lab "fctr" (fun a -> Mov (S32, M (mem_abs a), I 50));
            label "floop";
            a32 (Inc (S32, R Ebp));
            a32 (Inc (S32, R Eax));
            a32 (Alu (And, S32, R Ebp, R Ebp));
            a32 (Alu (Cmp, S32, R Ebx, I 34));
            jcc L "fskip";
            a32 (Not (S32, R Edx));
            a32 (Movzx (S8, Edx, M { base = Some Edi; index = None; disp = 0x27 }));
            label "fskip";
            a32 (Inc (S32, R Edx));
            a32 (Alu (Add, S32, R Eax, I 0x822D));
            a32 (Shift (Shr, S32, R Eax, Amt_imm 2));
            with_lab "fctr" (fun a -> Dec (S32, M (mem_abs a)));
            jcc Ne "floop";
          ]
        in
        let data = [ label "fbuf2"; space 64; label "fctr"; space 4 ] in
        diff_hot "hot: dead in-trace exit flags" code data)
  in
  let spec_filter =
    (* control speculation (paper §4.2): the hot scheduler hoists the
       list-walk load above the null-check exit as ld.s; on the final
       iteration the speculative load faults, the NaT dies unobserved
       when the exit fires, and the guest never sees an exception *)
    Alcotest.test_case "hot: speculative load fault is filtered" `Quick
      (fun () ->
        let open Asm in
        let open Insn in
        let code =
          [
            a32 (Mov (S32, R Ebp, I 120));
            label "souter";
            mov_ri_lab Edx "sn0";
            a32 (Mov (S32, R Eax, I 0));
            label "swalk";
            a32 (Alu (Cmp, S32, R Edx, I 0));
            jcc E "sdone";
            a32 (Alu (Add, S32, R Eax, M (Insn.mem_bd Edx 4)));
            a32 (Mov (S32, R Edx, M (Insn.mem_b Edx)));
            jmp "swalk";
            label "sdone";
            a32 (Alu (Add, S32, R Ebx, R Eax));
            a32 (Dec (S32, R Ebp));
            jcc Ne "souter";
          ]
        in
        let data =
          [
            label "sn0"; dd_lab "sn1"; dd 5;
            label "sn1"; dd_lab "sn2"; dd 7;
            label "sn2"; dd 0; dd 11;
          ]
        in
        diff_hot "hot: filtered speculative fault" code data)
  in
  let spec_recover =
    (* the same walk where the poisoned pointer IS dereferenced: the
       chk.s catches the deferred fault and the engine re-raises it
       precisely (same fault, EIP and registers as the interpreter) *)
    Alcotest.test_case "hot: speculative load fault is delivered" `Quick
      (fun () ->
        let open Asm in
        let open Insn in
        let code =
          [
            label "start";
            a32 (Mov (S32, R Ebp, I 120));
            label "pouter";
            mov_ri_lab Edx "pn0";
            a32 (Mov (S32, R Eax, I 0));
            label "pwalk";
            a32 (Alu (Cmp, S32, R Edx, I 0));
            jcc E "pdone";
            a32 (Alu (Add, S32, R Eax, M (Insn.mem_bd Edx 4)));
            a32 (Mov (S32, R Edx, M (Insn.mem_b Edx)));
            jmp "pwalk";
            label "pdone";
            (* after 60 iterations, poison pn1.next with an unmapped
               pointer so the next pass dereferences it *)
            a32 (Alu (Cmp, S32, R Ebp, I 60));
            jcc Ne "skip_poison";
            with_lab "pn1" (fun a -> Mov (S32, M (mem_abs a), I 0x30000000));
            label "skip_poison";
            a32 (Dec (S32, R Ebp));
            jcc Ne "pouter";
          ]
          @ epilogue
        in
        let data =
          [
            label "pn0"; dd_lab "pn1"; dd 5;
            label "pn1"; dd_lab "pn2"; dd 7;
            label "pn2"; dd 0; dd 11;
          ]
          @ dump_space
        in
        let image = Asm.build ~code ~data () in
        let r = run_ref image in
        let e, eng = run_el ~config:hot_config image in
        compare_sides ~compare_flags:false "spec-recover" r e;
        check bool "hot code was generated" true
          (eng.Engine.acct.Account.hot_blocks > 0))
  in
  [
    hammock;
    exit_flags;
    spec_filter;
    spec_recover;
    run "hot: hash loop with misaligned peek" hot_config;
    run "hot: hash loop, no flag elimination"
      { hot_config with Config.enable_flag_elim = false };
    run "hot: hash loop, no scheduling"
      { hot_config with Config.enable_scheduling = false };
    rep_movs_pair;
  ]

let random_loop_diff ~name ~count ~config =
  QCheck.Test.make ~name ~count arbitrary_prog (fun insns ->
      (* wrap the random body in a loop so it heats and gets re-translated *)
      let open Asm in
      let open Insn in
      let safe =
        (* exclude stack-unbalanced ops inside the loop *)
        List.filter
          (function Push _ | Pop _ -> false | _ -> true)
          insns
      in
      QCheck.assume (safe <> []);
      let prologue =
        [
          label "start";
          mov_ri_lab Esi "buf";
          mov_ri_lab Edi "buf2";
          a32 (Mov (S32, R Eax, I 0x12345678));
          a32 (Mov (S32, R Ebx, I 0x9ABCDEF0));
          a32 (Mov (S32, R Edx, I 0x7FFFFFFF));
          a32 (Mov (S32, R Ebp, I 0x00000101));
          with_lab "ctr" (fun a -> Mov (S32, M (mem_abs a), I 60));
          label "loop";
        ]
      in
      let back =
        [
          with_lab "ctr" (fun a -> Dec (S32, M (mem_abs a)));
          jcc Ne "loop";
        ]
      in
      let data =
        [ label "buf"; space 64; label "buf2"; space 64; label "ctr"; space 4 ]
        @ dump_space
      in
      let image =
        Asm.build
          ~code:(prologue @ List.map a32 safe @ back @ epilogue)
          ~data ()
      in
      let r = run_ref image in
      let e, _ = run_el ~config image in
      (match (r.outcome, e.outcome) with
      | `Exit a, `Exit b when a = b -> ()
      | `Fault a, `Fault b when Fault.equal a b -> ()
      | _ -> QCheck.Test.fail_reportf "outcomes differ");
      if r.data_bytes <> e.data_bytes then QCheck.Test.fail_reportf "data differs";
      if r.stack_bytes <> e.stack_bytes then QCheck.Test.fail_reportf "stack differs";
      List.for_all
        (fun reg -> State.get32 r.st reg = State.get32 e.st reg)
        Insn.all_regs)

let random_hot_diff_test =
  random_loop_diff ~name:"random loop differential (hot path)" ~count:150
    ~config:hot_config

let random_if_diff_test =
  (* the FX!32-style first phase: interpret, profile, then hot-translate *)
  random_loop_diff ~name:"random loop differential (interpret-first)"
    ~count:80
    ~config:
      {
        hot_config with
        Config.first_phase = Config.Interpret_first;
        heat_threshold = 10;
      }

let random_flush_diff_test =
  (* a translation cache small enough to flush several times per run *)
  random_loop_diff ~name:"random loop differential (cache flushes)"
    ~count:80
    ~config:{ hot_config with Config.tcache_limit = 150 }

let diff_cases progs =
  List.map
    (fun (name, code, data) ->
      Alcotest.test_case name `Quick (fun () -> diff_both name code data))
    progs

(* Random hammock differential: straight-line bodies plus a one-sided
   skip (cmp; jcc over a few predicable instructions), wrapped in a loop
   so the hot phase if-converts the hammock. *)
let gen_plain_insn =
  let open QCheck.Gen in
  let open Insn in
  let reg = oneofl [ Eax; Ebx; Edx; Ebp ] in
  oneof
    [
      (let* op = oneofl [ Add; Sub; Xor; And; Or ] in
       let* d = reg in
       let* s = reg in
       return (Alu (op, S32, R d, R s)));
      (let* d = reg in
       let* v = int_bound 0xFFFF in
       return (Alu (Add, S32, R d, I v)));
      (let* sh = oneofl [ Shl; Shr; Ror ] in
       let* d = reg in
       let* n = int_bound 7 in
       return (Shift (sh, S32, R d, Amt_imm n)));
      (let* d = reg in
       return (Inc (S32, R d)));
      (let* d = reg in
       return (Neg (S32, R d)));
    ]

let gen_hammock_prog =
  let open QCheck.Gen in
  let open Insn in
  let reg = oneofl [ Eax; Ebx; Edx; Ebp ] in
  let mem_op =
    let* base = oneofl [ Esi; Edi ] in
    let* d = int_bound 40 in
    return { base = Some base; index = None; disp = d }
  in
  let predicable_insn =
    oneof
      [
        (let* r = reg in
         let* m = mem_op in
         return (Mov (S32, R r, M m)));
        (let* m = mem_op in
         let* r = reg in
         return (Mov (S32, M m, R r)));
        (let* r = reg in
         let* r2 = reg in
         return (Mov (S32, R r, R r2)));
        (let* r = reg in
         return (Not (S32, R r)));
        (let* m = mem_op in
         let* r = reg in
         return (Xchg (S32, M m, r)));
        (let* r = reg in
         let* m = mem_op in
         return (Movzx (S8, r, M m)));
      ]
  in
  let* pre = list_size (int_range 1 4) gen_plain_insn in
  let* side = list_size (int_range 1 3) predicable_insn in
  let* post = list_size (int_range 0 3) gen_plain_insn in
  let* c = oneofl [ E; Ne; S; L; G; A; Be ] in
  let* k = int_bound 40 in
  return (pre, c, k, side, post)

let arbitrary_hammock =
  QCheck.make
    ~print:(fun (pre, c, k, side, post) ->
      Printf.sprintf "pre=[%s] cmp ebx,%d jcc-%s skip [%s] post=[%s]"
        (String.concat "; " (List.map verbose_insn pre))
        k
        (Insn.cond_name c)
        (String.concat "; " (List.map verbose_insn side))
        (String.concat "; " (List.map verbose_insn post)))
    gen_hammock_prog

let random_hammock_test =
  QCheck.Test.make ~name:"random hammock differential (if-conversion)"
    ~count:150 arbitrary_hammock (fun (pre, c, k, side, post) ->
      let open Asm in
      let open Insn in
      let prologue =
        [
          label "start";
          mov_ri_lab Esi "buf";
          mov_ri_lab Edi "buf2";
          a32 (Mov (S32, R Eax, I 0x1234567));
          a32 (Mov (S32, R Ebx, I 0x13));
          a32 (Mov (S32, R Edx, I 0x7FFF00));
          a32 (Mov (S32, R Ebp, I 0x101));
          with_lab "ctr" (fun a -> Mov (S32, M (mem_abs a), I 50));
          label "loop";
        ]
      in
      let body =
        List.map a32 pre
        @ [ a32 (Alu (Cmp, S32, R Ebx, I k)); jcc c "skip" ]
        @ List.map a32 side
        @ [ label "skip" ]
        @ List.map a32 post
      in
      let back =
        [
          with_lab "ctr" (fun a -> Dec (S32, M (mem_abs a)));
          jcc Ne "loop";
        ]
      in
      let data =
        [ label "buf"; space 64; label "buf2"; space 64; label "ctr"; space 4 ]
        @ dump_space
      in
      let image =
        Asm.build ~code:(prologue @ body @ back @ epilogue) ~data ()
      in
      let r = run_ref image in
      let e, _ = run_el ~config:hot_config image in
      (match (r.outcome, e.outcome) with
      | `Exit a, `Exit b when a = b -> ()
      | `Fault a, `Fault b when Fault.equal a b -> ()
      | _ -> QCheck.Test.fail_reportf "outcomes differ");
      if r.data_bytes <> e.data_bytes then
        QCheck.Test.fail_reportf "data differs";
      List.for_all
        (fun reg -> State.get32 r.st reg = State.get32 e.st reg)
        Insn.all_regs)

let () =
  Alcotest.run "ia32el-core"
    [
      ("diff-int", diff_cases (int_programs @ fault_and_indirect_programs));
      ("diff-x87", diff_cases (x87_programs @ x87_extra_programs));
      ("diff-mmx-sse", diff_cases mmx_sse_programs);
      ("diff-misalign", diff_cases misalign_programs);
      ("diff-hot", (interpret_first_test :: hot_cases) @ hot_regression_cases);
      ("mechanisms", mechanism_tests);
      ( "random",
        [
          QCheck_alcotest.to_alcotest random_diff_test;
          QCheck_alcotest.to_alcotest random_fp_diff_test;
          QCheck_alcotest.to_alcotest random_hot_diff_test;
          QCheck_alcotest.to_alcotest random_hammock_test;
          QCheck_alcotest.to_alcotest random_if_diff_test;
          QCheck_alcotest.to_alcotest random_flush_diff_test;
        ] );
    ]
