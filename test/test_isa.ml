(* Encode/decode round-trip tests for both ISAs, plus assembler label
   resolution. *)

open Ggpu_isa

(* --- FGPU ISA --------------------------------------------------------- *)

let fgpu_samples =
  Fgpu_isa.
    [
      Alu (Add, 1, 2, 3);
      Alu (Sltu, 31, 0, 30);
      Alui (Add, 5, 6, -7l);
      Alui (Or, 5, 6, 0xFFFFl);
      Alui (Sll, 7, 8, 2l);
      Lui (9, 0xABCDl);
      Li (10, -32768l);
      Lw (11, 12, 16);
      Sw (13, 14, -4);
      Branch (Ne, 1, 2, -5);
      Branch (Geu, 3, 4, 100);
      Jump 12345;
      Special (Lid, 15);
      Special (Gsize, 16);
      Barrier;
      Ret;
    ]

let test_fgpu_roundtrip () =
  List.iter
    (fun insn ->
      let decoded = Fgpu_isa.decode (Fgpu_isa.encode insn) in
      if decoded <> insn then
        Alcotest.failf "roundtrip failed: %s -> %s" (Fgpu_isa.to_string insn)
          (Fgpu_isa.to_string decoded))
    fgpu_samples

let gen_fgpu_insn =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let reg_nz = int_range 1 31 in
  let imm = map Int32.of_int (int_range (-32768) 32767) in
  let uimm = map Int32.of_int (int_range 0 65535) in
  let alu_op =
    oneofl
      Fgpu_isa.
        [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu ]
  in
  let arith_op =
    oneofl Fgpu_isa.[ Add; Sub; Mul; Div; Rem; Sll; Srl; Sra; Slt; Sltu ]
  in
  let logic_op = oneofl Fgpu_isa.[ And; Or; Xor ] in
  let cond = oneofl Fgpu_isa.[ Eq; Ne; Lt; Ge; Ltu; Geu ] in
  let special = oneofl Fgpu_isa.[ Lid; Wgid; Wgoff; Wgsize; Gsize ] in
  oneof
    [
      map (fun ((op, rd), (rs1, rs2)) -> Fgpu_isa.Alu (op, rd, rs1, rs2))
        (pair (pair alu_op reg) (pair reg reg));
      (* rs1 <> 0 so the Alui does not decode as the Li pseudo-form *)
      map (fun ((op, rd), (rs1, imm)) -> Fgpu_isa.Alui (op, rd, rs1, imm))
        (pair (pair arith_op reg) (pair reg_nz imm));
      map (fun ((op, rd), (rs1, imm)) -> Fgpu_isa.Alui (op, rd, rs1, imm))
        (pair (pair logic_op reg) (pair reg_nz uimm));
      map (fun (rd, imm) -> Fgpu_isa.Li (rd, imm)) (pair reg imm);
      map (fun (rd, (rs1, off)) -> Fgpu_isa.Lw (rd, rs1, off))
        (pair reg (pair reg (int_range (-32768) 32767)));
      map (fun (rd, (rs1, off)) -> Fgpu_isa.Sw (rd, rs1, off))
        (pair reg (pair reg (int_range (-32768) 32767)));
      map (fun ((c, rs1), (rs2, off)) -> Fgpu_isa.Branch (c, rs1, rs2, off))
        (pair (pair cond reg) (pair reg (int_range (-32768) 32767)));
      map (fun t -> Fgpu_isa.Jump t) (int_range 0 ((1 lsl 26) - 1));
      map (fun (sp, rd) -> Fgpu_isa.Special (sp, rd)) (pair special reg);
      return Fgpu_isa.Barrier;
      return Fgpu_isa.Ret;
    ]

let prop_fgpu_roundtrip =
  QCheck.Test.make ~name:"fgpu encode/decode roundtrip" ~count:1000
    (QCheck.make ~print:Fgpu_isa.to_string gen_fgpu_insn)
    (fun insn -> Fgpu_isa.decode (Fgpu_isa.encode insn) = insn)

let test_fgpu_asm_labels () =
  let open Fgpu_asm in
  let program =
    assemble
      [
        Label "start";
        I (Fgpu_isa.Special (Fgpu_isa.Lid, 1));
        Branch_to (Fgpu_isa.Eq, 1, 0, "end");
        I (Fgpu_isa.Alui (Fgpu_isa.Add, 2, 2, 1l));
        Jump_to "start";
        Label "end";
        I Fgpu_isa.Ret;
      ]
  in
  Alcotest.(check int) "length" 5 (Array.length program);
  (match program.(1) with
  | Fgpu_isa.Branch (Fgpu_isa.Eq, 1, 0, off) ->
      (* branch at pc=1 targets "end" at 4: offset = 4 - 2 = 2 *)
      Alcotest.(check int) "branch offset" 2 off
  | insn -> Alcotest.failf "unexpected %s" (Fgpu_isa.to_string insn));
  match program.(3) with
  | Fgpu_isa.Jump 0 -> ()
  | insn -> Alcotest.failf "unexpected %s" (Fgpu_isa.to_string insn)

let test_fgpu_asm_wide_li () =
  let program =
    Fgpu_asm.assemble [ Fgpu_asm.Li32 (3, 0x12345678l) ]
  in
  Alcotest.(check int) "expanded to 2" 2 (Array.length program);
  match (program.(0), program.(1)) with
  | Fgpu_isa.Lui (3, hi), Fgpu_isa.Alui (Fgpu_isa.Or, 3, 3, lo) ->
      Alcotest.(check int32) "hi" 0x1234l hi;
      Alcotest.(check int32) "lo" 0x5678l lo
  | _ -> Alcotest.fail "expected lui/ori pair"

let test_fgpu_asm_duplicate_label () =
  match Fgpu_asm.assemble [ Fgpu_asm.Label "a"; Fgpu_asm.Label "a" ] with
  | _ -> Alcotest.fail "expected duplicate-label error"
  | exception Fgpu_asm.Asm_error _ -> ()

(* --- RV32 ------------------------------------------------------------- *)

let rv32_samples =
  Rv32.
    [
      Lui (1, 0xFFFFFl);
      Auipc (2, 1l);
      Jal (1, -2048);
      Jalr (1, 2, 16);
      Beq (1, 2, -4);
      Bge (3, 4, 4094);
      Bltu (5, 6, -4096);
      Lw (7, 8, 2047);
      Sw (9, 10, -2048);
      Addi (11, 12, -1l);
      Sltiu (13, 14, 100l);
      Slli (15, 16, 31);
      Srai (17, 18, 1);
      Add (19, 20, 21);
      Sub (22, 23, 24);
      Mul (25, 26, 27);
      Div (28, 29, 30);
      Remu (31, 0, 1);
      Ecall;
    ]

let test_rv32_roundtrip () =
  List.iter
    (fun insn ->
      let decoded = Rv32.decode (Rv32.encode insn) in
      if decoded <> insn then
        Alcotest.failf "roundtrip failed: %s -> %s" (Rv32.to_string insn)
          (Rv32.to_string decoded))
    rv32_samples

let gen_rv32_insn =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let imm12 = map Int32.of_int (int_range (-2048) 2047) in
  let off12 = int_range (-2048) 2047 in
  let boff = map (fun v -> v * 2) (int_range (-2048) 2047) in
  let joff = map (fun v -> v * 2) (int_range (-524288) 524287) in
  let uimm = map Int32.of_int (int_range 0 0xFFFFF) in
  let sh = int_range 0 31 in
  let r3 op = map (fun ((d, a), b) -> op d a b) (pair (pair reg reg) reg) in
  oneof
    [
      map (fun (rd, imm) -> Rv32.Lui (rd, imm)) (pair reg uimm);
      map (fun (rd, imm) -> Rv32.Auipc (rd, imm)) (pair reg uimm);
      map (fun (rd, off) -> Rv32.Jal (rd, off)) (pair reg joff);
      map (fun ((rd, rs1), off) -> Rv32.Jalr (rd, rs1, off))
        (pair (pair reg reg) off12);
      map (fun ((a, b), off) -> Rv32.Beq (a, b, off)) (pair (pair reg reg) boff);
      map (fun ((a, b), off) -> Rv32.Bgeu (a, b, off)) (pair (pair reg reg) boff);
      map (fun ((rd, rs1), off) -> Rv32.Lw (rd, rs1, off))
        (pair (pair reg reg) off12);
      map (fun ((rs2, rs1), off) -> Rv32.Sw (rs2, rs1, off))
        (pair (pair reg reg) off12);
      map (fun ((rd, rs1), imm) -> Rv32.Addi (rd, rs1, imm))
        (pair (pair reg reg) imm12);
      map (fun ((rd, rs1), imm) -> Rv32.Andi (rd, rs1, imm))
        (pair (pair reg reg) imm12);
      map (fun ((rd, rs1), s) -> Rv32.Slli (rd, rs1, s))
        (pair (pair reg reg) sh);
      map (fun ((rd, rs1), s) -> Rv32.Srai (rd, rs1, s))
        (pair (pair reg reg) sh);
      r3 (fun d a b -> Rv32.Add (d, a, b));
      r3 (fun d a b -> Rv32.Sub (d, a, b));
      r3 (fun d a b -> Rv32.Xor (d, a, b));
      r3 (fun d a b -> Rv32.Mul (d, a, b));
      r3 (fun d a b -> Rv32.Div (d, a, b));
      r3 (fun d a b -> Rv32.Remu (d, a, b));
    ]

let prop_rv32_roundtrip =
  QCheck.Test.make ~name:"rv32 encode/decode roundtrip" ~count:1000
    (QCheck.make ~print:Rv32.to_string gen_rv32_insn)
    (fun insn -> Rv32.decode (Rv32.encode insn) = insn)

let test_rv32_asm_labels () =
  let open Rv32_asm in
  let program =
    assemble
      [
        I (Rv32.Addi (5, 0, 0l));
        Label "loop";
        I (Rv32.Addi (5, 5, 1l));
        Blt_to (5, 6, "loop");
        I Rv32.Ecall;
      ]
  in
  Alcotest.(check int) "length" 4 (Array.length program);
  match program.(2) with
  | Rv32.Blt (5, 6, off) -> Alcotest.(check int) "offset" (-4) off
  | insn -> Alcotest.failf "unexpected %s" (Rv32.to_string insn)

let test_rv32_li32_split () =
  (* the LUI/ADDI split must reconstruct the constant for tricky values
     where the low 12 bits are >= 0x800 *)
  List.iter
    (fun imm ->
      let program = Rv32_asm.assemble [ Rv32_asm.Li32 (1, imm) ] in
      let value =
        Array.fold_left
          (fun acc insn ->
            match insn with
            | Rv32.Lui (_, hi) -> Int32.shift_left hi 12
            | Rv32.Addi (_, _, lo) -> Int32.add acc lo
            | _ -> Alcotest.fail "unexpected instruction in li32")
          0l program
      in
      Alcotest.(check int32)
        (Printf.sprintf "li32 %ld" imm)
        imm value)
    [ 0l; 1l; -1l; 0x800l; 0xFFFl; 0x7FFFF800l; -2048l; -2049l; Int32.min_int; Int32.max_int ]

(* --- I32: native-int arithmetic vs the Int32 reference ----------------- *)

(* The simulator's hot path computes on native ints in I32's canonical
   sign-extended representation; every operator must agree with plain
   Int32 arithmetic on all inputs, including the overflow and shift
   corner cases. *)
let i32_arb =
  QCheck.make
    ~print:(fun v -> Int32.to_string v)
    QCheck.Gen.(
      frequency
        [
          (4, map Int32.of_int (int_bound 0xFFFF));
          (4, map (fun i -> Int32.of_int (-i)) (int_bound 0xFFFF));
          (2, map Int32.of_int int);
          (1, oneofl [ 0l; 1l; -1l; Int32.min_int; Int32.max_int ]);
        ])

let prop_i32_matches_int32 =
  let open Ggpu_isa in
  QCheck.Test.make ~name:"I32 ops match Int32 reference" ~count:2000
    QCheck.(pair i32_arb i32_arb)
    (fun (a32, b32) ->
      let a = I32.of_int32 a32 and b = I32.of_int32 b32 in
      let eq name got ref32 =
        if I32.to_int32 got <> ref32 then
          QCheck.Test.fail_reportf "%s: %ld op %ld -> %ld, expected %ld" name
            a32 b32 (I32.to_int32 got) ref32
        else true
      in
      let sh = Int32.to_int (Int32.logand b32 31l) in
      eq "add" (I32.add a b) (Int32.add a32 b32)
      && eq "sub" (I32.sub a b) (Int32.sub a32 b32)
      && eq "mul" (I32.mul a b) (Int32.mul a32 b32)
      && eq "and" (a land b) (Int32.logand a32 b32)
      && eq "or" (a lor b) (Int32.logor a32 b32)
      && eq "xor" (a lxor b) (Int32.logxor a32 b32)
      && eq "sll" (I32.sll a b) (Int32.shift_left a32 sh)
      && eq "srl" (I32.srl a b) (Int32.shift_right_logical a32 sh)
      && eq "sra" (I32.sra a b) (Int32.shift_right a32 sh)
      && compare a b = Int32.compare a32 b32
      && I32.ult a b
         = (Int32.unsigned_compare a32 b32 < 0)
      &&
      (* RISC-V M corner cases: x/0 = -1, min/-1 = min, x rem 0 = x *)
      let div_ref =
        if b32 = 0l then -1l
        else if a32 = Int32.min_int && b32 = -1l then Int32.min_int
        else Int32.div a32 b32
      and rem_ref =
        if b32 = 0l then a32
        else if a32 = Int32.min_int && b32 = -1l then 0l
        else Int32.rem a32 b32
      in
      eq "div" (I32.div_signed a b) div_ref
      && eq "rem" (I32.rem_signed a b) rem_ref
      && eq "divu" (I32.div_unsigned a b)
           (if b32 = 0l then -1l else Int32.unsigned_div a32 b32)
      && eq "remu" (I32.rem_unsigned a b)
           (if b32 = 0l then a32 else Int32.unsigned_rem a32 b32)
      && eq "mulh" (I32.mulh a b)
           (Int64.to_int32
              (Int64.shift_right
                 (Int64.mul (Int64.of_int32 a32) (Int64.of_int32 b32))
                 32)))

let prop_i32_canonical =
  let open Ggpu_isa in
  QCheck.Test.make ~name:"I32 results stay canonical (sx is idempotent)"
    ~count:2000
    QCheck.(pair i32_arb i32_arb)
    (fun (a32, b32) ->
      let a = I32.of_int32 a32 and b = I32.of_int32 b32 in
      List.for_all
        (fun v -> I32.sx v = v)
        [
          I32.add a b; I32.sub a b; I32.mul a b; I32.sll a b; I32.srl a b;
          I32.sra a b; I32.div_signed a b; I32.rem_signed a b;
          I32.div_unsigned a b; I32.rem_unsigned a b; I32.mulh a b;
          a land b; a lor b; a lxor b;
        ])

let suite =
  [
    ( "isa",
      [
        QCheck_alcotest.to_alcotest prop_i32_matches_int32;
        QCheck_alcotest.to_alcotest prop_i32_canonical;
        Alcotest.test_case "fgpu roundtrip samples" `Quick test_fgpu_roundtrip;
        Alcotest.test_case "fgpu asm labels" `Quick test_fgpu_asm_labels;
        Alcotest.test_case "fgpu asm wide li" `Quick test_fgpu_asm_wide_li;
        Alcotest.test_case "fgpu asm duplicate label" `Quick
          test_fgpu_asm_duplicate_label;
        Alcotest.test_case "rv32 roundtrip samples" `Quick test_rv32_roundtrip;
        Alcotest.test_case "rv32 asm labels" `Quick test_rv32_asm_labels;
        Alcotest.test_case "rv32 li32 split" `Quick test_rv32_li32_split;
        QCheck_alcotest.to_alcotest prop_fgpu_roundtrip;
        QCheck_alcotest.to_alcotest prop_rv32_roundtrip;
      ] );
  ]
