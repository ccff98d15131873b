(* RV32IM simulator tests: small hand-written programs, M-extension
   corner cases, timing model sanity. *)

open Ggpu_isa
open Ggpu_riscv
open Ast_build

let run_program ?(mem_words = 1024) items ~setup =
  let program = Rv32_asm.assemble items in
  let cpu = Cpu.create ~mem:(Array.make mem_words 0) ~program () in
  setup cpu;
  let stats = Cpu.run cpu in
  (cpu, stats)

let test_arith_loop () =
  (* sum 1..10 into x10 *)
  let items =
    Rv32_asm.
      [
        I (Rv32.Addi (10, 0, 0l));
        I (Rv32.Addi (5, 0, 1l));
        I (Rv32.Addi (6, 0, 11l));
        Label "loop";
        I (Rv32.Add (10, 10, 5));
        I (Rv32.Addi (5, 5, 1l));
        Blt_to (5, 6, "loop");
        I Rv32.Ecall;
      ]
  in
  let cpu, _ = run_program items ~setup:(fun _ -> ()) in
  Alcotest.(check int) "sum 1..10" 55 (Cpu.get_reg cpu 10)

let test_memory () =
  let items =
    Rv32_asm.
      [
        I (Rv32.Addi (5, 0, 0x100l));
        I (Rv32.Addi (6, 0, 42l));
        I (Rv32.Sw (6, 5, 0));
        I (Rv32.Lw (7, 5, 0));
        I (Rv32.Addi (7, 7, 1l));
        I (Rv32.Sw (7, 5, 4));
        I Rv32.Ecall;
      ]
  in
  let cpu, _ = run_program items ~setup:(fun _ -> ()) in
  Alcotest.(check int) "store/load" 43 (Cpu.load_word cpu ~addr:0x104)

let test_div_corner_cases () =
  let check_op name op a b expect =
    let items = [ Rv32_asm.I (op 10 5 6); Rv32_asm.I Rv32.Ecall ] in
    let cpu, _ =
      run_program items ~setup:(fun cpu ->
          Cpu.set_reg cpu 5 a;
          Cpu.set_reg cpu 6 b)
    in
    Alcotest.(check int) name expect (Cpu.get_reg cpu 10)
  in
  let div d a b = Rv32.Div (d, a, b) in
  let rem d a b = Rv32.Rem (d, a, b) in
  let divu d a b = Rv32.Divu (d, a, b) in
  let remu d a b = Rv32.Remu (d, a, b) in
  check_op "div by zero" div 17 0 (-1);
  check_op "rem by zero" rem 17 0 17;
  check_op "div overflow" div I32.min_i32 (-1) I32.min_i32;
  check_op "rem overflow" rem I32.min_i32 (-1) 0;
  check_op "divu by zero" divu 17 0 (-1);
  check_op "remu by zero" remu 17 0 17;
  check_op "plain div" div (-7) 2 (-3);
  check_op "plain rem" rem (-7) 2 (-1);
  check_op "divu of a negative" divu (-7) 2 0x7FFF_FFFC;
  check_op "remu of a negative" remu (-7) 2 1

let test_mulh () =
  let items = [ Rv32_asm.I (Rv32.Mulh (10, 5, 6)); Rv32_asm.I Rv32.Ecall ] in
  let cpu, _ =
    run_program items ~setup:(fun cpu ->
        Cpu.set_reg cpu 5 0x40000000;
        Cpu.set_reg cpu 6 16)
  in
  (* 0x40000000 * 16 = 2^34; high word = 4 *)
  Alcotest.(check int) "mulh" 4 (Cpu.get_reg cpu 10);
  (* min_int squared is 2^62, one past the native int range *)
  let cpu, _ =
    run_program items ~setup:(fun cpu ->
        Cpu.set_reg cpu 5 I32.min_i32;
        Cpu.set_reg cpu 6 I32.min_i32)
  in
  Alcotest.(check int) "mulh min_int^2" 0x40000000 (Cpu.get_reg cpu 10)

(* A register shift amount uses its low five bits, as the kernel
   language's [land 31] does: 32 shifts by 0, 33 by 1, -1 by 31. *)
let test_register_shift_amounts () =
  let shift mk a amount =
    let cpu, _ =
      run_program
        [ Rv32_asm.I (mk 10 5 6); Rv32_asm.I Rv32.Ecall ]
        ~setup:(fun cpu ->
          Cpu.set_reg cpu 5 a;
          Cpu.set_reg cpu 6 amount)
    in
    Cpu.get_reg cpu 10
  in
  (* negative, so the two right shifts differ *)
  let a = -0x1234_5679 in
  List.iter
    (fun (amount, low) ->
      let expect f = Int32.to_int (f (Int32.of_int a) low) in
      let label name = Printf.sprintf "%s by %d" name amount in
      Alcotest.(check int)
        (label "sll")
        (expect Int32.shift_left)
        (shift (fun d a b -> Rv32.Sll (d, a, b)) a amount);
      Alcotest.(check int)
        (label "srl")
        (expect Int32.shift_right_logical)
        (shift (fun d a b -> Rv32.Srl (d, a, b)) a amount);
      Alcotest.(check int)
        (label "sra")
        (expect Int32.shift_right)
        (shift (fun d a b -> Rv32.Sra (d, a, b)) a amount))
    [
      (0, 0); (1, 1); (31, 31); (32, 0); (33, 1); (63, 31); (-1, 31);
      (I32.min_i32, 0);
    ]

(* An instruction reads its sources before it writes its destination,
   so the destination may be one of them (the compiler writes
   [s = s op x] and [s = x op s] that way): [op x5, x5, x6],
   [op x6, x5, x6] and [op x5, x5, x5] leave what [op x10, x5, x6] and
   [op x10, x5, x5] leave, for every ALU instruction, on operand pairs
   that include the M extension's corner cases. *)
let test_alu_dst_is_src () =
  let result insn ~rd a b =
    let cpu, _ =
      run_program [ Rv32_asm.I insn; Rv32_asm.I Rv32.Ecall ]
        ~setup:(fun cpu ->
          Cpu.set_reg cpu 5 a;
          Cpu.set_reg cpu 6 b)
    in
    Cpu.get_reg cpu rd
  in
  let r_type =
    Rv32.
      [
        ("add", fun d a b -> Add (d, a, b));
        ("sub", fun d a b -> Sub (d, a, b));
        ("sll", fun d a b -> Sll (d, a, b));
        ("slt", fun d a b -> Slt (d, a, b));
        ("sltu", fun d a b -> Sltu (d, a, b));
        ("xor", fun d a b -> Xor (d, a, b));
        ("srl", fun d a b -> Srl (d, a, b));
        ("sra", fun d a b -> Sra (d, a, b));
        ("or", fun d a b -> Or (d, a, b));
        ("and", fun d a b -> And (d, a, b));
        ("mul", fun d a b -> Mul (d, a, b));
        ("mulh", fun d a b -> Mulh (d, a, b));
        ("div", fun d a b -> Div (d, a, b));
        ("divu", fun d a b -> Divu (d, a, b));
        ("rem", fun d a b -> Rem (d, a, b));
        ("remu", fun d a b -> Remu (d, a, b));
      ]
  in
  let i_type =
    Rv32.
      [
        ("addi", fun d a -> Addi (d, a, -7l));
        ("slti", fun d a -> Slti (d, a, 5l));
        ("sltiu", fun d a -> Sltiu (d, a, -1l));
        ("xori", fun d a -> Xori (d, a, 0x5A5l));
        ("ori", fun d a -> Ori (d, a, -16l));
        ("andi", fun d a -> Andi (d, a, 0x7F0l));
        ("slli", fun d a -> Slli (d, a, 31));
        ("srli", fun d a -> Srli (d, a, 1));
        ("srai", fun d a -> Srai (d, a, 7));
      ]
  in
  let min = I32.min_i32 in
  List.iter
    (fun (a, b) ->
      let label name form = Printf.sprintf "%s %s (%d, %d)" name form a b in
      List.iter
        (fun (name, mk) ->
          let ab = result (mk 10 5 6) ~rd:10 a b in
          let aa = result (mk 10 5 5) ~rd:10 a b in
          Alcotest.(check int)
            (label name "rd = rs1") ab
            (result (mk 5 5 6) ~rd:5 a b);
          Alcotest.(check int)
            (label name "rd = rs2") ab
            (result (mk 6 5 6) ~rd:6 a b);
          Alcotest.(check int)
            (label name "rd = rs1 = rs2")
            aa
            (result (mk 5 5 5) ~rd:5 a b))
        r_type;
      List.iter
        (fun (name, mk) ->
          Alcotest.(check int)
            (label name "rd = rs1")
            (result (mk 10 5) ~rd:10 a b)
            (result (mk 5 5) ~rd:5 a b))
        i_type)
    [
      (7, 3); (-7, 2); (min, -1); (17, 0); (0x1234_5678, 33); (-1, 31);
      (min, min); (0x7FFF_FFFF, -1);
    ]

let test_x0_is_zero () =
  let items =
    [ Rv32_asm.I (Rv32.Addi (0, 0, 42l)); Rv32_asm.I Rv32.Ecall ]
  in
  let cpu, _ = run_program items ~setup:(fun _ -> ()) in
  Alcotest.(check int) "x0 writes ignored" 0 (Cpu.get_reg cpu 0)

let test_timing_div_heavier_than_add () =
  let mk op = [ Rv32_asm.I op; Rv32_asm.I Rv32.Ecall ] in
  let run items =
    let _, stats =
      run_program items ~setup:(fun cpu ->
          Cpu.set_reg cpu 5 100;
          Cpu.set_reg cpu 6 7)
    in
    stats.Cpu.cycles
  in
  let add_cycles = run (mk (Rv32.Add (10, 5, 6))) in
  let div_cycles = run (mk (Rv32.Div (10, 5, 6))) in
  Alcotest.(check bool) "div slower" true (div_cycles > add_cycles + 20)

let test_taken_branch_penalty () =
  (* taken branch costs more than fall-through *)
  let taken =
    Rv32_asm.
      [ Beq_to (0, 0, "skip"); I (Rv32.Addi (5, 5, 1l)); Label "skip"; I Rv32.Ecall ]
  in
  let not_taken =
    Rv32_asm.
      [ Bne_to (0, 0, "skip"); I (Rv32.Addi (5, 5, 1l)); Label "skip"; I Rv32.Ecall ]
  in
  let cycles items =
    let _, stats = run_program items ~setup:(fun _ -> ()) in
    stats.Cpu.cycles
  in
  (* taken path: branch(3) + ecall; not taken: branch(1) + addi(1) + ecall *)
  Alcotest.(check bool) "penalty" true (cycles taken > cycles not_taken - 1)

(* Every instruction class pays exactly its timing-model cost: a
   straight program with one of each, a taken and a fall-through
   branch. *)
let test_cycle_cost_per_class () =
  let items =
    Rv32_asm.
      [
        I (Rv32.Addi (5, 0, 0x100l));
        I (Rv32.Lw (6, 5, 0));
        I (Rv32.Sw (6, 5, 4));
        I (Rv32.Mul (7, 6, 6));
        I (Rv32.Div (7, 6, 5));
        Beq_to (0, 0, "taken");
        I (Rv32.Addi (8, 8, 1l));
        Label "taken";
        Bne_to (0, 0, "fall");
        Label "fall";
        Jal_to (1, "jumped");
        Label "jumped";
        I Rv32.Ecall;
      ]
  in
  let _, stats = run_program items ~setup:(fun _ -> ()) in
  let tm = Timing_model.cv32e40p in
  let open Timing_model in
  Alcotest.(check int) "cycles"
    (tm.base + tm.load + tm.store + tm.mul + tm.div + tm.branch_taken
   + tm.base + tm.jump + tm.base)
    stats.Cpu.cycles;
  Alcotest.(check (list int)) "instructions, loads, stores, branches, taken"
    [ 9; 1; 1; 2; 1 ]
    [
      stats.Cpu.instructions; stats.Cpu.loads; stats.Cpu.stores;
      stats.Cpu.branches; stats.Cpu.taken_branches;
    ]

(* A step allocates nothing: a longer loop adds instructions but no
   minor-heap words.  The loop body loads, multiplies, divides, stores
   and branches.  Measured as the difference of two runs, so per-run
   allocations (the memory image, the span) cancel. *)
let test_step_allocation_free () =
  let open Ggpu_kernels in
  let open Ast in
  let kernel =
    {
      name = "rv_loop_alloc";
      params = [ Buffer "a"; Buffer "out"; Scalar "iters" ];
      body =
        [
          Let ("i", Global_id);
          Let ("acc", const 1);
          For
            ( "k",
              const 0,
              var "iters",
              [
                Assign
                  ( "acc",
                    (var "acc" *: load "a" (Binop (And, var "k", const 63)))
                    /: (var "k" +: const 1) );
                Store ("out", var "i", var "acc");
              ] );
        ];
    }
  in
  let compiled = Codegen_rv32.compile kernel in
  let run iters =
    let args =
      {
        Mem_image.buffers =
          [ ("a", Array.init 64 (fun i -> i + 1)); ("out", Array.make 4 0) ];
        scalars = [ ("iters", iters) ];
      }
    in
    let before = Gc.minor_words () in
    let r = Run_rv32.run compiled ~args ~global_size:4 ~local_size:4 () in
    (Gc.minor_words () -. before, r.Run_rv32.stats.Cpu.instructions)
  in
  ignore (run 1);
  let words_lo, insns_lo = run 16 in
  let words_hi, insns_hi = run 4096 in
  let per_insn = (words_hi -. words_lo) /. float_of_int (insns_hi - insns_lo) in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per extra instruction" per_insn)
    true (per_insn < 0.1)

let test_trap_on_bad_access () =
  let items = [ Rv32_asm.I (Rv32.Lw (10, 5, 1)); Rv32_asm.I Rv32.Ecall ] in
  match
    run_program items ~setup:(fun cpu -> Cpu.set_reg cpu 5 0x100)
  with
  | _ -> Alcotest.fail "expected misaligned trap"
  | exception Cpu.Trap _ -> ()

let test_out_of_fuel () =
  let items = Rv32_asm.[ Label "spin"; Jal_to (0, "spin") ] in
  match
    let program = Rv32_asm.assemble items in
    let cpu = Cpu.create ~mem:(Array.make 64 0) ~program () in
    Cpu.run ~fuel:1000 cpu
  with
  | _ -> Alcotest.fail "expected out-of-fuel"
  | exception Cpu.Out_of_fuel _ -> ()

let suite =
  [
    ( "riscv",
      [
        Alcotest.test_case "arith loop" `Quick test_arith_loop;
        Alcotest.test_case "memory" `Quick test_memory;
        Alcotest.test_case "div corner cases" `Quick test_div_corner_cases;
        Alcotest.test_case "mulh" `Quick test_mulh;
        Alcotest.test_case "register shift amounts" `Quick
          test_register_shift_amounts;
        Alcotest.test_case "alu destination may be a source" `Quick
          test_alu_dst_is_src;
        Alcotest.test_case "x0 is zero" `Quick test_x0_is_zero;
        Alcotest.test_case "div timing" `Quick test_timing_div_heavier_than_add;
        Alcotest.test_case "branch penalty" `Quick test_taken_branch_penalty;
        Alcotest.test_case "cycle cost per class" `Quick
          test_cycle_cost_per_class;
        Alcotest.test_case "rv32 step allocation-free" `Quick
          test_step_allocation_free;
        Alcotest.test_case "trap on bad access" `Quick test_trap_on_bad_access;
        Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
      ] );
  ]
