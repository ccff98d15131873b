(* Kernel-language tests: static checking, reference interpreter,
   lowering/regalloc, and RV32 end-to-end equivalence with the
   interpreter on all seven paper benchmarks. *)

open Ggpu_kernels

let i32 = Alcotest.int
let i32_array = Alcotest.(array i32)

(* --- Check ------------------------------------------------------------ *)

let bad_kernel body params =
  { Ast.name = "bad"; params; body }

let expect_check_error kernel =
  match Check.check kernel with
  | () -> Alcotest.fail "expected check error"
  | exception Check.Error _ -> ()

let test_check_unbound () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", Ast.var "y") ] [])

let test_check_buffer_as_scalar () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", Ast.var "buf") ] [ Ast.Buffer "buf" ])

let test_check_unknown_buffer () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", Ast.load "nope" (Ast.const 0)) ] [])

let test_check_assign_param () =
  expect_check_error
    (bad_kernel [ Ast.Assign ("n", Ast.const 1) ] [ Ast.Scalar "n" ])

let test_check_assign_loop_var () =
  expect_check_error
    (bad_kernel
       [ Ast.For ("i", Ast.const 0, Ast.const 4, [ Ast.Assign ("i", Ast.const 0) ]) ]
       [])

let test_check_redefinition () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", Ast.const 0); Ast.Let ("x", Ast.const 1) ] [])

let test_check_duplicate_param () =
  expect_check_error (bad_kernel [] [ Ast.Scalar "n"; Ast.Buffer "n" ])

let test_check_accepts_suite () =
  List.iter (fun w -> Check.check w.Suite.kernel) Suite.all

(* --- Interpreter ------------------------------------------------------ *)

let test_interp_copy () =
  let w = Suite.copy in
  let size = 64 in
  let args = w.Suite.mk_args ~size in
  Interp.run w.Suite.kernel ~args ~global_size:(w.Suite.global_size ~size)
    ~local_size:w.Suite.local_size;
  let out = List.assoc w.Suite.output_buffer args.Interp.buffers in
  Alcotest.check i32_array "copy output" (w.Suite.expected ~size args) out

let test_interp_out_of_bounds () =
  let kernel =
    {
      Ast.name = "oob";
      params = [ Ast.Buffer "b" ];
      body = [ Ast.Store ("b", Ast.const 99, Ast.const 1) ];
    }
  in
  let args = { Interp.buffers = [ ("b", Array.make 4 0) ]; scalars = [] } in
  match Interp.run kernel ~args ~global_size:1 ~local_size:1 with
  | () -> Alcotest.fail "expected out-of-bounds error"
  | exception Interp.Runtime_error _ -> ()

let test_interp_division_semantics () =
  let kernel =
    {
      Ast.name = "divsem";
      params = [ Ast.Buffer "out" ];
      body =
        [
          Ast.Store ("out", Ast.const 0, Ast.(const 17 /: const 0));
          Ast.Store ("out", Ast.const 1, Ast.(const 17 %: const 0));
          Ast.Store
            ( "out",
              Ast.const 2,
              Ast.(Binop (Div, Const Int32.min_int, const (-1))) );
        ];
    }
  in
  let out = Array.make 3 0 in
  let args = { Interp.buffers = [ ("out", out) ]; scalars = [] } in
  Interp.run kernel ~args ~global_size:1 ~local_size:1;
  Alcotest.check i32 "div by zero" (-1) out.(0);
  Alcotest.check i32 "rem by zero" 17 out.(1);
  Alcotest.check i32 "overflow" Ggpu_isa.I32.min_i32 out.(2)

(* All suite workloads: the reference interpreter must agree with the
   independent OCaml implementations. *)
let test_interp_matches_reference () =
  List.iter
    (fun w ->
      let size = w.Suite.round_size (min 64 w.Suite.riscv_size) in
      let args = w.Suite.mk_args ~size in
      Interp.run w.Suite.kernel ~args
        ~global_size:(w.Suite.global_size ~size)
        ~local_size:(min w.Suite.local_size size);
      let out = List.assoc w.Suite.output_buffer args.Interp.buffers in
      Alcotest.check i32_array
        (Printf.sprintf "%s interp vs reference" w.Suite.name)
        (w.Suite.expected ~size args)
        out)
    Suite.all

(* --- Lowering / regalloc ---------------------------------------------- *)

let test_lower_shapes () =
  let program = Lower.lower Suite.mat_mul.Suite.kernel in
  (* must contain a loop: a label, a backward jump, a conditional branch *)
  let has_label = List.exists (function Vir.Label _ -> true | _ -> false) in
  let has_jump = List.exists (function Vir.Jump _ -> true | _ -> false) in
  let has_branch =
    List.exists (function Vir.Branch_if _ -> true | _ -> false)
  in
  Alcotest.(check bool) "label" true (has_label program.Vir.insns);
  Alcotest.(check bool) "jump" true (has_jump program.Vir.insns);
  Alcotest.(check bool) "branch" true (has_branch program.Vir.insns)

let test_regalloc_fits_all_kernels () =
  List.iter
    (fun w ->
      let fgpu = Codegen_fgpu.compile w.Suite.kernel in
      let rv = Codegen_rv32.compile w.Suite.kernel in
      Alcotest.(check bool)
        (w.Suite.name ^ " compiles")
        true
        (Array.length fgpu.Codegen_fgpu.code > 0
        && Array.length rv.Codegen_rv32.code > 0))
    Suite.all

let test_regalloc_pressure_error () =
  (* a kernel with more simultaneously-live variables than registers *)
  let lets =
    List.init 40 (fun i -> Ast.Let (Printf.sprintf "v%d" i, Ast.const i))
  in
  let uses =
    List.init 40 (fun i ->
        Ast.Store ("out", Ast.const i, Ast.var (Printf.sprintf "v%d" i)))
  in
  let kernel =
    { Ast.name = "pressure"; params = [ Ast.Buffer "out" ]; body = lets @ uses }
  in
  match Codegen_fgpu.compile ~optimise:false kernel with
  | _ -> Alcotest.fail "expected register pressure failure"
  | exception Regalloc.Register_pressure _ -> ()

let test_loop_variable_interval_extension () =
  (* a variable defined before a loop and used only inside it must
     survive allocation even though another variable is defined in
     between: exercising the backward-edge extension *)
  let kernel =
    {
      Ast.name = "loopext";
      params = [ Ast.Buffer "out"; Ast.Scalar "n" ];
      body =
        [
          Ast.Let ("base", Ast.var "n");
          Ast.Let ("acc", Ast.const 0);
          Ast.For
            ( "i",
              Ast.const 0,
              Ast.const 8,
              [ Ast.Assign ("acc", Ast.(var "acc" +: var "base")) ] );
          Ast.Store ("out", Ast.const 0, Ast.var "acc");
        ];
    }
  in
  let args =
    { Interp.buffers = [ ("out", Array.make 1 0) ]; scalars = [ ("n", 5) ] }
  in
  let compiled = Codegen_rv32.compile kernel in
  let result =
    Run_rv32.run compiled ~args ~global_size:1 ~local_size:1 ()
  in
  Alcotest.check i32 "8 * 5" 40 (Run_rv32.output result "out").(0)

(* --- RV32 end-to-end: compiled result equals interpreter result ------- *)

let run_rv32_workload w ~size =
  let args = w.Suite.mk_args ~size in
  let compiled = Codegen_rv32.compile w.Suite.kernel in
  let result =
    Run_rv32.run compiled ~args
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  (args, result)

let test_rv32_end_to_end () =
  List.iter
    (fun w ->
      let size = w.Suite.round_size (min 64 w.Suite.riscv_size) in
      let args, result = run_rv32_workload w ~size in
      Alcotest.check i32_array
        (Printf.sprintf "%s rv32 vs reference" w.Suite.name)
        (w.Suite.expected ~size args)
        (Run_rv32.output result w.Suite.output_buffer))
    Suite.all

let test_rv32_cycles_scale_with_size () =
  let cycles size =
    let _, result = run_rv32_workload Suite.copy ~size in
    result.Run_rv32.stats.Ggpu_riscv.Cpu.cycles
  in
  let c64 = cycles 64 and c128 = cycles 128 in
  Alcotest.(check bool)
    (Printf.sprintf "cycles grow with size (%d vs %d)" c64 c128)
    true
    (c128 > c64 + (c64 / 2))

(* Property: for random sizes, compiled copy == reference. *)
let prop_rv32_copy_random_sizes =
  QCheck.Test.make ~name:"rv32 copy correct on random sizes" ~count:20
    QCheck.(int_range 1 300)
    (fun size ->
      let args, result = run_rv32_workload Suite.copy ~size in
      Run_rv32.output result "dst" = Suite.copy.Suite.expected ~size args)

(* --- the suite against its Int32 oracle --------------------------------- *)

let words = Array.map Ggpu_isa.I32.of_int32

(* Every kernel's inputs and reference output, in I32 words, equal the
   Int32 oracle's (test/suite_oracle.ml) mapped word by word. *)
let prop_suite_matches_int32_oracle =
  QCheck.Test.make ~name:"suite args and expected match the Int32 oracle"
    ~count:20 (QCheck.int_range 1 2048) (fun size ->
      List.for_all
        (fun (w : Suite.t) ->
          let name = w.Suite.name and size = w.Suite.round_size size in
          let args = w.Suite.mk_args ~size in
          let o = Suite_oracle.mk_args name ~size in
          let ok what b =
            b
            || QCheck.Test.fail_reportf "%s at size %d: %s differ" name size
                 what
          in
          ok "buffers"
            (List.map (fun (n, a) -> (n, words a)) o.Suite_oracle.buffers
            = args.Interp.buffers)
          && ok "scalars"
               (List.map
                  (fun (n, v) -> (n, Ggpu_isa.I32.of_int32 v))
                  o.Suite_oracle.scalars
               = args.Interp.scalars)
          && ok "expected outputs"
               (words (Suite_oracle.expected name ~size o)
               = w.Suite.expected ~size args))
        Suite.all)

let prop_gen_array_matches_int32_oracle =
  QCheck.Test.make ~name:"gen_array matches the Int32 oracle" ~count:200
    QCheck.(
      triple int (int_range 0 64)
        (oneof
           [
             int_range 1 1000;
             int_range 1 0x7FFF_FFFF;
             oneofl [ 1; 2; 97; 0x7FFF_FFFF ];
           ]))
    (fun (seed, len, modulus) ->
      Suite.gen_array ~seed ~len ~modulus
      = words (Suite_oracle.gen_array ~seed ~len ~modulus))

let suite =
  [
    ( "kernels",
      [
        Alcotest.test_case "check unbound" `Quick test_check_unbound;
        Alcotest.test_case "check buffer as scalar" `Quick
          test_check_buffer_as_scalar;
        Alcotest.test_case "check unknown buffer" `Quick
          test_check_unknown_buffer;
        Alcotest.test_case "check assign param" `Quick test_check_assign_param;
        Alcotest.test_case "check assign loop var" `Quick
          test_check_assign_loop_var;
        Alcotest.test_case "check redefinition" `Quick test_check_redefinition;
        Alcotest.test_case "check duplicate param" `Quick
          test_check_duplicate_param;
        Alcotest.test_case "check accepts suite" `Quick test_check_accepts_suite;
        Alcotest.test_case "interp copy" `Quick test_interp_copy;
        Alcotest.test_case "interp out of bounds" `Quick
          test_interp_out_of_bounds;
        Alcotest.test_case "interp division semantics" `Quick
          test_interp_division_semantics;
        Alcotest.test_case "interp matches reference" `Quick
          test_interp_matches_reference;
        Alcotest.test_case "lower shapes" `Quick test_lower_shapes;
        Alcotest.test_case "regalloc fits suite" `Quick
          test_regalloc_fits_all_kernels;
        Alcotest.test_case "regalloc pressure error" `Quick
          test_regalloc_pressure_error;
        Alcotest.test_case "loop interval extension" `Quick
          test_loop_variable_interval_extension;
        Alcotest.test_case "rv32 end to end" `Quick test_rv32_end_to_end;
        Alcotest.test_case "rv32 cycles scale" `Quick
          test_rv32_cycles_scale_with_size;
        QCheck_alcotest.to_alcotest prop_rv32_copy_random_sizes;
        QCheck_alcotest.to_alcotest prop_suite_matches_int32_oracle;
        QCheck_alcotest.to_alcotest prop_gen_array_matches_int32_oracle;
      ] );
  ]
