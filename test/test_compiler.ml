(* Tests for the compiler front end and middle end: the textual parser,
   the VIR optimiser, and their end-to-end composition (parsed +
   optimised kernels still agree with the reference interpreter on both
   targets). *)

open Ggpu_kernels
open Ast_build

let i32_array = Alcotest.(array int)

(* --- Parser ------------------------------------------------------------ *)

let vec_mul_src =
  {|
  // element-wise product
  kernel vec_mul(global int* a, global int* b, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
      out[i] = a[i] * b[i];
    }
  }
|}

let test_parse_vec_mul () =
  let kernel = Parse.parse_one vec_mul_src in
  Alcotest.(check string) "name" "vec_mul" kernel.Ast.name;
  Alcotest.(check (list string)) "buffers" [ "a"; "b"; "out" ]
    (Ast.buffers kernel);
  Alcotest.(check (list string)) "scalars" [ "n" ] (Ast.scalars kernel)

let test_parse_matches_dsl_semantics () =
  (* this vec_mul, with its comment and indentation, and the suite's
     vec_mul, parsed from its own source, must compute the same
     function *)
  let parsed = Parse.parse_one vec_mul_src in
  let size = 128 in
  let args1 = Suite.vec_mul.Suite.mk_args ~size in
  let args2 = Suite.vec_mul.Suite.mk_args ~size in
  Interp.run Suite.vec_mul.Suite.kernel ~args:args1 ~global_size:size
    ~local_size:64;
  Interp.run parsed ~args:args2 ~global_size:size ~local_size:64;
  Alcotest.check i32_array "same results"
    (List.assoc "out" args1.Mem_image.buffers)
    (List.assoc "out" args2.Mem_image.buffers)

let test_parse_control_flow () =
  let src =
    {|
    kernel count_down(global int* out, int n) {
      int i = get_global_id(0);
      if (i < n) {
        int acc = 0;
        for (int k = 0; k < 10; k++) {
          acc = acc + k;
        }
        int v = i;
        while (v > 0) {
          acc = acc + 1;
          v = v - 8;
        }
        out[i] = acc;
      } else {
        /* out of range: mark it */
        out[i] = 0 - 1;
      }
    }
  |}
  in
  let kernel = Parse.parse_one src in
  let n = 32 in
  let out = Array.make n 0 in
  let args = { Mem_image.buffers = [ ("out", out) ]; scalars = [ ("n", n) ] } in
  (* reference: 45 + ceil(i/8) *)
  Interp.run kernel ~args ~global_size:n ~local_size:32;
  let expect i = 45 + ((i + 7) / 8) in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "out[%d]" i) (expect i) v)
    out

let test_parse_precedence () =
  (* 2 + 3 * 4 == 14, (2 + 3) * 4 == 20, shifts bind looser than + *)
  let src =
    {|
    kernel prec(global int* out) {
      out[0] = 2 + 3 * 4;
      out[1] = (2 + 3) * 4;
      out[2] = 1 << 2 + 1;
      out[3] = 10 - 2 - 3;
      out[4] = -5 + 1;
      out[5] = !0;
    }
  |}
  in
  let kernel = Parse.parse_one src in
  let out = Array.make 6 99 in
  let args = { Mem_image.buffers = [ ("out", out) ]; scalars = [] } in
  Interp.run kernel ~args ~global_size:1 ~local_size:1;
  Alcotest.check i32_array "precedence" [| 14; 20; 8; 5; -4; 1 |] out

let expect_parse_error src =
  match Parse.parse src with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parse.Parse_error _ -> ()
  | exception Check.Error _ -> ()

let test_parse_errors () =
  expect_parse_error "kernel broken(";
  expect_parse_error "kernel k() { int x = ; }";
  expect_parse_error "kernel k() { y = 1; }" (* checker rejects unbound y *);
  expect_parse_error "kernel k() { int x = get_nothing(0); }";
  expect_parse_error "kernel k() { for (int i = 0; j < 4; i++) {} }"

let test_parse_error_reports_check_violation () =
  (* the parser runs the static checker: unknown variables are rejected
     even though the syntax is fine *)
  match Parse.parse "kernel k(global int* out) { out[0] = undefined_var; }" with
  | _ -> Alcotest.fail "expected check error"
  | exception Check.Error _ -> ()

let test_parse_multiple_kernels () =
  let kernels =
    Parse.parse
      {|
      kernel a(global int* x) { x[0] = 1; }
      kernel b(global int* x) { x[0] = 2; }
    |}
  in
  Alcotest.(check (list string)) "names" [ "a"; "b" ]
    (List.map (fun k -> k.Ast.name) kernels)

(* --- Optimiser --------------------------------------------------------- *)

let count_insns program = List.length program.Vir.insns

let test_opt_constant_folding () =
  let kernel =
    Parse.parse_one
      "kernel k(global int* out) { out[0] = 2 + 3 * 4; out[1] = 100 / 0; }"
  in
  let optimised = Opt.optimise (Lower.lower kernel) in
  (* after folding there must be no Bin instructions left *)
  let bins =
    List.filter
      (function Vir.Bin _ | Vir.Cmp _ -> true | _ -> false)
      optimised.Vir.insns
  in
  Alcotest.(check int) "all arithmetic folded" 0 (List.length bins)

let test_opt_division_semantics_preserved () =
  (* folding 100/0 must produce the target semantics (-1), not crash *)
  let kernel =
    Parse.parse_one "kernel k(global int* out) { out[0] = 100 / 0; }"
  in
  let out = Array.make 1 0 in
  let args = { Mem_image.buffers = [ ("out", out) ]; scalars = [] } in
  Interp.run kernel ~args ~global_size:1 ~local_size:1;
  let compiled = Codegen_rv32.compile kernel in
  let result =
    Run_rv32.run compiled
      ~args:{ Mem_image.buffers = [ ("out", Array.make 1 0) ]; scalars = [] }
      ~global_size:1 ~local_size:1 ()
  in
  Alcotest.(check int) "interp" (-1) out.(0);
  Alcotest.(check int) "compiled+folded" (-1) (Run_rv32.output result "out").(0)

let test_opt_shrinks_programs () =
  List.iter
    (fun w ->
      let plain = Lower.lower w.Suite.kernel in
      let optimised = Opt.optimise plain in
      Alcotest.(check bool)
        (Printf.sprintf "%s not larger (%d -> %d)" w.Suite.name
           (count_insns plain) (count_insns optimised))
        true
        (count_insns optimised <= count_insns plain))
    Suite.all

(* Constant folding computes what the targets compute at run time:
   for every operation and operand pairs including the corner cases
   (zero divisors, min_int / -1, shift amounts past 31), a kernel
   stores each pair's result twice, once from two constants (folded
   away when optimised) and once from two loaded words.  Both targets,
   optimised or not, store Interp's values, and the two halves agree
   with each other and with {!Opt.fold_binop}. *)
let test_opt_folding_matches_run_time () =
  let min = Ggpu_isa.I32.min_i32 and max = 0x7FFF_FFFF in
  let pairs =
    [
      (7, 3); (-7, 2); (min, -1); (17, 0); (0x1234_5678, 33); (-1, 31);
      (min, 0); (5, -3); (-8, 32); (1, 63); (max, 1); (-1, -1);
    ]
  in
  let n = List.length pairs in
  let input = Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) pairs) in
  List.iter
    (fun op ->
      let name = Vir.binop_to_string op in
      let kernel =
        let open Ast in
        {
          name = "fold";
          params = [ Buffer "a"; Buffer "out" ];
          body =
            List.concat
              (List.mapi
                 (fun j (a, b) ->
                   [
                     Store ("out", const (2 * j), Binop (op, const a, const b));
                     Store
                       ( "out",
                         const ((2 * j) + 1),
                         Binop
                           ( op,
                             load "a" (const (2 * j)),
                             load "a" (const ((2 * j) + 1)) ) );
                   ])
                 pairs);
        }
      in
      let args () =
        {
          Mem_image.buffers =
            [ ("a", Array.copy input); ("out", Array.make (2 * n) 0) ];
          scalars = [];
        }
      in
      let reference =
        let args = args () in
        Interp.run kernel ~args ~global_size:1 ~local_size:1;
        List.assoc "out" args.Mem_image.buffers
      in
      List.iteri
        (fun j (a, b) ->
          let folded =
            Option.get (Opt.fold_binop op (Int32.of_int a) (Int32.of_int b))
          in
          let label = Printf.sprintf "%s (%d, %d)" name a b in
          Alcotest.(check int) (label ^ " folded") (Int32.to_int folded)
            reference.(2 * j);
          Alcotest.(check int) (label ^ " at run time") reference.(2 * j)
            reference.((2 * j) + 1))
        pairs;
      let bins =
        List.filter
          (function Vir.Bin _ -> true | _ -> false)
          (Opt.optimise (Lower.lower kernel)).Vir.insns
      in
      Alcotest.(check int) (name ^ ": only the loaded pairs compute") n
        (List.length bins);
      List.iter
        (fun optimise ->
          let label target =
            Printf.sprintf "%s on %s%s" name target
              (if optimise then "" else ", unoptimised")
          in
          let fgpu =
            Run_fgpu.run
              (Codegen_fgpu.compile ~optimise kernel)
              ~args:(args ()) ~global_size:1 ~local_size:1 ()
          in
          Alcotest.check i32_array (label "fgpu") reference
            (Run_fgpu.output fgpu "out");
          let rv32 =
            Run_rv32.run
              (Codegen_rv32.compile ~optimise kernel)
              ~args:(args ()) ~global_size:1 ~local_size:1 ()
          in
          Alcotest.check i32_array (label "rv32") reference
            (Run_rv32.output rv32 "out"))
        [ true; false ])
    Ast.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sra ]

(* An update by an identity ([s = s + 0], [s = 1 * s], ...) simplifies
   to a copy of the variable into itself, which neither target spends
   an instruction on: twelve of them compile to exactly as many words
   as one plain [s = s] (both keep the [int s = ...] copy, since [s] is
   no longer assigned once), and compute the same. *)
let test_identity_updates_compile_to_nothing () =
  let open Ast in
  let s = var "s" in
  let kernel updates =
    {
      name = "identity";
      params = [ Buffer "a"; Buffer "out" ];
      body =
        [ Let ("i", Global_id); Let ("s", load "a" (var "i")) ]
        @ List.map (fun e -> Assign ("s", e)) updates
        @ [ Store ("out", var "i", s) ];
    }
  in
  (* [none] leaves [s] single-assignment; [plain]'s [s = s] does not,
     so its initialiser must land in [s]'s register, with no copy *)
  let none = kernel [] and plain = kernel [ s ] in
  let padded =
    kernel
      [
        s +: const 0;
        const 0 +: s;
        s -: const 0;
        s *: const 1;
        const 1 *: s;
        s /: const 1;
        Binop (Or, s, const 0);
        Binop (Or, const 0, s);
        Binop (Xor, s, const 0);
        Binop (Shl, s, const 0);
        Binop (Shr, s, const 0);
        Binop (Sra, s, const 0);
      ]
  in
  let fgpu_words k = Array.length (Codegen_fgpu.compile k).Codegen_fgpu.code
  and rv32_words k = Array.length (Codegen_rv32.compile k).Codegen_rv32.code in
  Alcotest.(check int) "fgpu words, s = s" (fgpu_words none) (fgpu_words plain);
  Alcotest.(check int) "rv32 words, s = s" (rv32_words none) (rv32_words plain);
  Alcotest.(check int) "fgpu words" (fgpu_words plain) (fgpu_words padded);
  Alcotest.(check int) "rv32 words" (rv32_words plain) (rv32_words padded);
  let n = 8 in
  let args () =
    {
      Mem_image.buffers =
        [
          ("a", Array.init n (fun i -> (i * 7919) - 20000));
          ("out", Array.make n 0);
        ];
      scalars = [];
    }
  in
  let run_fgpu k =
    Run_fgpu.output
      (Run_fgpu.run (Codegen_fgpu.compile k) ~args:(args ()) ~global_size:n
         ~local_size:n ())
      "out"
  in
  let run_rv32 k =
    Run_rv32.output
      (Run_rv32.run (Codegen_rv32.compile k) ~args:(args ()) ~global_size:n
         ~local_size:n ())
      "out"
  in
  Alcotest.check i32_array "fgpu output" (run_fgpu plain) (run_fgpu padded);
  Alcotest.check i32_array "rv32 output" (run_rv32 plain) (run_rv32 padded)

let test_opt_preserves_stores_and_control () =
  let program = Lower.lower Suite.parallel_sel.Suite.kernel in
  let optimised = Opt.optimise program in
  let count p f = List.length (List.filter f p.Vir.insns) in
  let stores = count program (function Vir.Store _ -> true | _ -> false) in
  let stores' = count optimised (function Vir.Store _ -> true | _ -> false) in
  Alcotest.(check int) "stores preserved" stores stores';
  let rets = count optimised (function Vir.Ret -> true | _ -> false) in
  Alcotest.(check bool) "ret preserved" true (rets >= 1)

(* Property: optimised code computes the same function as unoptimised,
   end to end on the GPU, for every suite kernel at a random size. *)
let prop_opt_semantics_preserved =
  QCheck.Test.make ~name:"optimiser preserves semantics (gpu)" ~count:15
    QCheck.(pair (int_range 0 6) (int_range 1 200))
    (fun (kernel_idx, size) ->
      let w = List.nth Suite.all kernel_idx in
      let size = w.Suite.round_size (max 1 size) in
      let run ~optimise =
        let args = w.Suite.mk_args ~size in
        let compiled = Codegen_fgpu.compile ~optimise w.Suite.kernel in
        let result =
          Run_fgpu.run compiled ~args
            ~global_size:(w.Suite.global_size ~size)
            ~local_size:(min w.Suite.local_size size)
            ()
        in
        Run_fgpu.output result w.Suite.output_buffer
      in
      run ~optimise:true = run ~optimise:false)

let test_opt_speeds_up_execution () =
  (* optimisation must reduce (or preserve) simulated cycles *)
  let w = Suite.mat_mul in
  let size = 256 in
  let cycles ~optimise =
    let args = w.Suite.mk_args ~size in
    let compiled = Codegen_fgpu.compile ~optimise w.Suite.kernel in
    let result =
      Run_fgpu.run compiled ~args ~global_size:size ~local_size:64 ()
    in
    result.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles
  in
  Alcotest.(check bool) "not slower" true
    (cycles ~optimise:true <= cycles ~optimise:false)

(* --- Verilog export ----------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_verilog_export () =
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  let v = Ggpu_hw.Verilog.to_string nl in
  Alcotest.(check bool) "module header" true (contains v "module ggpu_1cu");
  Alcotest.(check bool) "macro instantiated" true (contains v "sram_2048x128_2p");
  Alcotest.(check bool) "has always blocks" true (contains v "always @(posedge clk)");
  Alcotest.(check bool) "endmodule" true (contains v "endmodule");
  (* divided memories show up as bank instances after the DSE *)
  let _ =
    Ggpu_core.Dse.explore Ggpu_tech.Tech.default_65nm nl ~num_cus:1
      ~period_ns:1.695
  in
  let v2 = Ggpu_hw.Verilog.to_string nl in
  Alcotest.(check bool) "bank macros appear" true (contains v2 "bank")

let suite =
  [
    ( "compiler",
      [
        Alcotest.test_case "parse vec_mul" `Quick test_parse_vec_mul;
        Alcotest.test_case "parse matches dsl" `Quick
          test_parse_matches_dsl_semantics;
        Alcotest.test_case "parse control flow" `Quick test_parse_control_flow;
        Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "parse runs checker" `Quick
          test_parse_error_reports_check_violation;
        Alcotest.test_case "parse multiple kernels" `Quick
          test_parse_multiple_kernels;
        Alcotest.test_case "opt constant folding" `Quick
          test_opt_constant_folding;
        Alcotest.test_case "opt division semantics" `Quick
          test_opt_division_semantics_preserved;
        Alcotest.test_case "opt folding matches run time" `Quick
          test_opt_folding_matches_run_time;
        Alcotest.test_case "identity updates compile to nothing" `Quick
          test_identity_updates_compile_to_nothing;
        Alcotest.test_case "opt shrinks programs" `Quick test_opt_shrinks_programs;
        Alcotest.test_case "opt preserves stores" `Quick
          test_opt_preserves_stores_and_control;
        Alcotest.test_case "opt not slower" `Quick test_opt_speeds_up_execution;
        Alcotest.test_case "verilog export" `Quick test_verilog_export;
        QCheck_alcotest.to_alcotest prop_opt_semantics_preserved;
      ] );
  ]
