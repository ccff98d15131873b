(* Kernel-language tests: static checking, reference interpreter,
   lowering/regalloc, and RV32 end-to-end equivalence with the
   interpreter on all seven paper benchmarks. *)

open Ggpu_kernels
open Ast_build

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
    (bad_kernel [ Ast.Let ("x", var "y") ] [])

let test_check_buffer_as_scalar () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", var "buf") ] [ Ast.Buffer "buf" ])

let test_check_unknown_buffer () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", load "nope" (const 0)) ] [])

let test_check_assign_param () =
  expect_check_error
    (bad_kernel [ Ast.Assign ("n", const 1) ] [ Ast.Scalar "n" ])

let test_check_assign_loop_var () =
  expect_check_error
    (bad_kernel
       [ Ast.For ("i", const 0, const 4, [ Ast.Assign ("i", const 0) ]) ]
       [])

let test_check_redefinition () =
  expect_check_error
    (bad_kernel [ Ast.Let ("x", const 0); Ast.Let ("x", const 1) ] [])

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
  let out = List.assoc w.Suite.output_buffer args.Mem_image.buffers in
  Alcotest.check i32_array "copy output" (w.Suite.expected ~size args) out

let test_interp_out_of_bounds () =
  let kernel =
    {
      Ast.name = "oob";
      params = [ Ast.Buffer "b" ];
      body = [ Ast.Store ("b", const 99, const 1) ];
    }
  in
  let args = { Mem_image.buffers = [ ("b", Array.make 4 0) ]; scalars = [] } in
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
          Ast.Store ("out", const 0, const 17 /: const 0);
          Ast.Store ("out", const 1, const 17 %: const 0);
          Ast.Store
            ( "out",
              const 2,
              Ast.(Binop (Div, Const Int32.min_int, const (-1))) );
        ];
    }
  in
  let out = Array.make 3 0 in
  let args = { Mem_image.buffers = [ ("out", out) ]; scalars = [] } in
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
      let out = List.assoc w.Suite.output_buffer args.Mem_image.buffers in
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
  Alcotest.(check bool) "branch" true (has_branch program.Vir.insns);
  (* an assignment of a binary operation is one Bin straight into the
     variable's register, whichever operand the variable is, with no
     copy after it; a declaration's load lands in the variable's
     register too *)
  let kernel =
    {
      Ast.name = "acc";
      params = [ Ast.Buffer "a"; Ast.Buffer "out" ];
      body =
        [
          Ast.Let ("x", load "a" Ast.Global_id);
          Ast.Let ("acc", const 0);
          Ast.Assign ("acc", var "acc" +: var "x");
          Ast.Assign ("acc", var "x" -: var "acc");
          Ast.Store ("out", Ast.Global_id, var "acc");
        ];
    }
  in
  let insn =
    Alcotest.testable
      (fun ppf i -> Format.pp_print_string ppf (Vir.insn_to_string i))
      ( = )
  in
  match (Lower.lower kernel).Vir.insns with
  | _ :: Vir.Load (x, "a", _) :: Vir.Mov (acc, Vir.Imm 0l) :: add :: sub
    :: next :: _ ->
      Alcotest.check insn "acc = acc + x"
        (Vir.Bin (Ast.Add, acc, Vir.Reg acc, Vir.Reg x))
        add;
      Alcotest.check insn "acc = x - acc"
        (Vir.Bin (Ast.Sub, acc, Vir.Reg x, Vir.Reg acc))
        sub;
      Alcotest.(check bool)
        "no copy after the update" false
        (match next with Vir.Mov _ -> true | _ -> false)
  | insns ->
      Alcotest.failf "unexpected program: %s"
        (String.concat "; " (List.map Vir.insn_to_string insns))

(* Assignments of a binary operation and loop increments: each updates
   an already-defined register in place. *)
let rec count_updates stmts =
  List.fold_left
    (fun n stmt ->
      n
      +
      match stmt with
      | Ast.Assign (_, Ast.Binop _) -> 1
      | Ast.For (_, _, _, body) -> 1 + count_updates body
      | Ast.If (_, then_, else_) -> count_updates then_ + count_updates else_
      | Ast.While (_, body) -> count_updates body
      | Ast.Let _ | Ast.Assign _ | Ast.Store _ | Ast.Barrier -> 0)
    0 stmts

(* No kernel lowers an update to a Bin into a temporary copied into the
   variable (the pair [s = s op x] used to cost): every [Bin] whose
   destination was defined before writes it in place, one per update
   in the source.  The suite, plus a parsed kernel whose accumulator
   sits under an [if] in a loop. *)
let test_updates_lower_in_place () =
  let parsed =
    Parse.parse_one
      {|
      kernel histogram(global int* data, global int* bins, int n) {
        int bin = get_global_id(0);
        int count = 0;
        for (int j = 0; j < n; j++) {
          if ((data[j] & 255) == bin) {
            count = count + 1;
          }
        }
        bins[bin] = count;
      }
    |}
  in
  let scan insns =
    let defined = Hashtbl.create 16 in
    let rec go ~in_place ~copies = function
      | [] -> (in_place, List.rev copies)
      | insn :: rest ->
          let in_place, copies =
            match (insn, rest) with
            | Vir.Bin (_, d, _, _), _ when Hashtbl.mem defined d ->
                (in_place + 1, copies)
            | Vir.Bin (_, t, _, _), Vir.Mov (s, Vir.Reg t') :: _
              when t = t' && Hashtbl.mem defined s ->
                (in_place, Vir.insn_to_string insn :: copies)
            | _ -> (in_place, copies)
          in
          List.iter (fun d -> Hashtbl.replace defined d ()) (Vir.defs insn);
          go ~in_place ~copies rest
    in
    go ~in_place:0 ~copies:[] insns
  in
  List.iter
    (fun kernel ->
      let name = kernel.Ast.name in
      let plain = Lower.lower kernel in
      let in_place, copies = scan plain.Vir.insns in
      Alcotest.(check (list string)) (name ^ " copied updates") [] copies;
      Alcotest.(check int)
        (name ^ " in-place updates")
        (count_updates kernel.Ast.body)
        in_place;
      let _, copies = scan (Opt.optimise plain).Vir.insns in
      Alcotest.(check (list string)) (name ^ " optimised copies") [] copies)
    (parsed :: List.map (fun w -> w.Suite.kernel) Suite.all)

(* Every operation assigned into a variable, in each operand shape the
   lowering writes straight into the variable's register, runs as
   Interp says on both targets, optimised or not.  Each work-item holds
   one operand pair, corner cases included: zero divisors,
   min_int / -1, shift amounts past 31; the immediates include one too
   wide for either target's immediate field. *)
let test_assign_into_variable_matches_interp () =
  let min = Ggpu_isa.I32.min_i32 and max = 0x7FFF_FFFF in
  let pairs =
    [
      (7, 3); (-7, 2); (min, -1); (17, 0); (0x1234_5678, 33); (-1, 31);
      (0, 0); (max, 1); (min, 0); (5, -3); (-8, 32); (1, 63);
    ]
  in
  let n = List.length pairs in
  let args () =
    {
      Mem_image.buffers =
        [
          ("a", Array.of_list (List.map fst pairs));
          ("b", Array.of_list (List.map snd pairs));
          ("out", Array.make n 0);
        ];
      scalars = [];
    }
  in
  let shapes op =
    let open Ast in
    let s = var "s" and x = var "x" in
    let bin a b = Binop (op, a, b) in
    [
      ("s = s op x", [ Assign ("s", bin s x) ]);
      ("s = x op s", [ Assign ("s", bin x s) ]);
      ("s = s op s", [ Assign ("s", bin s s) ]);
      ("s = s op 33", [ Assign ("s", bin s (const 33)) ]);
      ("s = 70000 op s", [ Assign ("s", bin (const 70000) s) ]);
      ("s = s op -70000", [ Assign ("s", bin s (const (-70000))) ]);
      ("s = s op 0", [ Assign ("s", bin s (const 0)) ]);
      ("s = 1 op s", [ Assign ("s", bin (const 1) s) ]);
      ("s = (s op x) op s", [ Assign ("s", bin (bin s x) s) ]);
      ("s = x op (x op s)", [ Assign ("s", bin x (bin x s)) ]);
      ( "3 times s = s op x",
        [ For ("k", const 0, const 3, [ Assign ("s", bin s x) ]) ] );
      ("s = x op s; s = s op s", [ Assign ("s", bin x s); Assign ("s", bin s s) ]);
    ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun (shape, update) ->
          let kernel =
            Ast.
              {
                name = "assign";
                params = [ Buffer "a"; Buffer "b"; Buffer "out" ];
                body =
                  [
                    Let ("i", Global_id);
                    Let ("s", load "a" (var "i"));
                    Let ("x", load "b" (var "i"));
                  ]
                  @ update
                  @ [ Store ("out", var "i", var "s") ];
              }
          in
          let reference =
            let args = args () in
            Interp.run kernel ~args ~global_size:n ~local_size:n;
            List.assoc "out" args.Mem_image.buffers
          in
          List.iter
            (fun optimise ->
              let label target =
                Printf.sprintf "%s with op %s on %s%s" shape
                  (Vir.binop_to_string op) target
                  (if optimise then "" else ", unoptimised")
              in
              let fgpu =
                Run_fgpu.run
                  (Codegen_fgpu.compile ~optimise kernel)
                  ~args:(args ()) ~global_size:n ~local_size:n ()
              in
              Alcotest.check i32_array (label "fgpu") reference
                (Run_fgpu.output fgpu "out");
              let rv32 =
                Run_rv32.run
                  (Codegen_rv32.compile ~optimise kernel)
                  ~args:(args ()) ~global_size:n ~local_size:n ()
              in
              Alcotest.check i32_array (label "rv32") reference
                (Run_rv32.output rv32 "out"))
            [ true; false ])
        (shapes op))
    Ast.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sra ]

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
    List.init 40 (fun i -> Ast.Let (Printf.sprintf "v%d" i, const i))
  in
  let uses =
    List.init 40 (fun i ->
        Ast.Store ("out", const i, var (Printf.sprintf "v%d" i)))
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
          Ast.Let ("base", var "n");
          Ast.Let ("acc", const 0);
          Ast.For
            ( "i",
              const 0,
              const 8,
              [ Ast.Assign ("acc", var "acc" +: var "base") ] );
          Ast.Store ("out", const 0, var "acc");
        ];
    }
  in
  let args =
    { Mem_image.buffers = [ ("out", Array.make 1 0) ]; scalars = [ ("n", 5) ] }
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
            = args.Mem_image.buffers)
          && ok "scalars"
               (List.map
                  (fun (n, v) -> (n, Ggpu_isa.I32.of_int32 v))
                  o.Suite_oracle.scalars
               = args.Mem_image.scalars)
          && ok "expected outputs"
               (words (Suite_oracle.expected name ~size o)
               = w.Suite.expected ~size args))
        Suite.all)

(* [round_size]'s contract: the largest legal size not above the
   request, or the smallest legal one below it; legal sizes are
   positive, and mat_mul's are multiples of 16. *)
let prop_round_size_contract =
  QCheck.Test.make ~name:"round_size: largest legal size not above"
    ~count:1000 (QCheck.int_range 1 4096) (fun size ->
      List.for_all
        (fun (w : Suite.t) ->
          let legal n =
            n > 0 && (w.Suite.name <> "mat_mul" || n mod 16 = 0)
          in
          let smallest =
            let rec up n = if legal n then n else up (n + 1) in
            up 1
          in
          let rec none_legal lo hi =
            lo > hi || ((not (legal lo)) && none_legal (lo + 1) hi)
          in
          let r = w.Suite.round_size size in
          let ok what b =
            b
            || QCheck.Test.fail_reportf "%s at size %d (-> %d): %s"
                 w.Suite.name size r what
          in
          ok "legal" (legal r)
          && ok "idempotent" (w.Suite.round_size r = r)
          &&
          if size < smallest then ok "smallest legal size" (r = smallest)
          else
            ok "not above the request" (r <= size)
            && ok "largest legal size" (none_legal (r + 1) size))
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
        Alcotest.test_case "updates lower in place" `Quick
          test_updates_lower_in_place;
        Alcotest.test_case "assign into variable matches interp" `Quick
          test_assign_into_variable_matches_interp;
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
        QCheck_alcotest.to_alcotest prop_round_size_contract;
        QCheck_alcotest.to_alcotest prop_gen_array_matches_int32_oracle;
      ] );
  ]
