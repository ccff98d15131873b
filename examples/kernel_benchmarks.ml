(* Programmability: write a new OpenCL-style kernel as source, verify
   both targets against a direct computation, and compare RISC-V vs
   G-GPU execution - the paper's central use-case for a general-purpose
   accelerator.

     dune exec examples/kernel_benchmarks.exe *)

open Ggpu_kernels

(* saxpy: y[i] <- a * x[i] + y[i], integer variant *)
let saxpy =
  Parse.parse_one
    {|kernel saxpy(global int* x, global int* y, int a, int n) {
        int i = get_global_id(0);
        if (i < n) { y[i] = a * x[i] + y[i]; }
      }|}

let () =
  let n = 16384 in
  let a = 7 in
  let x = Array.init n (fun i -> i mod 1000) in
  let y = Array.init n (fun i -> i mod 77) in
  let mk_args () =
    {
      Mem_image.buffers = [ ("x", Array.copy x); ("y", Array.copy y) ];
      scalars = [ ("a", a); ("n", n) ];
    }
  in
  (* 1. reference result, in the simulators' 32-bit words *)
  let expected =
    Array.init n (fun i -> Ggpu_isa.I32.(add (mul a x.(i)) y.(i)))
  in

  (* 2. RISC-V *)
  let rv = Codegen_rv32.compile saxpy in
  let rv_result =
    Run_rv32.run rv ~args:(mk_args ()) ~global_size:n ~local_size:256 ()
  in
  assert (Run_rv32.output rv_result "y" = expected);
  let rv_cycles = rv_result.Run_rv32.stats.Ggpu_riscv.Cpu.cycles in
  Printf.printf "saxpy over %d elements\n" n;
  Printf.printf "  RISC-V (CV32E40P model): %9d cycles\n" rv_cycles;

  (* 3. G-GPU at 1..8 compute units *)
  let gp = Codegen_fgpu.compile saxpy in
  Printf.printf "  disassembly (%d instructions):\n"
    (Array.length gp.Codegen_fgpu.code);
  Array.iteri
    (fun i insn ->
      if i < 6 then
        Printf.printf "    %2d: %s\n" i (Ggpu_isa.Fgpu_isa.to_string insn))
    gp.Codegen_fgpu.code;
  Printf.printf "    ...\n";
  List.iter
    (fun cus ->
      let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
      let result =
        Run_fgpu.run ~config gp ~args:(mk_args ()) ~global_size:n
          ~local_size:256 ()
      in
      assert (Run_fgpu.output result "y" = expected);
      let cycles = result.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles in
      Printf.printf
        "  G-GPU %d CU:              %9d cycles  (%.1fx vs RISC-V, verified)\n"
        cus cycles
        (float_of_int rv_cycles /. float_of_int cycles))
    [ 1; 2; 4; 8 ]
