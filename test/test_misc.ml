(* Cross-cutting tests: the comparison math, simulator utilisation,
   input determinism, spec/period arithmetic, assembler sizing, and the
   workgroup-barrier reduction pattern end-to-end on the GPU. *)

open Ggpu_kernels
open Ggpu_core

let tech = Ggpu_tech.Tech.default_65nm

(* --- Compare math -------------------------------------------------------- *)

let test_speedup_formula () =
  (* synthetic row: rv 100 kcycles at size 100; ggpu 50 kcycles at size
     1600 (ratio 16): raw speedup = 100*16/50 = 32 *)
  let row =
    {
      Compare.kernel = "synthetic";
      riscv_size = 100;
      ggpu_size = 1600;
      riscv_kcycles = 100.0;
      ggpu_kcycles = [ (1, 50.0); (2, 25.0); (4, 12.5); (8, 6.25) ];
    }
  in
  let speedups = Compare.speedups ~tech [ row ] in
  match speedups with
  | [ s ] ->
      Alcotest.(check (float 1e-6)) "raw at 1 CU" 32.0 (List.assoc 1 s.Compare.raw);
      Alcotest.(check (float 1e-6)) "raw at 8 CU" 256.0 (List.assoc 8 s.Compare.raw);
      (* derated = raw / (area ratio); check it divides by a positive
         growing ratio *)
      let d1 = List.assoc 1 s.Compare.derated in
      let d8 = List.assoc 8 s.Compare.derated in
      Alcotest.(check bool) "derating shrinks values" true
        (d1 < 32.0 && d8 < 256.0);
      let ratio1 = 32.0 /. d1 and ratio8 = 256.0 /. d8 in
      Alcotest.(check bool)
        (Printf.sprintf "area ratio grows with CUs (%.1f -> %.1f)" ratio1 ratio8)
        true (ratio8 > 4.0 *. ratio1)
  | _ -> Alcotest.fail "one speedup row expected"

let test_riscv_area_sane () =
  let a = Compare.riscv_area_mm2 tech in
  (* the paper implies ~0.7 mm2 (1-CU G-GPU = 6.5x) *)
  Alcotest.(check bool)
    (Printf.sprintf "riscv area %.2f in [0.3, 1.2]" a)
    true
    (a > 0.3 && a < 1.2)

(* --- Simulator utilisation ------------------------------------------------ *)

let run_stats ?(cus = 1) w ~size =
  let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
  let args = w.Suite.mk_args ~size in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let r =
    Run_fgpu.run ~config compiled ~args
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  r.Run_fgpu.stats

let test_utilisation_bounds () =
  let stats = run_stats Suite.mat_mul ~size:1024 in
  let u = Ggpu_fgpu.Stats.utilisation stats ~num_cus:1 in
  Alcotest.(check bool) (Printf.sprintf "0 < %.2f <= 1" u) true (u > 0.0 && u <= 1.0)

let test_compute_bound_utilisation_high () =
  (* mat_mul on 1 CU keeps the vector pipeline nearly saturated *)
  let stats = run_stats Suite.mat_mul ~size:1024 in
  let u = Ggpu_fgpu.Stats.utilisation stats ~num_cus:1 in
  Alcotest.(check bool) (Printf.sprintf "utilisation %.2f > 0.7" u) true (u > 0.7)

let test_memory_bound_utilisation_drops_at_8cu () =
  (* copy at 8 CUs starves on AXI bandwidth: pipelines go idle *)
  let u1 =
    Ggpu_fgpu.Stats.utilisation (run_stats ~cus:1 Suite.copy ~size:16384) ~num_cus:1
  in
  let u8 =
    Ggpu_fgpu.Stats.utilisation (run_stats ~cus:8 Suite.copy ~size:16384) ~num_cus:8
  in
  Alcotest.(check bool)
    (Printf.sprintf "utilisation drops %.2f -> %.2f" u1 u8)
    true (u8 < u1 /. 1.5)

(* --- Determinism ---------------------------------------------------------- *)

let test_gen_array_deterministic () =
  let a = Suite.gen_array ~seed:42 ~len:100 ~modulus:1000 in
  let b = Suite.gen_array ~seed:42 ~len:100 ~modulus:1000 in
  let c = Suite.gen_array ~seed:43 ~len:100 ~modulus:1000 in
  Alcotest.(check bool) "same seed same data" true (a = b);
  Alcotest.(check bool) "different seed different data" true (a <> c);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in range" true (v >= 0 && v < 1000))
    a

let test_simulation_deterministic () =
  let s1 = run_stats ~cus:4 Suite.fir ~size:512 in
  let s2 = run_stats ~cus:4 Suite.fir ~size:512 in
  Alcotest.(check int) "same cycles" s1.Ggpu_fgpu.Stats.cycles
    s2.Ggpu_fgpu.Stats.cycles;
  Alcotest.(check int) "same wf instrs" s1.Ggpu_fgpu.Stats.wf_instructions
    s2.Ggpu_fgpu.Stats.wf_instructions

(* --- Spec arithmetic ------------------------------------------------------- *)

let test_period_of_spec () =
  let spec = Spec.make ~num_cus:1 ~freq_mhz:500 () in
  Alcotest.(check (float 1e-9)) "500 MHz = 2 ns" 2.0 (Spec.period_ns spec);
  let spec = Spec.make ~num_cus:1 ~freq_mhz:667 () in
  Alcotest.(check bool) "667 MHz ~ 1.5 ns" true
    (abs_float (Spec.period_ns spec -. 1.4993) < 1e-3)

(* --- Assembler sizing ------------------------------------------------------ *)

let test_fgpu_item_sizes () =
  let open Ggpu_isa in
  Alcotest.(check int) "label" 0 (Fgpu_asm.item_size (Fgpu_asm.Label "x"));
  Alcotest.(check int) "narrow li" 1 (Fgpu_asm.item_size (Fgpu_asm.Li32 (1, 5l)));
  Alcotest.(check int) "wide li" 2
    (Fgpu_asm.item_size (Fgpu_asm.Li32 (1, 0x10000l)));
  Alcotest.(check int) "insn" 1 (Fgpu_asm.item_size (Fgpu_asm.I Fgpu_isa.Ret))

let test_rv32_split_hi_lo_roundtrip () =
  let open Ggpu_isa in
  List.iter
    (fun imm ->
      let hi, lo = Rv32_asm.split_hi_lo imm in
      let back = Int32.add (Int32.shift_left hi 12) lo in
      Alcotest.(check int32) (Printf.sprintf "roundtrip %ld" imm) imm back;
      Alcotest.(check bool) "lo fits I-imm" true (lo >= -2048l && lo <= 2047l))
    [ 0l; 1l; -1l; 0x7FFl; 0x800l; 0x801l; -2048l; -2049l; Int32.max_int; Int32.min_int ]

(* --- Barrier reduction pattern on the GPU ---------------------------------- *)

let test_barrier_tree_reduction () =
  (* per-workgroup tree reduction over a scratch buffer: exercises the
     barrier across several wavefronts per workgroup, with a pattern
     the sequential interpreter cannot run *)
  let local = 128 (* 2 wavefronts *) in
  let src =
    {|
    kernel wg_sum(global int* data, global int* partial, int n) {
      int i = get_global_id(0);
      int lid = get_local_id(0);
      int wg = get_group_id(0);
      int stride = get_local_size(0) / 2;
      while (stride > 0) {
        barrier();
        if (lid < stride) {
          if (i + stride < n) {
            data[i] = data[i] + data[i + stride];
          }
        }
        stride = stride / 2;
      }
      barrier();
      if (lid == 0) {
        partial[wg] = data[i];
      }
    }
  |}
  in
  let kernel = Parse.parse_one src in
  let n = 512 in
  let data = Array.init n (fun i -> i + 1) in
  let groups = n / local in
  let args =
    {
      Mem_image.buffers =
        [ ("data", Array.copy data); ("partial", Array.make groups 0) ];
      scalars = [ ("n", n) ];
    }
  in
  let compiled = Codegen_fgpu.compile kernel in
  let result = Run_fgpu.run compiled ~args ~global_size:n ~local_size:local () in
  let partial = Run_fgpu.output result "partial" in
  Array.iteri
    (fun wg v ->
      let expect = ref 0 in
      for i = wg * local to ((wg + 1) * local) - 1 do
        expect := !expect + data.(i)
      done;
      Alcotest.(check int) (Printf.sprintf "workgroup %d sum" wg) !expect v)
    partial;
  Alcotest.(check bool) "used barriers" true
    (result.Run_fgpu.stats.Ggpu_fgpu.Stats.barriers > 0)

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "speedup formula" `Quick test_speedup_formula;
        Alcotest.test_case "riscv area sane" `Quick test_riscv_area_sane;
        Alcotest.test_case "utilisation bounds" `Quick test_utilisation_bounds;
        Alcotest.test_case "compute-bound utilisation" `Quick
          test_compute_bound_utilisation_high;
        Alcotest.test_case "memory-bound utilisation drop" `Quick
          test_memory_bound_utilisation_drops_at_8cu;
        Alcotest.test_case "gen_array deterministic" `Quick
          test_gen_array_deterministic;
        Alcotest.test_case "simulation deterministic" `Quick
          test_simulation_deterministic;
        Alcotest.test_case "spec period" `Quick test_period_of_spec;
        Alcotest.test_case "fgpu item sizes" `Quick test_fgpu_item_sizes;
        Alcotest.test_case "rv32 split hi/lo" `Quick
          test_rv32_split_hi_lo_roundtrip;
        Alcotest.test_case "barrier tree reduction" `Quick
          test_barrier_tree_reduction;
      ] );
  ]
