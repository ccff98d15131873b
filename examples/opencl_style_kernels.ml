(* The textual front end: write kernels in OpenCL-C-flavoured source,
   parse, optimise, inspect the generated code for both targets, and run
   them - the full software story the paper attributes to FGPU's LLVM
   toolchain.

     dune exec examples/opencl_style_kernels.exe *)

open Ggpu_kernels

let source =
  {|
  // Scale-and-offset: out[i] = x[i] * scale + offset
  kernel scale_offset(global int* x, global int* out, int scale, int offset, int n) {
    int i = get_global_id(0);
    if (i < n) {
      out[i] = x[i] * scale + offset;
    }
  }

  // Histogram of byte values, one work-item per bin (gather style:
  // each bin scans the input, so no atomics are needed)
  kernel histogram(global int* data, global int* bins, int n) {
    int bin = get_global_id(0);
    if (bin < 256) {
      int count = 0;
      for (int j = 0; j < n; j++) {
        if ((data[j] & 255) == bin) {
          count = count + 1;
        }
      }
      bins[bin] = count;
    }
  }
|}

let () =
  let kernels = Parse.parse source in
  Printf.printf "parsed %d kernels: %s\n\n" (List.length kernels)
    (String.concat ", " (List.map (fun k -> k.Ast.name) kernels));

  (* scale_offset: show the optimiser working on the IR *)
  let scale_offset = List.nth kernels 0 in
  let plain = Lower.lower scale_offset in
  let optimised = Opt.optimise plain in
  Printf.printf "scale_offset IR: %d instructions, %d after optimisation\n"
    (List.length plain.Vir.insns)
    (List.length optimised.Vir.insns);
  let gp = Codegen_fgpu.compile scale_offset in
  let rv = Codegen_rv32.compile scale_offset in
  Printf.printf "G-GPU code: %d instructions; RV32 code: %d instructions\n\n"
    (Array.length gp.Codegen_fgpu.code)
    (Array.length rv.Codegen_rv32.code);

  (* run scale_offset on the GPU and check against a direct computation *)
  let n = 2048 in
  let x = Array.init n (fun i -> i - 1000) in
  let args =
    {
      Mem_image.buffers = [ ("x", Array.copy x); ("out", Array.make n 0) ];
      scalars = [ ("scale", 3); ("offset", 7); ("n", n) ];
    }
  in
  let result = Run_fgpu.run gp ~args ~global_size:n ~local_size:256 () in
  let out = Run_fgpu.output result "out" in
  Array.iteri
    (fun i v -> assert (v = (x.(i) * 3) + 7))
    out;
  Printf.printf "scale_offset: %d cycles on 1 CU, output verified\n"
    result.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles;

  (* histogram: a divergent gather kernel *)
  let histogram = List.nth kernels 1 in
  let hist_gp = Codegen_fgpu.compile histogram in
  let data = Array.init 4096 (fun i -> (i * 37) land 1023) in
  let args =
    {
      Mem_image.buffers = [ ("data", Array.copy data); ("bins", Array.make 256 0) ];
      scalars = [ ("n", 4096) ];
    }
  in
  let result = Run_fgpu.run hist_gp ~args ~global_size:256 ~local_size:128 () in
  let bins = Run_fgpu.output result "bins" in
  let expected = Array.make 256 0 in
  Array.iter (fun v -> expected.(v land 255) <- expected.(v land 255) + 1) data;
  assert (bins = expected);
  Printf.printf
    "histogram: %d cycles, %d divergent issues (branchy inner loop), verified\n"
    result.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles
    result.Run_fgpu.stats.Ggpu_fgpu.Stats.divergent_issues
