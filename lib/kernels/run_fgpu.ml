(* Harness gluing a compiled G-GPU kernel to the GPU simulator: lays
   buffers out in global memory, passes parameter values (preloaded into
   r1..rN of every work-item, per the code generator's convention),
   launches the grid and reads results back.  Plays the role of the
   OpenCL runtime API the paper uses on the FGPU side. *)

open Ggpu_fgpu

type result = {
  stats : Stats.t;
  buffers : (string * int array) list;
}

(* Lay the buffers out in a fresh memory image, hand it and the
   parameter values to [launch], which runs on the image in place, then
   read every buffer back. *)
let with_memory (compiled : Codegen_fgpu.compiled)
    ~(args : Mem_image.args) ~global_size launch =
  Ggpu_obs.Trace.with_span "kernels.run_fgpu"
    ~args:[ ("global_size", string_of_int global_size) ]
  @@ fun () ->
  let image = Mem_image.build args in
  (* parameter registers are r1..rN in declaration order *)
  let params =
    compiled.Codegen_fgpu.param_regs
    |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
    |> List.map fst
    |> Mem_image.params image args
  in
  let stats =
    launch ~program:compiled.Codegen_fgpu.code ~params
      ~mem:(Mem_image.mem image)
  in
  (stats, Mem_image.buffers image)

let run ?(config = Config.default) ?max_cycles ?inject ?pmu ?domains compiled
    ~args ~global_size ~local_size () =
  let stats, buffers =
    with_memory compiled ~args ~global_size
      (Gpu.run ?max_cycles ?inject ?pmu ?domains config ~global_size
         ~local_size)
  in
  { stats; buffers }

let run_cus ?domains compiled ~args ~global_size ~local_size ~cus () =
  let stats, buffers =
    with_memory compiled ~args ~global_size
      (Gpu.run_cus ?domains Config.default ~cus ~global_size ~local_size)
  in
  List.map (fun stats -> { stats; buffers }) stats

let output result name = Mem_image.find result.buffers name
