(* Harness gluing a compiled G-GPU kernel to the GPU simulator: lays
   buffers out in global memory, passes parameter values (preloaded into
   r1..rN of every work-item, per the code generator's convention),
   launches the grid and reads results back.  Plays the role of the
   OpenCL runtime API the paper uses on the FGPU side. *)

open Ggpu_fgpu

type result = {
  stats : Stats.t;
  buffers : (string * int32 array) list;
}

exception Setup_error of string

let align64 a = (a + 63) land lnot 63

(* Byte address the first buffer is placed at. *)
let base_addr = 0x1000

let layout_buffers buffers =
  let addr = ref (align64 base_addr) in
  List.map
    (fun (name, data) ->
      let placed = !addr in
      addr := align64 (!addr + (4 * Array.length data));
      (name, placed, data))
    buffers

(* Lay the buffers out in a fresh global memory, hand it and the
   parameter values to [launch], then read every buffer back. *)
let with_memory (compiled : Codegen_fgpu.compiled)
    ~(args : Interp.args) ~global_size launch =
  Ggpu_obs.Trace.with_span "kernels.run_fgpu"
    ~args:[ ("global_size", string_of_int global_size) ]
  @@ fun () ->
  let placed = layout_buffers args.Interp.buffers in
  let needed_words =
    List.fold_left
      (fun acc (_, addr, data) -> max acc ((addr / 4) + Array.length data))
      (base_addr / 4) placed
  in
  let mem = Array.make (needed_words + 64) 0l in
  List.iter
    (fun (_, addr, data) ->
      Array.blit data 0 mem (addr / 4) (Array.length data))
    placed;
  let param_value name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) placed with
    | Some (_, addr, _) -> Int32.of_int addr
    | None -> (
        match List.assoc_opt name args.Interp.scalars with
        | Some v -> v
        | None -> raise (Setup_error (Printf.sprintf "missing argument %s" name)))
  in
  (* parameter registers are r1..rN in declaration order *)
  let params =
    compiled.Codegen_fgpu.param_regs
    |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
    |> List.map (fun (name, _) -> param_value name)
  in
  let stats = launch ~program:compiled.Codegen_fgpu.code ~params ~mem in
  let buffers =
    List.map
      (fun (name, addr, data) ->
        (name, Array.sub mem (addr / 4) (Array.length data)))
      placed
  in
  (stats, buffers)

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

let output result name =
  match List.assoc_opt name result.buffers with
  | Some a -> a
  | None -> raise (Setup_error (Printf.sprintf "no such buffer %s" name))
