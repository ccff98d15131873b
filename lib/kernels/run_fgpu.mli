(** Harness gluing a compiled kernel to the G-GPU simulator: buffer
    layout in global memory, parameter passing, launch, read-back —
    the OpenCL-runtime role of the paper's software stack. *)

type result = {
  stats : Ggpu_fgpu.Stats.t;
  buffers : (string * int array) list;
      (** final contents, {!Ggpu_isa.I32} words *)
}

val run :
  ?config:Ggpu_fgpu.Config.t ->
  ?max_cycles:int ->
  ?inject:int * (Ggpu_fgpu.Gpu.probe -> unit) ->
  ?pmu:Ggpu_pmu.Pmu.t ->
  ?domains:int ->
  Codegen_fgpu.compiled ->
  args:Mem_image.args ->
  global_size:int ->
  local_size:int ->
  unit ->
  result
(** Buffers are laid out by {!Mem_image.build}, and the simulator runs
    on that image in place.  [max_cycles], [inject], [pmu] and [domains]
    are forwarded to {!Ggpu_fgpu.Gpu.run} (watchdog, fault-injection
    hook, the performance-monitoring collector, and the functional-phase
    domain fan-out).
    @raise Mem_image.Setup_error on a missing argument. *)

val run_cus :
  ?domains:int ->
  Codegen_fgpu.compiled ->
  args:Mem_image.args ->
  global_size:int ->
  local_size:int ->
  cus:int list ->
  unit ->
  result list
(** One launch of {!Ggpu_fgpu.Config.default} timed at each CU count
    in [cus], through {!Ggpu_fgpu.Gpu.run_cus}: buffers are laid out as
    {!run} lays them out, given their inputs and executed once.  One
    result per count, in order; they share one [buffers] list, the
    launch's final memory. *)

val output : result -> string -> int array
(** @raise Mem_image.Setup_error on an unknown buffer name. *)
