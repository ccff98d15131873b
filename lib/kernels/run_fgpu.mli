(** Harness gluing a compiled kernel to the G-GPU simulator: buffer
    layout in global memory, parameter passing, launch, read-back —
    the OpenCL-runtime role of the paper's software stack. *)

type result = {
  stats : Ggpu_fgpu.Stats.t;
  buffers : (string * int32 array) list;  (** final contents *)
}

exception Setup_error of string

val run :
  ?config:Ggpu_fgpu.Config.t ->
  ?max_cycles:int ->
  ?inject:int * (Ggpu_fgpu.Gpu.probe -> unit) ->
  ?pmu:Ggpu_pmu.Pmu.t ->
  ?domains:int ->
  Codegen_fgpu.compiled ->
  args:Interp.args ->
  global_size:int ->
  local_size:int ->
  unit ->
  result
(** Buffers are placed from byte address 0x1000, 64-byte aligned.
    [max_cycles], [inject], [pmu] and [domains] are forwarded to
    {!Ggpu_fgpu.Gpu.run} (watchdog, fault-injection hook, the
    performance-monitoring collector, and the functional-phase domain
    fan-out). *)

val run_cus :
  ?domains:int ->
  Codegen_fgpu.compiled ->
  args:Interp.args ->
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

val output : result -> string -> int32 array
(** @raise Setup_error on an unknown buffer name. *)
