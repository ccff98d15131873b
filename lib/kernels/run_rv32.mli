(** Harness gluing a compiled RV32 kernel to the CPU simulator: buffer
    layout in data memory, convention registers, run, read-back. *)

type result = {
  stats : Ggpu_riscv.Cpu.stats;
  buffers : (string * int array) list;
      (** final contents, {!Ggpu_isa.I32} words *)
}

val run :
  ?max_cycles:int ->
  ?inject:int * (Ggpu_riscv.Cpu.t -> unit) ->
  Codegen_rv32.compiled ->
  args:Mem_image.args ->
  global_size:int ->
  local_size:int ->
  unit ->
  result
(** Buffers are laid out by {!Mem_image.build}, whose image is the
    CPU's data memory; the run executes at most 500,000,000
    instructions (@raise Ggpu_riscv.Cpu.Out_of_fuel beyond that).
    [max_cycles] arms {!Ggpu_riscv.Cpu.run}'s cycle watchdog. [inject]
    is a [(cycle, f)] fault-injection hook: the CPU single-steps to the
    first instruction boundary at or after [cycle], [f] corrupts the
    state, and the run resumes (skipped if the program halts first). *)

val output : result -> string -> int array
(** @raise Mem_image.Setup_error on an unknown buffer name. *)
