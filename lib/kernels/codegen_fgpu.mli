(** G-GPU code generator.

    Calling convention (honoured by {!Run_fgpu} / {!Ggpu_fgpu.Gpu}):
    r0 is zero; kernel parameters are preloaded into r1..rN in
    declaration order (buffers as byte base addresses); r9..r27 belong
    to the allocator; r28..r31 are scratch. *)

type compiled = {
  kernel_name : string;
  code : Ggpu_isa.Fgpu_isa.t array;
  param_regs : (string * int) list;  (** parameter name -> register *)
  max_live : int;  (** allocator pressure, for diagnostics *)
}

exception Too_many_params of string

val compile : ?optimise:bool -> Ast.kernel -> compiled
(** [optimise] (default true) runs {!Opt.optimise} on the IR first.
    @raise Too_many_params beyond 8 parameters.
    @raise Regalloc.Register_pressure if the kernel needs more than the
    19 allocatable registers.
    @raise Check.Error if the kernel is ill-formed. *)
