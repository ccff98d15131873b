(** Reference interpreter: the semantic ground truth both code
    generators are tested against. Arithmetic follows RISC-V M
    semantics so all three executors agree bit-for-bit. *)

type args = {
  buffers : (string * int array) list;
      (** one {!Ggpu_isa.I32} word per element; mutated in place *)
  scalars : (string * int) list;  (** {!Ggpu_isa.I32} values *)
}
(** A launch's arguments, in the word representation both simulators
    compute in. The interpreter itself evaluates in [Int32] and converts
    only at loads, stores and scalar reads, so it stays independent of
    {!Ggpu_isa.I32}. *)

exception Runtime_error of string
exception Unsupported of string

val run :
  Ast.kernel -> args:args -> global_size:int -> local_size:int -> unit
(** Execute every work-item sequentially.
    @raise Runtime_error on out-of-bounds accesses or missing arguments.
    @raise Unsupported for kernels containing workgroup barriers.
    @raise Check.Error if the kernel is ill-formed. *)
