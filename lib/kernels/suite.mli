(** The paper's seven micro-benchmarks, rewritten as OpenCL-C-style
    source in the kernel DSL with independent OCaml reference
    implementations and deterministic input generators. "Input size" =
    number of work-items (Table III); each workload records RISC-V and
    G-GPU sizes with the paper's exact ratio between them. *)

type t = {
  name : string;
  source : string;  (** the kernel's text, as {!Parse} reads it *)
  kernel : Ast.kernel;  (** [Parse.parse_one source] *)
  output_buffer : string;
  local_size : int;
  round_size : int -> int;
      (** the largest legal size not above the request, or the smallest
          legal size when the request is below it (mat_mul needs a
          positive multiple of 16, so 1..15 round up to 16) *)
  mk_args : size:int -> Mem_image.args;
  expected : size:int -> Mem_image.args -> int array;
      (** reference output computed from the args' input buffers *)
  global_size : size:int -> int;
  riscv_size : int;
  ggpu_size : int;
}

val gen_array : seed:int -> len:int -> modulus:int -> int array
(** Deterministic pseudo-random inputs from 0 to [modulus - 1], as
    {!Ggpu_isa.I32} words (both targets see the same data).  [modulus]
    is positive and below 2{^31}. *)

val mat_mul : t
val copy : t
val vec_mul : t
val fir : t
val div_int : t
val xcorr : t
val parallel_sel : t

val all : t list
(** In the paper's Table III order. *)

val find : string -> t
(** @raise Invalid_argument on an unknown name. *)
