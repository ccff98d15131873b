(** The memory image a launch runs on, shared by {!Run_fgpu} and
    {!Run_rv32}: the kernel's buffers placed from byte address 0x1000,
    each 64-byte aligned, in one [int array] of {!Ggpu_isa.I32} words
    that the simulator executes in place — the OpenCL runtime's buffer
    allocation. *)

type args = {
  buffers : (string * int array) list;
      (** one {!Ggpu_isa.I32} word per element *)
  scalars : (string * int) list;  (** {!Ggpu_isa.I32} values *)
}
(** A launch's arguments, in the word representation both simulators
    compute in. *)

type t

exception Setup_error of string

val build : args -> t
(** A fresh image holding copies of the argument buffers; [args] is not
    aliased, so one [args] can feed any number of launches. *)

val mem : t -> int array
(** The image itself, one word per element with 64 words of slack past
    the last buffer: what the simulator runs on. *)

val params : t -> args -> string list -> int list
(** The values of the named kernel parameters, in order: a buffer's byte
    address or a scalar's value.
    @raise Setup_error on a name that is neither. *)

val buffers : t -> (string * int array) list
(** Every buffer's current contents, copied out, in argument order. *)

val find : (string * int array) list -> string -> int array
(** @raise Setup_error on an unknown buffer name. *)
