(** 32-bit two's-complement arithmetic on native ints, in the canonical
    sign-extended representation: an [int] holds exactly the value of
    the int32 it models. Lets the simulators keep registers and memory
    as unboxed [int array]s while agreeing bit-for-bit with [Int32]
    (property-tested against it in the test suite). *)

val min_i32 : int
val mask : int
(** [0xFFFFFFFF]. *)

val sx : int -> int
(** Sign-extend the low 32 bits; identity on canonical values. *)

val of_int32 : int32 -> int
val to_int32 : int -> int32
val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int

val div_signed : int -> int -> int
(** RISC-V M semantics: [x/0 = -1], [min_int/-1 = min_int]. *)

val rem_signed : int -> int -> int
(** RISC-V M semantics: [x rem 0 = x], [min_int rem -1 = 0]. *)

val div_unsigned : int -> int -> int
(** RISC-V M semantics on the unsigned reading: [x/0 = -1]. *)

val rem_unsigned : int -> int -> int
(** RISC-V M semantics on the unsigned reading: [x rem 0 = x]. *)

val mulh : int -> int -> int
(** High 32 bits of the signed 64-bit product (RV32M [mulh]). *)

val sll : int -> int -> int
val srl : int -> int -> int
val sra : int -> int -> int
(** Shifts use the low 5 bits of the shift amount. *)

val ult : int -> int -> bool
(** Unsigned 32-bit comparison. *)

val flip : int -> bit:int -> int
(** Flip one bit (0..31), re-canonicalising the sign. *)
