(** The G-GPU instruction set: a RISC-style 32-bit SIMT ISA modelled on
    FGPU's, with per-work-item branches (divergence is the compute
    unit's job), SIMT special registers, and a workgroup barrier.
    Instructions encode to 32-bit words and back. *)

type reg = int  (** 0..31; r0 reads as zero *)

type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu

type cond = Eq | Ne | Lt | Ge | Ltu | Geu
type special = Lid | Wgid | Wgoff | Wgsize | Gsize

type t =
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * int32
      (** logical immediates zero-extend; arithmetic sign-extend *)
  | Lui of reg * int32
  | Li of reg * int32  (** pseudo; the assembler expands wide values *)
  | Lw of reg * reg * int
  | Sw of reg * reg * int  (** [Sw (rs2, rs1, off)]: mem[rs1+off] <- rs2 *)
  | Branch of cond * reg * reg * int  (** relative offset in instructions *)
  | Jump of int  (** absolute instruction index *)
  | Special of special * reg
  | Barrier
  | Ret

val validate : t -> unit
(** @raise Invalid_argument on out-of-range registers. *)

val alu_op_to_string : alu_op -> string
val cond_to_string : cond -> string
val special_to_string : special -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

exception Encode_error of string
exception Decode_error of string

val encode : t -> int32
(** @raise Encode_error on out-of-range immediates (including a wide
    [Li], which must be expanded by the assembler first). *)

val decode : int32 -> t
(** @raise Decode_error on an illegal opcode. *)
