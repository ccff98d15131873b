(** RV32IM subset: the baseline CPU instruction set, encoded per the
    RISC-V unprivileged specification (R/I/S/B/U/J formats). [Ecall]
    doubles as "halt" in the simulator. *)

type reg = int  (** x0..x31 *)

type t =
  | Lui of reg * int32
  | Auipc of reg * int32
  | Jal of reg * int  (** byte offset *)
  | Jalr of reg * reg * int
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Lw of reg * reg * int
  | Sw of reg * reg * int  (** [Sw (rs2, rs1, off)]: mem[rs1+off] <- rs2 *)
  | Addi of reg * reg * int32
  | Slti of reg * reg * int32
  | Sltiu of reg * reg * int32
  | Xori of reg * reg * int32
  | Ori of reg * reg * int32
  | Andi of reg * reg * int32
  | Slli of reg * reg * int
  | Srli of reg * reg * int
  | Srai of reg * reg * int
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Sll of reg * reg * reg
  | Slt of reg * reg * reg
  | Sltu of reg * reg * reg
  | Xor of reg * reg * reg
  | Srl of reg * reg * reg
  | Sra of reg * reg * reg
  | Or of reg * reg * reg
  | And of reg * reg * reg
  | Mul of reg * reg * reg
  | Mulh of reg * reg * reg
  | Div of reg * reg * reg
  | Divu of reg * reg * reg
  | Rem of reg * reg * reg
  | Remu of reg * reg * reg
  | Ecall

exception Encode_error of string
exception Decode_error of string

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val encode : t -> int32
(** @raise Encode_error on out-of-range registers or immediates. *)

val decode : int32 -> t
(** @raise Decode_error on words outside the supported subset. *)
