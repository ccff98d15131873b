(** Assembler for RV32: label resolution (branches and JAL are
    PC-relative byte offsets) and wide-constant expansion with the
    standard LUI/ADDI carry fix-up. *)

type item =
  | Label of string
  | I of Rv32.t
  | Beq_to of Rv32.reg * Rv32.reg * string
  | Bne_to of Rv32.reg * Rv32.reg * string
  | Blt_to of Rv32.reg * Rv32.reg * string
  | Bge_to of Rv32.reg * Rv32.reg * string
  | Bltu_to of Rv32.reg * Rv32.reg * string
  | Bgeu_to of Rv32.reg * Rv32.reg * string
  | Jal_to of Rv32.reg * string
  | Li32 of Rv32.reg * int32

exception Asm_error of string

val item_size : item -> int
(** Bytes the item assembles to. *)

val split_hi_lo : int32 -> int32 * int32
(** [(hi20, lo12)] with [(hi20 << 12) + sext(lo12)] = the input. *)

val assemble : item list -> Rv32.t array
(** @raise Asm_error on duplicate or undefined labels. *)
