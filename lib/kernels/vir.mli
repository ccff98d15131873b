(** Virtual-register IR: the flat, label-based middle end between the
    kernel AST and both instruction sets. One IR for both targets
    mirrors the paper's single OpenCL source feeding two toolchains. *)

type vreg = int
type value = Reg of vreg | Imm of int32
type special = Gid | Lid | WGid | LSize | GSize

type insn =
  | Bin of Ast.binop * vreg * value * value
  | Cmp of Ast.cmpop * vreg * value * value
  | Mov of vreg * value
  | Load of vreg * string * value  (** dst <- buffer.(idx) *)
  | Store of string * value * value
  | Read_special of special * vreg
  | Read_param of string * vreg
  | Label of string
  | Jump of string
  | Branch_if of Ast.cmpop * value * value * string
  | Barrier
  | Ret

type program = {
  kernel_name : string;
  buffers : string list;
  scalars : string list;
  insns : insn list;
}

val binop_to_string : Ast.binop -> string
val insn_to_string : insn -> string

val uses : insn -> vreg list
(** Registers read (with multiplicity). *)

val defs : insn -> vreg list
