(** Assembler for the G-GPU ISA: label resolution and wide-constant
    expansion ([Li32] of a wide immediate becomes LUI+ORI, as the FGPU
    LLVM backend materialises constants). *)

type item =
  | Label of string
  | I of Fgpu_isa.t
  | Branch_to of Fgpu_isa.cond * Fgpu_isa.reg * Fgpu_isa.reg * string
  | Jump_to of string
  | Li32 of Fgpu_isa.reg * int32

exception Asm_error of string

val item_size : item -> int
(** Words the item assembles to (labels are 0; wide [Li32] is 2). *)

val assemble : item list -> Fgpu_isa.t array
(** @raise Asm_error on duplicate or undefined labels. *)
