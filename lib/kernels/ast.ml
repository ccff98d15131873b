(* Kernel language AST.

   A small OpenCL-C-like language: a kernel body executes once per
   work-item, reads scalar parameters and global buffers, and writes
   global buffers.  Buffer indices are in 32-bit words (elements), as in
   OpenCL `int*` arithmetic.  This plays the role of the paper's OpenCL
   kernels + LLVM compiler: one source feeds both the G-GPU and the
   RISC-V code generators. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div (* signed; RISC-V semantics for corner cases *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr (* logical *)
  | Sra (* arithmetic *)

type cmpop = Eq | Ne | Lt | Le | Gt | Ge (* signed *)

type expr =
  | Const of int32
  | Var of string (* local variable or scalar parameter *)
  | Global_id (* get_global_id(0) *)
  | Local_id (* get_local_id(0) *)
  | Group_id (* get_group_id(0) *)
  | Local_size (* get_local_size(0) *)
  | Global_size (* get_global_size(0) *)
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr (* 1 if true else 0 *)
  | Load of string * expr (* buffer.(index) *)

type stmt =
  | Let of string * expr (* declare-and-init a local variable *)
  | Assign of string * expr (* update an existing local variable *)
  | Store of string * expr * expr (* buffer.(index) <- value *)
  | If of expr * stmt list * stmt list (* nonzero = true *)
  | While of expr * stmt list
  | For of string * expr * expr * stmt list (* for v = lo to hi-1 *)
  | Barrier (* workgroup barrier *)

type param = Buffer of string | Scalar of string

type kernel = { name : string; params : param list; body : stmt list }

let param_name = function Buffer name -> name | Scalar name -> name

let buffers kernel =
  List.filter_map
    (function Buffer name -> Some name | Scalar _ -> None)
    kernel.params

let scalars kernel =
  List.filter_map
    (function Scalar name -> Some name | Buffer _ -> None)
    kernel.params
