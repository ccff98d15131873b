(** Kernel language AST: a small OpenCL-C-like language. A kernel body
    executes once per work-item over 32-bit integers and global word
    buffers; one source feeds both the G-GPU and RISC-V back ends. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** signed; RISC-V M corner-case semantics *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr  (** logical *)
  | Sra  (** arithmetic *)

type cmpop = Eq | Ne | Lt | Le | Gt | Ge  (** signed *)

type expr =
  | Const of int32
  | Var of string
  | Global_id
  | Local_id
  | Group_id
  | Local_size
  | Global_size
  | Binop of binop * expr * expr
  | Cmp of cmpop * expr * expr  (** 1 if true else 0 *)
  | Load of string * expr  (** buffer, element index *)

type stmt =
  | Let of string * expr
  | Assign of string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list  (** for v = lo to hi-1 *)
  | Barrier

type param = Buffer of string | Scalar of string
type kernel = { name : string; params : param list; body : stmt list }

(** {1 Queries} *)

val param_name : param -> string
val buffers : kernel -> string list
val scalars : kernel -> string list
