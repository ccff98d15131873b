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

let const n = Const (Int32.of_int n)
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Rem, a, b)
let ( <: ) a b = Cmp (Lt, a, b)
let ( <=: ) a b = Cmp (Le, a, b)
let ( >: ) a b = Cmp (Gt, a, b)
let ( ==: ) a b = Cmp (Eq, a, b)
let var name = Var name
let load buf idx = Load (buf, idx)

let param_name = function Buffer name -> name | Scalar name -> name

let buffers kernel =
  List.filter_map
    (function Buffer name -> Some name | Scalar _ -> None)
    kernel.params

let scalars kernel =
  List.filter_map
    (function Scalar name -> Some name | Buffer _ -> None)
    kernel.params

(* --- Structural queries used by code generators ----------------------- *)

let rec expr_uses p e =
  p e
  ||
  match e with
  | Const _ | Var _ | Global_id | Local_id | Group_id | Local_size
  | Global_size ->
      false
  | Binop (_, a, b) | Cmp (_, a, b) -> expr_uses p a || expr_uses p b
  | Load (_, idx) -> expr_uses p idx

let rec stmt_uses p = function
  | Let (_, e) | Assign (_, e) -> expr_uses p e
  | Store (_, idx, v) -> expr_uses p idx || expr_uses p v
  | If (c, a, b) ->
      expr_uses p c
      || List.exists (stmt_uses p) a
      || List.exists (stmt_uses p) b
  | While (c, body) -> expr_uses p c || List.exists (stmt_uses p) body
  | For (_, lo, hi, body) ->
      expr_uses p lo || expr_uses p hi || List.exists (stmt_uses p) body
  | Barrier -> false

let kernel_uses p kernel = List.exists (stmt_uses p) kernel.body

let has_barrier kernel =
  let rec stmt_has = function
    | Barrier -> true
    | If (_, a, b) -> List.exists stmt_has a || List.exists stmt_has b
    | While (_, body) | For (_, _, _, body) -> List.exists stmt_has body
    | Let _ | Assign _ | Store _ -> false
  in
  List.exists stmt_has kernel.body
