(* Shorthand for kernel ASTs that tests build by hand.  The suite and
   the examples are DSL source that [Parse] reads, so nothing outside
   the tests needs these. *)

open Ggpu_kernels.Ast

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
