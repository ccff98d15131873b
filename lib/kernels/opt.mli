(** Optimisation passes over the virtual IR: constant folding (with the
    targets' division corner-case semantics), algebraic simplification,
    copy propagation for single-assignment registers, branch folding,
    jump threading and dead-code elimination, iterated to a fixpoint.
    Stores, barriers, control flow and [Ret] are never removed. *)

val fold_binop : Ast.binop -> int32 -> int32 -> int32 option

val optimise : ?max_passes:int -> Vir.program -> Vir.program
(** Semantics-preserving; see the property tests in
    [test/test_compiler.ml]. *)
