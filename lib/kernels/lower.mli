(** Lowering from the kernel AST to the virtual-register IR. Named
    variables get stable virtual registers; temporaries fresh ones;
    comparison conditions lower to single conditional branches; an
    assignment of a binary operation writes the variable's register
    directly ([s = s + x] is one [Vir.Bin] into [s]). *)

exception Lower_error of string

val lower : Ast.kernel -> Vir.program
(** @raise Check.Error if the kernel is ill-formed. *)
