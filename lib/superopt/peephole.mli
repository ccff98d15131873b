(** Rule-driven peephole pass over assembled FGPU programs.

    Windows are maximal straight-line ALU runs (labels, control flow,
    memory, barriers and specials all terminate a window), rules fire
    only where their clobber registers are provably dead (backward
    liveness over the item-level CFG), and re-assembly recomputes all
    branch offsets — so rewrites never disturb divergence,
    reconvergence or memory ordering.  Each application strictly
    decreases static cycle cost; the fixpoint terminates. *)

type report = {
  applied : (Rule.t * int) list;  (** rule, times fired *)
  nops_removed : int;
  saved_cycles : int;  (** static estimate under the cost model *)
}

val empty_report : report

val items_of_program :
  Ggpu_isa.Fgpu_isa.t array -> Ggpu_isa.Fgpu_asm.item list
(** Lift a decoded program back to assembler items, with a synthetic
    label at every branch/jump target. *)

val optimise_items :
  ?cfg:Ggpu_fgpu.Config.t ->
  rules:Rule.t list ->
  Ggpu_isa.Fgpu_asm.item list ->
  Ggpu_isa.Fgpu_asm.item list * report

val optimise_program :
  ?cfg:Ggpu_fgpu.Config.t ->
  rules:Rule.t list ->
  Ggpu_isa.Fgpu_isa.t array ->
  Ggpu_isa.Fgpu_isa.t array * report
(** Apply the rule table plus algebraic no-op elimination to fixpoint
    and re-assemble. *)
