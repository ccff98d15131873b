(** Predecoded G-GPU instructions: [Fgpu_isa.t] flattened once into a
    record of immediates (constant constructors and ints) so the
    simulator's issue loop neither re-discriminates the variant per
    lane-group nor touches a boxed [int32]. Immediates are canonical
    {!I32} native ints, with [Lui]'s shift pre-applied. *)

type kind =
  | KAlu
  | KAlui
  | KLoadImm  (** [Lui] and [Li]: both write a precomputed [imm] *)
  | KLw
  | KSw
  | KBranch
  | KJump
  | KSpecial
  | KBarrier
  | KRet

type t = {
  kind : kind;
  aop : Fgpu_isa.alu_op;  (** KAlu / KAlui *)
  cnd : Fgpu_isa.cond;  (** KBranch *)
  sp : Fgpu_isa.special;  (** KSpecial *)
  rd : int;  (** destination; the rs2 source for KSw / KBranch *)
  rs1 : int;
  rs2 : int;
  imm : int;  (** canonical i32 immediate / byte offset / target index *)
}

val of_program : Fgpu_isa.t array -> t array
