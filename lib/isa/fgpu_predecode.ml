(* Predecoded G-GPU instructions.

   [Fgpu_isa.t] is the right type for assemblers and encoders, but a
   poor one for an interpreter: matching a 11-constructor variant per
   lane-group per issue re-discriminates the same instruction millions
   of times, and the boxed [int32] immediates allocate on every read.
   The simulator instead decodes the program once into this flat record:
   every field is an immediate (constant constructors and ints), and
   immediates are converted to the canonical native-int representation
   ({!I32}) up front — [Lui]'s shift included, so issue just writes
   [imm]. *)

type kind =
  | KAlu
  | KAlui
  | KLoadImm (* Lui and Li collapse: both write a precomputed [imm] *)
  | KLw
  | KSw
  | KBranch
  | KJump
  | KSpecial
  | KBarrier
  | KRet

type t = {
  kind : kind;
  aop : Fgpu_isa.alu_op; (* KAlu / KAlui *)
  cnd : Fgpu_isa.cond; (* KBranch *)
  sp : Fgpu_isa.special; (* KSpecial *)
  rd : int; (* destination; rs2 source for KSw / KBranch *)
  rs1 : int;
  rs2 : int;
  imm : int; (* canonical i32 immediate / byte offset / target index *)
}

let nop_like kind =
  {
    kind;
    aop = Fgpu_isa.Add;
    cnd = Fgpu_isa.Eq;
    sp = Fgpu_isa.Lid;
    rd = 0;
    rs1 = 0;
    rs2 = 0;
    imm = 0;
  }

let of_insn (insn : Fgpu_isa.t) =
  match insn with
  | Fgpu_isa.Alu (op, rd, rs1, rs2) ->
      { (nop_like KAlu) with aop = op; rd; rs1; rs2 }
  | Fgpu_isa.Alui (op, rd, rs1, imm) ->
      { (nop_like KAlui) with aop = op; rd; rs1; imm = I32.of_int32 imm }
  | Fgpu_isa.Lui (rd, imm) ->
      { (nop_like KLoadImm) with rd; imm = I32.sll (I32.of_int32 imm) 16 }
  | Fgpu_isa.Li (rd, imm) -> { (nop_like KLoadImm) with rd; imm = I32.of_int32 imm }
  | Fgpu_isa.Lw (rd, rs1, off) -> { (nop_like KLw) with rd; rs1; imm = off }
  | Fgpu_isa.Sw (rs2, rs1, off) ->
      { (nop_like KSw) with rd = rs2; rs1; imm = off }
  | Fgpu_isa.Branch (c, rs1, rs2, off) ->
      { (nop_like KBranch) with cnd = c; rs1; rd = rs2; imm = off }
  | Fgpu_isa.Jump target -> { (nop_like KJump) with imm = target }
  | Fgpu_isa.Special (sp, rd) -> { (nop_like KSpecial) with sp; rd }
  | Fgpu_isa.Barrier -> nop_like KBarrier
  | Fgpu_isa.Ret -> nop_like KRet

let of_program (program : Fgpu_isa.t array) = Array.map of_insn program
