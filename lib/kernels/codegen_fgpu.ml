(* G-GPU code generator.

   Calling convention (enforced by {!Ggpu_fgpu.Gpu} when launching):
   - r0 is hardwired zero;
   - kernel parameters are preloaded into r1..rN in declaration order
     (buffer parameters as byte base addresses, scalars as values);
   - r9..r27 belong to the register allocator;
   - r28..r31 are code-generator scratch.

   Buffer indices are elements; addresses are computed as base + 4*index
   with explicit shift-and-add, exactly what the FGPU LLVM backend
   emits for `int*` accesses. *)

open Ggpu_isa

type compiled = {
  kernel_name : string;
  code : Fgpu_isa.t array;
  param_regs : (string * int) list; (* parameter name -> register *)
  max_live : int; (* allocator pressure, for diagnostics *)
}

exception Too_many_params of string

let pool = [ 9; 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ]
let scratch0 = 28
let scratch1 = 29
let scratch2 = 30

let imm16_ok v = v >= -32768l && v <= 32767l
let uimm16_ok v = v >= 0l && v <= 0xFFFFl

let compile ?(optimise = true) kernel =
  let program = Lower.lower kernel in
  let program = if optimise then Opt.optimise program else program in
  let phys, max_live = Regalloc.allocate program ~pool in
  let param_regs =
    List.mapi (fun i p -> (Ast.param_name p, i + 1)) kernel.Ast.params
  in
  if List.length param_regs > 8 then raise (Too_many_params kernel.Ast.name);
  let param_reg name =
    match List.assoc_opt name param_regs with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "unknown parameter %s" name)
  in
  let items = ref [] in
  let emit item = items := item :: !items in
  let insn i = emit (Fgpu_asm.I i) in
  (* Materialise a VIR value into a register, using [scratch] for
     immediates. *)
  let value_in ~scratch = function
    | Vir.Reg v -> phys v
    | Vir.Imm 0l -> 0
    | Vir.Imm i ->
        emit (Fgpu_asm.Li32 (scratch, i));
        scratch
  in
  let mov ~dst ~src = if dst <> src then insn (Fgpu_isa.Alui (Fgpu_isa.Add, dst, src, 0l)) in
  let emit_cmp op dst ra rb =
    match op with
    | Ast.Lt -> insn (Fgpu_isa.Alu (Fgpu_isa.Slt, dst, ra, rb))
    | Ast.Gt -> insn (Fgpu_isa.Alu (Fgpu_isa.Slt, dst, rb, ra))
    | Ast.Ge ->
        insn (Fgpu_isa.Alu (Fgpu_isa.Slt, dst, ra, rb));
        insn (Fgpu_isa.Alui (Fgpu_isa.Xor, dst, dst, 1l))
    | Ast.Le ->
        insn (Fgpu_isa.Alu (Fgpu_isa.Slt, dst, rb, ra));
        insn (Fgpu_isa.Alui (Fgpu_isa.Xor, dst, dst, 1l))
    | Ast.Eq ->
        insn (Fgpu_isa.Alu (Fgpu_isa.Xor, dst, ra, rb));
        insn (Fgpu_isa.Alui (Fgpu_isa.Sltu, dst, dst, 1l))
    | Ast.Ne ->
        insn (Fgpu_isa.Alu (Fgpu_isa.Xor, dst, ra, rb));
        insn (Fgpu_isa.Alu (Fgpu_isa.Sltu, dst, 0, dst))
  in
  let alu_of_binop = function
    | Ast.Add -> Fgpu_isa.Add
    | Ast.Sub -> Fgpu_isa.Sub
    | Ast.Mul -> Fgpu_isa.Mul
    | Ast.Div -> Fgpu_isa.Div
    | Ast.Rem -> Fgpu_isa.Rem
    | Ast.And -> Fgpu_isa.And
    | Ast.Or -> Fgpu_isa.Or
    | Ast.Xor -> Fgpu_isa.Xor
    | Ast.Shl -> Fgpu_isa.Sll
    | Ast.Shr -> Fgpu_isa.Srl
    | Ast.Sra -> Fgpu_isa.Sra
  in
  (* Can [op] with immediate [i] use the immediate form? *)
  let imm_form op i =
    match op with
    | Ast.Add -> imm16_ok i
    | Ast.Sub -> imm16_ok (Int32.neg i)
    | Ast.And | Ast.Or | Ast.Xor -> uimm16_ok i
    | Ast.Shl | Ast.Shr | Ast.Sra -> i >= 0l && i < 32l
    | Ast.Mul | Ast.Div | Ast.Rem -> false
  in
  (* Compute the byte address base+4*idx into [scratch1]. *)
  let address buf idx =
    let base = param_reg buf in
    (match idx with
    | Vir.Imm i ->
        let byte = Int32.mul i 4l in
        if imm16_ok byte then
          insn (Fgpu_isa.Alui (Fgpu_isa.Add, scratch1, base, byte))
        else begin
          emit (Fgpu_asm.Li32 (scratch1, byte));
          insn (Fgpu_isa.Alu (Fgpu_isa.Add, scratch1, scratch1, base))
        end
    | Vir.Reg v ->
        insn (Fgpu_isa.Alui (Fgpu_isa.Sll, scratch1, phys v, 2l));
        insn (Fgpu_isa.Alu (Fgpu_isa.Add, scratch1, scratch1, base)));
    scratch1
  in
  let branch_cond op ra rb label =
    let item c a b = Fgpu_asm.Branch_to (c, a, b, label) in
    match op with
    | Ast.Eq -> emit (item Fgpu_isa.Eq ra rb)
    | Ast.Ne -> emit (item Fgpu_isa.Ne ra rb)
    | Ast.Lt -> emit (item Fgpu_isa.Lt ra rb)
    | Ast.Ge -> emit (item Fgpu_isa.Ge ra rb)
    | Ast.Gt -> emit (item Fgpu_isa.Lt rb ra)
    | Ast.Le -> emit (item Fgpu_isa.Ge rb ra)
  in
  let lower_insn = function
    | Vir.Bin (op, d, a, b) -> (
        let dst = phys d in
        match (op, a, b) with
        | _, Vir.Reg va, Vir.Imm i when imm_form op i ->
            let code = alu_of_binop op in
            let code, i =
              match op with
              | Ast.Sub -> (Fgpu_isa.Add, Int32.neg i)
              | _ -> (code, i)
            in
            insn (Fgpu_isa.Alui (code, dst, phys va, i))
        | _ ->
            let ra = value_in ~scratch:scratch0 a in
            let rb = value_in ~scratch:scratch2 b in
            insn (Fgpu_isa.Alu (alu_of_binop op, dst, ra, rb)))
    | Vir.Cmp (op, d, a, b) ->
        let ra = value_in ~scratch:scratch0 a in
        let rb = value_in ~scratch:scratch2 b in
        emit_cmp op (phys d) ra rb
    | Vir.Mov (d, Vir.Imm i) -> emit (Fgpu_asm.Li32 (phys d, i))
    | Vir.Mov (d, Vir.Reg v) -> mov ~dst:(phys d) ~src:(phys v)
    | Vir.Load (d, buf, idx) ->
        let addr = address buf idx in
        insn (Fgpu_isa.Lw (phys d, addr, 0))
    | Vir.Store (buf, idx, v) ->
        let rv = value_in ~scratch:scratch0 v in
        let addr = address buf idx in
        insn (Fgpu_isa.Sw (rv, addr, 0))
    | Vir.Read_special (sp, d) -> (
        let dst = phys d in
        match sp with
        | Vir.Gid ->
            insn (Fgpu_isa.Special (Fgpu_isa.Wgoff, dst));
            insn (Fgpu_isa.Special (Fgpu_isa.Lid, scratch0));
            insn (Fgpu_isa.Alu (Fgpu_isa.Add, dst, dst, scratch0))
        | Vir.Lid -> insn (Fgpu_isa.Special (Fgpu_isa.Lid, dst))
        | Vir.WGid -> insn (Fgpu_isa.Special (Fgpu_isa.Wgid, dst))
        | Vir.LSize -> insn (Fgpu_isa.Special (Fgpu_isa.Wgsize, dst))
        | Vir.GSize -> insn (Fgpu_isa.Special (Fgpu_isa.Gsize, dst)))
    | Vir.Read_param (name, d) -> mov ~dst:(phys d) ~src:(param_reg name)
    | Vir.Label l -> emit (Fgpu_asm.Label l)
    | Vir.Jump l -> emit (Fgpu_asm.Jump_to l)
    | Vir.Branch_if (op, a, b, l) ->
        let ra = value_in ~scratch:scratch0 a in
        let rb = value_in ~scratch:scratch2 b in
        branch_cond op ra rb l
    | Vir.Barrier -> insn Fgpu_isa.Barrier
    | Vir.Ret -> insn Fgpu_isa.Ret
  in
  List.iter lower_insn program.Vir.insns;
  let code = Fgpu_asm.assemble (List.rev !items) in
  { kernel_name = kernel.Ast.name; code; param_regs; max_live }
