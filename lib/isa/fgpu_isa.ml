(* The G-GPU instruction set.

   A RISC-style 32-bit SIMT ISA modelled on FGPU's MIPS-like ISA: general
   ALU/memory/branch instructions executed per work-item, plus the SIMT
   special registers (local id, workgroup id/offset/size) that OpenCL
   kernels read through get_local_id / get_global_id, and a workgroup
   barrier.  Branches are per-work-item; divergence is handled by the
   compute unit (see {!Ggpu_fgpu.Cu}).

   Instructions are encodable to 32-bit words and back; the assembler
   resolves labels and expands [Li] of wide immediates into [Lui]/[Ori]
   pairs, mirroring how the FGPU LLVM backend materialises constants. *)

type reg = int (* 0..31; r0 reads as zero and ignores writes *)

type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu

type cond = Eq | Ne | Lt | Ge | Ltu | Geu
type special = Lid | Wgid | Wgoff | Wgsize | Gsize

type t =
  | Alu of alu_op * reg * reg * reg (* rd <- rs1 op rs2 *)
  | Alui of alu_op * reg * reg * int32 (* rd <- rs1 op imm16 *)
  | Lui of reg * int32 (* rd <- imm16 << 16 *)
  | Li of reg * int32 (* pseudo; assembler may expand *)
  | Lw of reg * reg * int (* rd <- mem32[rs1 + off] *)
  | Sw of reg * reg * int (* mem32[rs1 + off] <- rs2 *)
  | Branch of cond * reg * reg * int (* relative offset in instructions *)
  | Jump of int (* absolute instruction index *)
  | Special of special * reg (* rd <- SIMT special value *)
  | Barrier
  | Ret (* work-item terminates *)

let num_regs = 32

let check_reg r name =
  if r < 0 || r >= num_regs then
    invalid_arg (Printf.sprintf "Fgpu_isa: register %s=%d out of range" name r)

let validate = function
  | Alu (_, rd, rs1, rs2) ->
      check_reg rd "rd";
      check_reg rs1 "rs1";
      check_reg rs2 "rs2"
  | Alui (_, rd, rs1, _) | Lw (rd, rs1, _) ->
      check_reg rd "rd";
      check_reg rs1 "rs1"
  | Sw (rs2, rs1, _) ->
      check_reg rs2 "rs2";
      check_reg rs1 "rs1"
  | Lui (rd, _) | Li (rd, _) | Special (_, rd) -> check_reg rd "rd"
  | Branch (_, rs1, rs2, _) ->
      check_reg rs1 "rs1";
      check_reg rs2 "rs2"
  | Jump _ | Barrier | Ret -> ()

(* --- Pretty printing -------------------------------------------------- *)

let alu_op_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Sltu -> "sltu"

let cond_to_string = function
  | Eq -> "beq"
  | Ne -> "bne"
  | Lt -> "blt"
  | Ge -> "bge"
  | Ltu -> "bltu"
  | Geu -> "bgeu"

let special_to_string = function
  | Lid -> "lid"
  | Wgid -> "wgid"
  | Wgoff -> "wgoff"
  | Wgsize -> "wgsize"
  | Gsize -> "gsize"

let to_string = function
  | Alu (op, rd, rs1, rs2) ->
      Printf.sprintf "%s r%d, r%d, r%d" (alu_op_to_string op) rd rs1 rs2
  | Alui (op, rd, rs1, imm) ->
      Printf.sprintf "%si r%d, r%d, %ld" (alu_op_to_string op) rd rs1 imm
  | Lui (rd, imm) -> Printf.sprintf "lui r%d, %ld" rd imm
  | Li (rd, imm) -> Printf.sprintf "li r%d, %ld" rd imm
  | Lw (rd, rs1, off) -> Printf.sprintf "lw r%d, %d(r%d)" rd off rs1
  | Sw (rs2, rs1, off) -> Printf.sprintf "sw r%d, %d(r%d)" rs2 off rs1
  | Branch (c, rs1, rs2, off) ->
      Printf.sprintf "%s r%d, r%d, %+d" (cond_to_string c) rs1 rs2 off
  | Jump target -> Printf.sprintf "j %d" target
  | Special (sp, rd) -> Printf.sprintf "%s r%d" (special_to_string sp) rd
  | Barrier -> "barrier"
  | Ret -> "ret"

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* --- Encoding --------------------------------------------------------- *)

(* Word layout: [31:26] opcode | [25:21] rd | [20:16] rs1 | [15:11] rs2
   | [15:0] imm16 (imm formats).  ALU register ops share opcode 0 with a
   function code in [5:0], MIPS style. *)

exception Encode_error of string

let alu_funct = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Sll -> 8
  | Srl -> 9
  | Sra -> 10
  | Slt -> 11
  | Sltu -> 12

let alu_of_funct = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | 4 -> Rem
  | 5 -> And
  | 6 -> Or
  | 7 -> Xor
  | 8 -> Sll
  | 9 -> Srl
  | 10 -> Sra
  | 11 -> Slt
  | 12 -> Sltu
  | f -> raise (Encode_error (Printf.sprintf "bad ALU funct %d" f))

let opcode_alui op = 1 + alu_funct op (* opcodes 1..13 *)
let op_lui = 14
let op_lw = 15
let op_sw = 16

let opcode_branch = function
  | Eq -> 17
  | Ne -> 18
  | Lt -> 19
  | Ge -> 20
  | Ltu -> 21
  | Geu -> 22

let op_jump = 23

let opcode_special = function
  | Lid -> 24
  | Wgid -> 25
  | Wgoff -> 26
  | Wgsize -> 27
  | Gsize -> 28

let op_barrier = 29
let op_ret = 30

let imm16_ok v = v >= -32768l && v <= 32767l
let imm16_of_int32 v = Int32.to_int (Int32.logand v 0xFFFFl)

let sign_extend_16 v =
  let v = v land 0xFFFF in
  if v land 0x8000 <> 0 then Int32.of_int (v - 0x10000) else Int32.of_int v

let ( <<. ) = Int32.shift_left
let ( |. ) = Int32.logor

let word ~opcode ~rd ~rs1 ~rs2 ~imm16 ~funct =
  Int32.of_int (opcode land 0x3F)
  <<. 26
  |. (Int32.of_int (rd land 0x1F) <<. 21)
  |. (Int32.of_int (rs1 land 0x1F) <<. 16)
  |. Int32.of_int ((rs2 land 0x1F) lsl 11 lor (funct land 0x3F) lor (imm16 land 0xFFFF))

(* NOTE: register-ALU format uses rs2+funct (funct in [5:0], rs2 in
   [15:11]); immediate formats use the full 16-bit immediate field. *)
let encode t =
  validate t;
  match t with
  | Alu (op, rd, rs1, rs2) ->
      word ~opcode:0 ~rd ~rs1 ~rs2 ~imm16:0 ~funct:(alu_funct op)
  | Alui (op, rd, rs1, imm) ->
      (* logical immediates are zero-extended, arithmetic ones
         sign-extended; both must fit 16 bits in their convention *)
      let ok =
        match op with
        | And | Or | Xor -> imm >= 0l && imm <= 0xFFFFl
        | Add | Sub | Mul | Div | Rem | Sll | Srl | Sra | Slt | Sltu ->
            imm16_ok imm
      in
      if not ok then
        raise (Encode_error (Printf.sprintf "imm %ld out of 16-bit range" imm));
      word ~opcode:(opcode_alui op) ~rd ~rs1 ~rs2:0
        ~imm16:(imm16_of_int32 imm) ~funct:0
  | Lui (rd, imm) ->
      if imm < 0l || imm > 0xFFFFl then
        raise (Encode_error (Printf.sprintf "lui imm %ld out of range" imm));
      word ~opcode:op_lui ~rd ~rs1:0 ~rs2:0 ~imm16:(Int32.to_int imm) ~funct:0
  | Li (rd, imm) ->
      if not (imm16_ok imm) then
        raise
          (Encode_error
             (Printf.sprintf "li imm %ld needs expansion before encoding" imm));
      word ~opcode:(opcode_alui Add) ~rd ~rs1:0 ~rs2:0
        ~imm16:(imm16_of_int32 imm) ~funct:0
  | Lw (rd, rs1, off) ->
      word ~opcode:op_lw ~rd ~rs1 ~rs2:0 ~imm16:(off land 0xFFFF) ~funct:0
  | Sw (rs2, rs1, off) ->
      word ~opcode:op_sw ~rd:rs2 ~rs1 ~rs2:0 ~imm16:(off land 0xFFFF) ~funct:0
  | Branch (c, rs1, rs2, off) ->
      (* rs2 rides in the rd field: [15:0] is fully taken by the offset *)
      word ~opcode:(opcode_branch c) ~rd:rs2 ~rs1 ~rs2:0
        ~imm16:(off land 0xFFFF) ~funct:0
  | Jump target ->
      Int32.of_int (op_jump land 0x3F) <<. 26 |. Int32.of_int (target land 0x3FFFFFF)
  | Special (sp, rd) ->
      word ~opcode:(opcode_special sp) ~rd ~rs1:0 ~rs2:0 ~imm16:0 ~funct:0
  | Barrier -> word ~opcode:op_barrier ~rd:0 ~rs1:0 ~rs2:0 ~imm16:0 ~funct:0
  | Ret -> word ~opcode:op_ret ~rd:0 ~rs1:0 ~rs2:0 ~imm16:0 ~funct:0

exception Decode_error of string

let decode w =
  let bits hi lo =
    Int32.to_int (Int32.logand (Int32.shift_right_logical w lo)
                    (Int32.of_int ((1 lsl (hi - lo + 1)) - 1)))
  in
  let opcode = bits 31 26 in
  let rd = bits 25 21 in
  let rs1 = bits 20 16 in
  let rs2 = bits 15 11 in
  let funct = bits 5 0 in
  let imm16 = bits 15 0 in
  let simm = sign_extend_16 imm16 in
  let soff =
    let v = imm16 in
    if v land 0x8000 <> 0 then v - 0x10000 else v
  in
  if opcode = 0 then Alu (alu_of_funct funct, rd, rs1, rs2)
  else if opcode >= 1 && opcode <= 13 then
    let op = alu_of_funct (opcode - 1) in
    let imm =
      match op with
      | And | Or | Xor -> Int32.of_int imm16 (* zero-extended *)
      | Add | Sub | Mul | Div | Rem | Sll | Srl | Sra | Slt | Sltu -> simm
    in
    if op = Add && rs1 = 0 then Li (rd, imm) else Alui (op, rd, rs1, imm)
  else if opcode = op_lui then Lui (rd, Int32.of_int imm16)
  else if opcode = op_lw then Lw (rd, rs1, soff)
  else if opcode = op_sw then Sw (rd, rs1, soff)
  else if opcode >= 17 && opcode <= 22 then
    let c =
      match opcode with
      | 17 -> Eq
      | 18 -> Ne
      | 19 -> Lt
      | 20 -> Ge
      | 21 -> Ltu
      | _ -> Geu
    in
    Branch (c, rs1, rd, soff)
  else if opcode = op_jump then
    Jump (Int32.to_int (Int32.logand w 0x3FFFFFFl))
  else if opcode >= 24 && opcode <= 28 then
    let sp =
      match opcode with
      | 24 -> Lid
      | 25 -> Wgid
      | 26 -> Wgoff
      | 27 -> Wgsize
      | _ -> Gsize
    in
    Special (sp, rd)
  else if opcode = op_barrier then Barrier
  else if opcode = op_ret then Ret
  else raise (Decode_error (Printf.sprintf "bad opcode %d" opcode))
