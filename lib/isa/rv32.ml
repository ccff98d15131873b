(* RV32IM subset: the baseline CPU instruction set.

   Covers the instructions the kernel compiler emits plus enough of the
   base ISA for hand-written tests: LUI, AUIPC, JAL, JALR, conditional
   branches, LW/SW, the OP-IMM and OP arithmetic groups, and the M
   extension (MUL/DIV/REM).  Encoding follows the RISC-V unprivileged
   specification exactly (R/I/S/B/U/J formats), which the round-trip
   property tests exercise. *)

type reg = int (* x0..x31 *)

type t =
  | Lui of reg * int32 (* rd <- imm20 << 12 *)
  | Auipc of reg * int32
  | Jal of reg * int (* byte offset *)
  | Jalr of reg * reg * int
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Lw of reg * reg * int
  | Sw of reg * reg * int (* Sw (rs2, rs1, off): mem[rs1+off] <- rs2 *)
  | Addi of reg * reg * int32
  | Slti of reg * reg * int32
  | Sltiu of reg * reg * int32
  | Xori of reg * reg * int32
  | Ori of reg * reg * int32
  | Andi of reg * reg * int32
  | Slli of reg * reg * int
  | Srli of reg * reg * int
  | Srai of reg * reg * int
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Sll of reg * reg * reg
  | Slt of reg * reg * reg
  | Sltu of reg * reg * reg
  | Xor of reg * reg * reg
  | Srl of reg * reg * reg
  | Sra of reg * reg * reg
  | Or of reg * reg * reg
  | And of reg * reg * reg
  | Mul of reg * reg * reg
  | Mulh of reg * reg * reg
  | Div of reg * reg * reg
  | Divu of reg * reg * reg
  | Rem of reg * reg * reg
  | Remu of reg * reg * reg
  | Ecall (* used as "halt" by the simulator *)

exception Encode_error of string
exception Decode_error of string

let check_reg r =
  if r < 0 || r > 31 then
    raise (Encode_error (Printf.sprintf "register x%d out of range" r))

let to_string t =
  let r = Printf.sprintf in
  match t with
  | Lui (rd, imm) -> r "lui x%d, %ld" rd imm
  | Auipc (rd, imm) -> r "auipc x%d, %ld" rd imm
  | Jal (rd, off) -> r "jal x%d, %d" rd off
  | Jalr (rd, rs1, off) -> r "jalr x%d, %d(x%d)" rd off rs1
  | Beq (a, b, off) -> r "beq x%d, x%d, %d" a b off
  | Bne (a, b, off) -> r "bne x%d, x%d, %d" a b off
  | Blt (a, b, off) -> r "blt x%d, x%d, %d" a b off
  | Bge (a, b, off) -> r "bge x%d, x%d, %d" a b off
  | Bltu (a, b, off) -> r "bltu x%d, x%d, %d" a b off
  | Bgeu (a, b, off) -> r "bgeu x%d, x%d, %d" a b off
  | Lw (rd, rs1, off) -> r "lw x%d, %d(x%d)" rd off rs1
  | Sw (rs2, rs1, off) -> r "sw x%d, %d(x%d)" rs2 off rs1
  | Addi (rd, rs1, i) -> r "addi x%d, x%d, %ld" rd rs1 i
  | Slti (rd, rs1, i) -> r "slti x%d, x%d, %ld" rd rs1 i
  | Sltiu (rd, rs1, i) -> r "sltiu x%d, x%d, %ld" rd rs1 i
  | Xori (rd, rs1, i) -> r "xori x%d, x%d, %ld" rd rs1 i
  | Ori (rd, rs1, i) -> r "ori x%d, x%d, %ld" rd rs1 i
  | Andi (rd, rs1, i) -> r "andi x%d, x%d, %ld" rd rs1 i
  | Slli (rd, rs1, sh) -> r "slli x%d, x%d, %d" rd rs1 sh
  | Srli (rd, rs1, sh) -> r "srli x%d, x%d, %d" rd rs1 sh
  | Srai (rd, rs1, sh) -> r "srai x%d, x%d, %d" rd rs1 sh
  | Add (rd, a, b) -> r "add x%d, x%d, x%d" rd a b
  | Sub (rd, a, b) -> r "sub x%d, x%d, x%d" rd a b
  | Sll (rd, a, b) -> r "sll x%d, x%d, x%d" rd a b
  | Slt (rd, a, b) -> r "slt x%d, x%d, x%d" rd a b
  | Sltu (rd, a, b) -> r "sltu x%d, x%d, x%d" rd a b
  | Xor (rd, a, b) -> r "xor x%d, x%d, x%d" rd a b
  | Srl (rd, a, b) -> r "srl x%d, x%d, x%d" rd a b
  | Sra (rd, a, b) -> r "sra x%d, x%d, x%d" rd a b
  | Or (rd, a, b) -> r "or x%d, x%d, x%d" rd a b
  | And (rd, a, b) -> r "and x%d, x%d, x%d" rd a b
  | Mul (rd, a, b) -> r "mul x%d, x%d, x%d" rd a b
  | Mulh (rd, a, b) -> r "mulh x%d, x%d, x%d" rd a b
  | Div (rd, a, b) -> r "div x%d, x%d, x%d" rd a b
  | Divu (rd, a, b) -> r "divu x%d, x%d, x%d" rd a b
  | Rem (rd, a, b) -> r "rem x%d, x%d, x%d" rd a b
  | Remu (rd, a, b) -> r "remu x%d, x%d, x%d" rd a b
  | Ecall -> "ecall"

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* --- Encoding: standard RISC-V formats -------------------------------- *)

let mask n = (1 lsl n) - 1

let r_type ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode =
  check_reg rd;
  check_reg rs1;
  check_reg rs2;
  Int32.of_int
    ((funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
    lor (rd lsl 7) lor opcode)

let i_type ~imm ~rs1 ~funct3 ~rd ~opcode =
  check_reg rd;
  check_reg rs1;
  if imm < -2048 || imm > 2047 then
    raise (Encode_error (Printf.sprintf "I-imm %d out of range" imm));
  Int32.of_int
    (((imm land 0xFFF) lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
    lor (rd lsl 7) lor opcode)

let s_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  check_reg rs1;
  check_reg rs2;
  if imm < -2048 || imm > 2047 then
    raise (Encode_error (Printf.sprintf "S-imm %d out of range" imm));
  let imm = imm land 0xFFF in
  Int32.of_int
    (((imm lsr 5) lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
    lor ((imm land mask 5) lsl 7) lor opcode)

let b_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  check_reg rs1;
  check_reg rs2;
  if imm < -4096 || imm > 4094 || imm land 1 <> 0 then
    raise (Encode_error (Printf.sprintf "B-imm %d out of range" imm));
  let imm = imm land 0x1FFF in
  let bit n = (imm lsr n) land 1 in
  Int32.of_int
    ((bit 12 lsl 31)
    lor (((imm lsr 5) land mask 6) lsl 25)
    lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
    lor (((imm lsr 1) land mask 4) lsl 8)
    lor (bit 11 lsl 7) lor opcode)

let u_type ~imm ~rd ~opcode =
  check_reg rd;
  if imm < 0l || imm > 0xFFFFFl then
    raise (Encode_error (Printf.sprintf "U-imm %ld out of range" imm));
  Int32.logor (Int32.shift_left imm 12) (Int32.of_int ((rd lsl 7) lor opcode))

let j_type ~imm ~rd ~opcode =
  check_reg rd;
  if imm < -1048576 || imm > 1048574 || imm land 1 <> 0 then
    raise (Encode_error (Printf.sprintf "J-imm %d out of range" imm));
  let imm = imm land 0x1FFFFF in
  let bit n = (imm lsr n) land 1 in
  Int32.of_int
    ((bit 20 lsl 31)
    lor (((imm lsr 1) land mask 10) lsl 21)
    lor (bit 11 lsl 20)
    lor (((imm lsr 12) land mask 8) lsl 12)
    lor (rd lsl 7) lor opcode)

let op_lui = 0x37
let op_auipc = 0x17
let op_jal = 0x6F
let op_jalr = 0x67
let op_branch = 0x63
let op_load = 0x03
let op_store = 0x23
let op_imm = 0x13
let op_op = 0x33
let op_system = 0x73

let encode t =
  match t with
  | Lui (rd, imm) -> u_type ~imm ~rd ~opcode:op_lui
  | Auipc (rd, imm) -> u_type ~imm ~rd ~opcode:op_auipc
  | Jal (rd, off) -> j_type ~imm:off ~rd ~opcode:op_jal
  | Jalr (rd, rs1, off) -> i_type ~imm:off ~rs1 ~funct3:0 ~rd ~opcode:op_jalr
  | Beq (a, b, off) -> b_type ~imm:off ~rs2:b ~rs1:a ~funct3:0 ~opcode:op_branch
  | Bne (a, b, off) -> b_type ~imm:off ~rs2:b ~rs1:a ~funct3:1 ~opcode:op_branch
  | Blt (a, b, off) -> b_type ~imm:off ~rs2:b ~rs1:a ~funct3:4 ~opcode:op_branch
  | Bge (a, b, off) -> b_type ~imm:off ~rs2:b ~rs1:a ~funct3:5 ~opcode:op_branch
  | Bltu (a, b, off) ->
      b_type ~imm:off ~rs2:b ~rs1:a ~funct3:6 ~opcode:op_branch
  | Bgeu (a, b, off) ->
      b_type ~imm:off ~rs2:b ~rs1:a ~funct3:7 ~opcode:op_branch
  | Lw (rd, rs1, off) -> i_type ~imm:off ~rs1 ~funct3:2 ~rd ~opcode:op_load
  | Sw (rs2, rs1, off) -> s_type ~imm:off ~rs2 ~rs1 ~funct3:2 ~opcode:op_store
  | Addi (rd, rs1, i) ->
      i_type ~imm:(Int32.to_int i) ~rs1 ~funct3:0 ~rd ~opcode:op_imm
  | Slti (rd, rs1, i) ->
      i_type ~imm:(Int32.to_int i) ~rs1 ~funct3:2 ~rd ~opcode:op_imm
  | Sltiu (rd, rs1, i) ->
      i_type ~imm:(Int32.to_int i) ~rs1 ~funct3:3 ~rd ~opcode:op_imm
  | Xori (rd, rs1, i) ->
      i_type ~imm:(Int32.to_int i) ~rs1 ~funct3:4 ~rd ~opcode:op_imm
  | Ori (rd, rs1, i) ->
      i_type ~imm:(Int32.to_int i) ~rs1 ~funct3:6 ~rd ~opcode:op_imm
  | Andi (rd, rs1, i) ->
      i_type ~imm:(Int32.to_int i) ~rs1 ~funct3:7 ~rd ~opcode:op_imm
  | Slli (rd, rs1, sh) -> i_type ~imm:sh ~rs1 ~funct3:1 ~rd ~opcode:op_imm
  | Srli (rd, rs1, sh) -> i_type ~imm:sh ~rs1 ~funct3:5 ~rd ~opcode:op_imm
  | Srai (rd, rs1, sh) ->
      i_type ~imm:(sh lor 0x400) ~rs1 ~funct3:5 ~rd ~opcode:op_imm
  | Add (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:0 ~rd ~opcode:op_op
  | Sub (rd, a, b) ->
      r_type ~funct7:0x20 ~rs2:b ~rs1:a ~funct3:0 ~rd ~opcode:op_op
  | Sll (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:1 ~rd ~opcode:op_op
  | Slt (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:2 ~rd ~opcode:op_op
  | Sltu (rd, a, b) ->
      r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:3 ~rd ~opcode:op_op
  | Xor (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:4 ~rd ~opcode:op_op
  | Srl (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:5 ~rd ~opcode:op_op
  | Sra (rd, a, b) ->
      r_type ~funct7:0x20 ~rs2:b ~rs1:a ~funct3:5 ~rd ~opcode:op_op
  | Or (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:6 ~rd ~opcode:op_op
  | And (rd, a, b) -> r_type ~funct7:0 ~rs2:b ~rs1:a ~funct3:7 ~rd ~opcode:op_op
  | Mul (rd, a, b) -> r_type ~funct7:1 ~rs2:b ~rs1:a ~funct3:0 ~rd ~opcode:op_op
  | Mulh (rd, a, b) ->
      r_type ~funct7:1 ~rs2:b ~rs1:a ~funct3:1 ~rd ~opcode:op_op
  | Div (rd, a, b) -> r_type ~funct7:1 ~rs2:b ~rs1:a ~funct3:4 ~rd ~opcode:op_op
  | Divu (rd, a, b) ->
      r_type ~funct7:1 ~rs2:b ~rs1:a ~funct3:5 ~rd ~opcode:op_op
  | Rem (rd, a, b) -> r_type ~funct7:1 ~rs2:b ~rs1:a ~funct3:6 ~rd ~opcode:op_op
  | Remu (rd, a, b) ->
      r_type ~funct7:1 ~rs2:b ~rs1:a ~funct3:7 ~rd ~opcode:op_op
  | Ecall -> Int32.of_int op_system

(* --- Decoding --------------------------------------------------------- *)

let decode w =
  let wi = Int32.to_int (Int32.logand w 0xFFFFFFFFl) in
  let bits hi lo = (wi lsr lo) land mask (hi - lo + 1) in
  let opcode = bits 6 0 in
  let rd = bits 11 7 in
  let funct3 = bits 14 12 in
  let rs1 = bits 19 15 in
  let rs2 = bits 24 20 in
  let funct7 = bits 31 25 in
  let sign_extend v bits_n =
    if v land (1 lsl (bits_n - 1)) <> 0 then v - (1 lsl bits_n) else v
  in
  let i_imm = sign_extend (bits 31 20) 12 in
  let s_imm = sign_extend ((bits 31 25 lsl 5) lor bits 11 7) 12 in
  let b_imm =
    sign_extend
      ((bits 31 31 lsl 12) lor (bits 7 7 lsl 11) lor (bits 30 25 lsl 5)
      lor (bits 11 8 lsl 1))
      13
  in
  let u_imm = Int32.of_int (bits 31 12) in
  let j_imm =
    sign_extend
      ((bits 31 31 lsl 20) lor (bits 19 12 lsl 12) lor (bits 20 20 lsl 11)
      lor (bits 30 21 lsl 1))
      21
  in
  let bad () =
    raise
      (Decode_error
         (Printf.sprintf "cannot decode word 0x%08lx (opcode 0x%02x)" w opcode))
  in
  match opcode with
  | 0x37 -> Lui (rd, u_imm)
  | 0x17 -> Auipc (rd, u_imm)
  | 0x6F -> Jal (rd, j_imm)
  | 0x67 -> Jalr (rd, rs1, i_imm)
  | 0x63 -> (
      match funct3 with
      | 0 -> Beq (rs1, rs2, b_imm)
      | 1 -> Bne (rs1, rs2, b_imm)
      | 4 -> Blt (rs1, rs2, b_imm)
      | 5 -> Bge (rs1, rs2, b_imm)
      | 6 -> Bltu (rs1, rs2, b_imm)
      | 7 -> Bgeu (rs1, rs2, b_imm)
      | _ -> bad ())
  | 0x03 -> if funct3 = 2 then Lw (rd, rs1, i_imm) else bad ()
  | 0x23 -> if funct3 = 2 then Sw (rs2, rs1, s_imm) else bad ()
  | 0x13 -> (
      match funct3 with
      | 0 -> Addi (rd, rs1, Int32.of_int i_imm)
      | 2 -> Slti (rd, rs1, Int32.of_int i_imm)
      | 3 -> Sltiu (rd, rs1, Int32.of_int i_imm)
      | 4 -> Xori (rd, rs1, Int32.of_int i_imm)
      | 6 -> Ori (rd, rs1, Int32.of_int i_imm)
      | 7 -> Andi (rd, rs1, Int32.of_int i_imm)
      | 1 -> Slli (rd, rs1, rs2)
      | 5 -> if funct7 land 0x20 <> 0 then Srai (rd, rs1, rs2) else Srli (rd, rs1, rs2)
      | _ -> bad ())
  | 0x33 -> (
      match (funct7, funct3) with
      | 0, 0 -> Add (rd, rs1, rs2)
      | 0x20, 0 -> Sub (rd, rs1, rs2)
      | 0, 1 -> Sll (rd, rs1, rs2)
      | 0, 2 -> Slt (rd, rs1, rs2)
      | 0, 3 -> Sltu (rd, rs1, rs2)
      | 0, 4 -> Xor (rd, rs1, rs2)
      | 0, 5 -> Srl (rd, rs1, rs2)
      | 0x20, 5 -> Sra (rd, rs1, rs2)
      | 0, 6 -> Or (rd, rs1, rs2)
      | 0, 7 -> And (rd, rs1, rs2)
      | 1, 0 -> Mul (rd, rs1, rs2)
      | 1, 1 -> Mulh (rd, rs1, rs2)
      | 1, 4 -> Div (rd, rs1, rs2)
      | 1, 5 -> Divu (rd, rs1, rs2)
      | 1, 6 -> Rem (rd, rs1, rs2)
      | 1, 7 -> Remu (rd, rs1, rs2)
      | _ -> bad ())
  | 0x73 -> Ecall
  | _ -> bad ()
