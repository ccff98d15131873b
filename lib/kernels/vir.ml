(* Virtual-register IR.

   The kernel AST lowers to this flat, label-based IR with unlimited
   virtual registers; linear-scan allocation (see {!Regalloc}) then maps
   virtual registers onto each target's physical register file, and the
   code generators emit G-GPU or RV32 instructions.  Keeping one IR for
   both targets mirrors the paper's single OpenCL source feeding both the
   FGPU compiler and the RISC-V toolchain. *)

type vreg = int
type value = Reg of vreg | Imm of int32
type special = Gid | Lid | WGid | LSize | GSize

type insn =
  | Bin of Ast.binop * vreg * value * value
  | Cmp of Ast.cmpop * vreg * value * value (* dst <- cmp ? 1 : 0 *)
  | Mov of vreg * value
  | Load of vreg * string * value (* dst <- buffer.(idx) *)
  | Store of string * value * value (* buffer.(idx) <- v *)
  | Read_special of special * vreg
  | Read_param of string * vreg (* scalar kernel parameter *)
  | Label of string
  | Jump of string
  | Branch_if of Ast.cmpop * value * value * string (* branch when true *)
  | Barrier
  | Ret

type program = {
  kernel_name : string;
  buffers : string list; (* in parameter order *)
  scalars : string list;
  insns : insn list;
}

let special_to_string = function
  | Gid -> "gid"
  | Lid -> "lid"
  | WGid -> "wgid"
  | LSize -> "lsize"
  | GSize -> "gsize"

let value_to_string = function
  | Reg v -> Printf.sprintf "v%d" v
  | Imm i -> Int32.to_string i

let binop_to_string = function
  | Ast.Add -> "add"
  | Ast.Sub -> "sub"
  | Ast.Mul -> "mul"
  | Ast.Div -> "div"
  | Ast.Rem -> "rem"
  | Ast.And -> "and"
  | Ast.Or -> "or"
  | Ast.Xor -> "xor"
  | Ast.Shl -> "shl"
  | Ast.Shr -> "shr"
  | Ast.Sra -> "sra"

let cmpop_to_string = function
  | Ast.Eq -> "eq"
  | Ast.Ne -> "ne"
  | Ast.Lt -> "lt"
  | Ast.Le -> "le"
  | Ast.Gt -> "gt"
  | Ast.Ge -> "ge"

let insn_to_string = function
  | Bin (op, d, a, b) ->
      Printf.sprintf "v%d = %s %s, %s" d (binop_to_string op)
        (value_to_string a) (value_to_string b)
  | Cmp (op, d, a, b) ->
      Printf.sprintf "v%d = %s %s, %s" d (cmpop_to_string op)
        (value_to_string a) (value_to_string b)
  | Mov (d, v) -> Printf.sprintf "v%d = %s" d (value_to_string v)
  | Load (d, buf, idx) ->
      Printf.sprintf "v%d = %s[%s]" d buf (value_to_string idx)
  | Store (buf, idx, v) ->
      Printf.sprintf "%s[%s] = %s" buf (value_to_string idx)
        (value_to_string v)
  | Read_special (sp, d) -> Printf.sprintf "v%d = %s" d (special_to_string sp)
  | Read_param (name, d) -> Printf.sprintf "v%d = param %s" d name
  | Label l -> l ^ ":"
  | Jump l -> "jump " ^ l
  | Branch_if (op, a, b, l) ->
      Printf.sprintf "br.%s %s, %s -> %s" (cmpop_to_string op)
        (value_to_string a) (value_to_string b) l
  | Barrier -> "barrier"
  | Ret -> "ret"

(* Registers read / written by an instruction. *)
let value_reg = function Reg v -> [ v ] | Imm _ -> []

let uses = function
  | Bin (_, _, a, b) | Cmp (_, _, a, b) -> value_reg a @ value_reg b
  | Mov (_, v) -> value_reg v
  | Load (_, _, idx) -> value_reg idx
  | Store (_, idx, v) -> value_reg idx @ value_reg v
  | Branch_if (_, a, b, _) -> value_reg a @ value_reg b
  | Read_special _ | Read_param _ | Label _ | Jump _ | Barrier | Ret -> []

let defs = function
  | Bin (_, d, _, _) | Cmp (_, d, _, _) | Mov (d, _) | Load (d, _, _)
  | Read_special (_, d)
  | Read_param (_, d) ->
      [ d ]
  | Store _ | Label _ | Jump _ | Branch_if _ | Barrier | Ret -> []
