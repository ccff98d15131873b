(* Assembler for the G-GPU ISA: label resolution and constant expansion.

   Programs are written as a list of items mixing labels, raw
   instructions and label-targeting control flow.  [assemble] performs
   two passes: the first sizes every item (an [Li32] of a wide constant
   expands to a [Lui]/[Ori] pair), the second resolves labels into
   relative branch offsets and absolute jump targets. *)

type item =
  | Label of string
  | I of Fgpu_isa.t
  | Branch_to of Fgpu_isa.cond * Fgpu_isa.reg * Fgpu_isa.reg * string
  | Jump_to of string
  | Li32 of Fgpu_isa.reg * int32 (* expanded as needed *)

exception Asm_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt

let imm16_ok v = v >= -32768l && v <= 32767l

let item_size = function
  | Label _ -> 0
  | I _ | Branch_to _ | Jump_to _ -> 1
  | Li32 (_, imm) -> if imm16_ok imm then 1 else 2

let assemble items =
  (* pass 1: label addresses *)
  let labels = Hashtbl.create 16 in
  let pc = ref 0 in
  List.iter
    (fun item ->
      (match item with
      | Label name ->
          if Hashtbl.mem labels name then err "duplicate label %s" name;
          Hashtbl.replace labels name !pc
      | I _ | Branch_to _ | Jump_to _ | Li32 _ -> ());
      pc := !pc + item_size item)
    items;
  let resolve name =
    match Hashtbl.find_opt labels name with
    | Some addr -> addr
    | None -> err "undefined label %s" name
  in
  (* pass 2: emission *)
  let out = ref [] in
  let pc = ref 0 in
  let emit insn =
    Fgpu_isa.validate insn;
    out := insn :: !out;
    incr pc
  in
  List.iter
    (fun item ->
      match item with
      | Label _ -> ()
      | I insn -> emit insn
      | Branch_to (c, rs1, rs2, name) ->
          let off = resolve name - (!pc + 1) in
          emit (Fgpu_isa.Branch (c, rs1, rs2, off))
      | Jump_to name -> emit (Fgpu_isa.Jump (resolve name))
      | Li32 (rd, imm) ->
          if imm16_ok imm then emit (Fgpu_isa.Li (rd, imm))
          else begin
            let hi = Int32.shift_right_logical imm 16 in
            let lo = Int32.logand imm 0xFFFFl in
            emit (Fgpu_isa.Lui (rd, hi));
            if lo <> 0l then emit (Fgpu_isa.Alui (Fgpu_isa.Or, rd, rd, lo))
            else emit (Fgpu_isa.Alui (Fgpu_isa.Or, rd, rd, 0l))
          end)
    items;
  Array.of_list (List.rev !out)
