(* Assembler for RV32: label resolution and wide-constant expansion.

   Control-flow items name labels; [assemble] resolves them into byte
   offsets (branches, JAL are PC-relative).  [Li32] materialises an
   arbitrary 32-bit constant as LUI+ADDI with the standard carry fix-up
   for a negative low part. *)

type item =
  | Label of string
  | I of Rv32.t
  | Beq_to of Rv32.reg * Rv32.reg * string
  | Bne_to of Rv32.reg * Rv32.reg * string
  | Blt_to of Rv32.reg * Rv32.reg * string
  | Bge_to of Rv32.reg * Rv32.reg * string
  | Bltu_to of Rv32.reg * Rv32.reg * string
  | Bgeu_to of Rv32.reg * Rv32.reg * string
  | Jal_to of Rv32.reg * string
  | Li32 of Rv32.reg * int32

exception Asm_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt
let fits_imm12 v = v >= -2048l && v <= 2047l

let item_size = function
  | Label _ -> 0
  | I _ | Beq_to _ | Bne_to _ | Blt_to _ | Bge_to _ | Bltu_to _ | Bgeu_to _
  | Jal_to _ ->
      4
  | Li32 (_, imm) -> if fits_imm12 imm then 4 else 8

(* Split a 32-bit constant into (hi20, lo12) such that
   (hi20 << 12) + sext(lo12) = imm. *)
let split_hi_lo imm =
  let lo = Int32.logand imm 0xFFFl in
  let lo = if Int32.compare lo 0x800l >= 0 then Int32.sub lo 0x1000l else lo in
  let hi =
    Int32.logand (Int32.shift_right_logical (Int32.sub imm lo) 12) 0xFFFFFl
  in
  (hi, lo)

let assemble items =
  let labels = Hashtbl.create 16 in
  let pc = ref 0 in
  List.iter
    (fun item ->
      (match item with
      | Label name ->
          if Hashtbl.mem labels name then err "duplicate label %s" name;
          Hashtbl.replace labels name !pc
      | _ -> ());
      pc := !pc + item_size item)
    items;
  let resolve name =
    match Hashtbl.find_opt labels name with
    | Some addr -> addr
    | None -> err "undefined label %s" name
  in
  let out = ref [] in
  let pc = ref 0 in
  let emit insn =
    out := insn :: !out;
    pc := !pc + 4
  in
  let branch mk name =
    let off = resolve name - !pc in
    emit (mk off)
  in
  List.iter
    (fun item ->
      match item with
      | Label _ -> ()
      | I insn -> emit insn
      | Beq_to (a, b, l) -> branch (fun o -> Rv32.Beq (a, b, o)) l
      | Bne_to (a, b, l) -> branch (fun o -> Rv32.Bne (a, b, o)) l
      | Blt_to (a, b, l) -> branch (fun o -> Rv32.Blt (a, b, o)) l
      | Bge_to (a, b, l) -> branch (fun o -> Rv32.Bge (a, b, o)) l
      | Bltu_to (a, b, l) -> branch (fun o -> Rv32.Bltu (a, b, o)) l
      | Bgeu_to (a, b, l) -> branch (fun o -> Rv32.Bgeu (a, b, o)) l
      | Jal_to (rd, l) -> branch (fun o -> Rv32.Jal (rd, o)) l
      | Li32 (rd, imm) ->
          if fits_imm12 imm then emit (Rv32.Addi (rd, 0, imm))
          else begin
            let hi, lo = split_hi_lo imm in
            emit (Rv32.Lui (rd, hi));
            emit (Rv32.Addi (rd, rd, lo))
          end)
    items;
  Array.of_list (List.rev !out)
