(* Verified rewrite rules.

   A rule is a pair of straight-line instruction sequences over
   canonical pattern registers: when [lhs] matches a window of real
   code (register ids in the patterns are variables, opcodes and
   immediates are literal), the window may be replaced by [rhs].  The
   miner guarantees that from any initial register state the two
   sequences leave every canonical register equal — except those in
   [clobbers], whose final values may differ and which therefore must
   be dead at the end of the window for the rewrite to be sound (the
   peephole pass checks this against its liveness analysis).

   Serialisation reuses the ISA's 32-bit word encoding: each pattern
   instruction prints as eight hex digits, so a rule line is a stable,
   diffable, machine-checkable record and the parser is
   {!Ggpu_isa.Fgpu_isa.decode}.  Example:

     04620800,045f0000 => 00311800 ; clobbers=3 ; saves=8

   — "op r3,r1,r2 ; mov r1,r3" => "op r1,r1,r2", clobbering r3. *)

open Ggpu_isa

type t = {
  lhs : Fgpu_isa.t list;
  rhs : Fgpu_isa.t list;
  clobbers : int list; (* canonical regs possibly differing after lhs vs rhs *)
  saved : int; (* cycles saved per application, Config.default latencies *)
}

exception Parse_error of string

(* --- register accounting ---------------------------------------------- *)

let insn_regs = function
  | Fgpu_isa.Alu (_, rd, rs1, rs2) -> [ rd; rs1; rs2 ]
  | Fgpu_isa.Alui (_, rd, rs1, _) | Fgpu_isa.Lw (rd, rs1, _) -> [ rd; rs1 ]
  | Fgpu_isa.Sw (rs2, rs1, _) -> [ rs2; rs1 ]
  | Fgpu_isa.Lui (rd, _) | Fgpu_isa.Li (rd, _) | Fgpu_isa.Special (_, rd) -> [ rd ]
  | Fgpu_isa.Branch (_, rs1, rs2, _) -> [ rs1; rs2 ]
  | Fgpu_isa.Jump _ | Fgpu_isa.Barrier | Fgpu_isa.Ret -> []

let seq_regs seq =
  List.sort_uniq compare (List.concat_map insn_regs seq)
  |> List.filter (fun r -> r <> 0)

let vars rule = List.sort_uniq compare (seq_regs rule.lhs @ seq_regs rule.rhs)

let writes seq =
  List.filter_map Fgpu_isa.writes_reg seq
  |> List.filter (fun r -> r <> 0)
  |> List.sort_uniq compare

(* --- normalisation ---------------------------------------------------- *)

(* Rename pattern registers to 1, 2, 3... in first-occurrence order
   over lhs then rhs, so rules equal up to renaming serialise
   identically and dedup on the line. *)
let normalise rule =
  let map = Array.make Fgpu_isa.num_regs 0 in
  let next = ref 0 in
  let rename r =
    if r = 0 then 0
    else begin
      if map.(r) = 0 then begin
        incr next;
        map.(r) <- !next
      end;
      map.(r)
    end
  in
  let rename_insn = function
    | Fgpu_isa.Alu (op, rd, rs1, rs2) ->
        Fgpu_isa.Alu (op, rename rd, rename rs1, rename rs2)
    | Fgpu_isa.Alui (op, rd, rs1, imm) ->
        Fgpu_isa.Alui (op, rename rd, rename rs1, imm)
    | Fgpu_isa.Lw (rd, rs1, off) -> Fgpu_isa.Lw (rename rd, rename rs1, off)
    | Fgpu_isa.Sw (rs2, rs1, off) -> Fgpu_isa.Sw (rename rs2, rename rs1, off)
    | Fgpu_isa.Lui (rd, imm) -> Fgpu_isa.Lui (rename rd, imm)
    | Fgpu_isa.Li (rd, imm) -> Fgpu_isa.Li (rename rd, imm)
    | Fgpu_isa.Special (sp, rd) -> Fgpu_isa.Special (sp, rename rd)
    | (Fgpu_isa.Branch _ | Fgpu_isa.Jump _ | Fgpu_isa.Barrier | Fgpu_isa.Ret) as i
      ->
        i
  in
  let lhs = List.map rename_insn rule.lhs in
  let rhs = List.map rename_insn rule.rhs in
  let clobbers =
    List.map (fun r -> if map.(r) = 0 then r else map.(r)) rule.clobbers
    |> List.sort_uniq compare
  in
  { rule with lhs; rhs; clobbers }

(* --- serialisation ---------------------------------------------------- *)

let words_to_string seq =
  List.map (fun i -> Printf.sprintf "%08lx" (Fgpu_isa.encode i)) seq
  |> String.concat ","

let to_line rule =
  Printf.sprintf "%s => %s ; clobbers=%s ; saves=%d"
    (words_to_string rule.lhs)
    (words_to_string rule.rhs)
    (String.concat "," (List.map string_of_int rule.clobbers))
    rule.saved

let parse_words s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun w ->
           let w = String.trim w in
           let bad why = raise (Parse_error (Printf.sprintf "%s: %S" why w)) in
           match Int32.of_string_opt ("0x" ^ w) with
           | None -> bad "bad word"
           | Some word -> (
               (* an illegal opcode, or an ALU funct the ISA lacks *)
               try Fgpu_isa.decode word
               with Fgpu_isa.Decode_error why | Fgpu_isa.Encode_error why ->
                 bad why))

let of_line line =
  let fail why = raise (Parse_error (Printf.sprintf "%s in %S" why line)) in
  match String.index_opt line '>' with
  | None -> fail "missing =>"
  | Some gt ->
      if gt = 0 || line.[gt - 1] <> '=' then fail "missing =>";
      let lhs_s = String.sub line 0 (gt - 1) in
      let rest = String.sub line (gt + 1) (String.length line - gt - 1) in
      let fields = String.split_on_char ';' rest in
      let rhs_s, clob_s, saves_s =
        match fields with
        | [ r; c; s ] -> (r, c, s)
        | _ -> fail "expected '; clobbers=... ; saves=...'"
      in
      let strip_key key s =
        let s = String.trim s in
        let prefix = key ^ "=" in
        if String.length s >= String.length prefix
           && String.sub s 0 (String.length prefix) = prefix
        then String.sub s (String.length prefix) (String.length s - String.length prefix)
        else fail (Printf.sprintf "expected %s=" key)
      in
      let clobbers =
        match String.trim (strip_key "clobbers" clob_s) with
        | "" -> []
        | s ->
            String.split_on_char ',' s
            |> List.map (fun r ->
                   match int_of_string_opt (String.trim r) with
                   | Some v when v >= 1 && v < Fgpu_isa.num_regs -> v
                   | _ -> fail "bad clobber register")
      in
      let saved =
        match int_of_string_opt (String.trim (strip_key "saves" saves_s)) with
        | Some v -> v
        | None -> fail "bad saves field"
      in
      { lhs = parse_words lhs_s; rhs = parse_words rhs_s; clobbers; saved }

let pp fmt rule =
  let seq s = String.concat " ; " (List.map Fgpu_isa.to_string s) in
  Format.fprintf fmt "{%s}  =>  {%s}" (seq rule.lhs) (seq rule.rhs);
  if rule.clobbers <> [] then
    Format.fprintf fmt "  clobbers %s"
      (String.concat "," (List.map (fun r -> "r" ^ string_of_int r) rule.clobbers));
  Format.fprintf fmt "  (saves %d cyc)" rule.saved

let to_string rule = Format.asprintf "%a" pp rule

(* --- matching --------------------------------------------------------- *)

(* A substitution maps pattern registers to concrete registers.  The
   binding must be injective (two pattern variables never share a
   concrete register: the miner's equivalence proof assumed them
   independent) and never binds r0, whose write-discard semantics no
   pattern variable models. *)

let bind theta used v c =
  if v = 0 || c = 0 then v = 0 && c = 0
  else if theta.(v) >= 0 then theta.(v) = c
  else if used.(c) then false
  else begin
    theta.(v) <- c;
    used.(c) <- true;
    true
  end

let match_insn theta used (pat : Fgpu_isa.t) (ins : Fgpu_isa.t) =
  match (pat, ins) with
  | Fgpu_isa.Alu (op, pd, p1, p2), Fgpu_isa.Alu (op', d, s1, s2) ->
      op = op' && bind theta used pd d && bind theta used p1 s1
      && bind theta used p2 s2
  | Fgpu_isa.Alui (op, pd, p1, pimm), Fgpu_isa.Alui (op', d, s1, imm) ->
      op = op' && Int32.equal pimm imm && bind theta used pd d
      && bind theta used p1 s1
  | Fgpu_isa.Li (pd, pimm), Fgpu_isa.Li (d, imm) ->
      Int32.equal pimm imm && bind theta used pd d
  | Fgpu_isa.Lui (pd, pimm), Fgpu_isa.Lui (d, imm) ->
      Int32.equal pimm imm && bind theta used pd d
  | _ -> false

let subst_insn theta (pat : Fgpu_isa.t) =
  let s v = if v = 0 then 0 else theta.(v) in
  match pat with
  | Fgpu_isa.Alu (op, rd, rs1, rs2) -> Fgpu_isa.Alu (op, s rd, s rs1, s rs2)
  | Fgpu_isa.Alui (op, rd, rs1, imm) -> Fgpu_isa.Alui (op, s rd, s rs1, imm)
  | Fgpu_isa.Li (rd, imm) -> Fgpu_isa.Li (s rd, imm)
  | Fgpu_isa.Lui (rd, imm) -> Fgpu_isa.Lui (s rd, imm)
  | i -> i

(* Match [rule.lhs] against [window] (same length).  On success,
   returns the substitution array (pattern reg -> concrete reg, every
   variable of the rule bound). *)
let match_window rule (window : Fgpu_isa.t list) =
  if List.length window <> List.length rule.lhs then None
  else begin
    let theta = Array.make Fgpu_isa.num_regs (-1) in
    let used = Array.make Fgpu_isa.num_regs false in
    if List.for_all2 (fun p i -> match_insn theta used p i) rule.lhs window then begin
      (* bind any rhs-only / clobber-only variables?  The miner
         guarantees vars(rhs) and clobbers are lhs-bound; reject
         defensively if not, rather than inventing registers. *)
      if List.for_all (fun v -> theta.(v) >= 0) (vars rule)
         && List.for_all (fun v -> theta.(v) >= 0) rule.clobbers
      then Some theta
      else None
    end
    else None
  end

let instantiate rule theta = List.map (subst_insn theta) rule.rhs
