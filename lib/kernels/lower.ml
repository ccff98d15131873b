(* Lowering: kernel AST -> virtual-register IR.

   Named variables (locals, loop counters) get one stable virtual
   register each; expression temporaries get fresh ones.  [If] conditions
   that are comparisons lower to a single conditional branch; other
   conditions compare against zero.

   An assignment whose right-hand side is a binary operation
   ([s = s op x], [s = x op s], [s = a op b]) writes the variable's own
   register directly, with no temporary and no copy.  That is sound on
   both targets: each [Vir.Bin] becomes exactly one ALU instruction
   (immediates go to scratch registers first), and an ALU instruction
   reads its sources before it writes its destination, so the
   destination may be one of the sources.  Likewise a declaration's
   computed initialiser is lowered into the fresh register that becomes
   the variable's, so a variable assigned again later keeps no copy
   ({!Opt.copy_propagate} forwards only single-assignment registers). *)

exception Lower_error of string

type state = {
  mutable next_vreg : int;
  mutable next_label : int;
  mutable rev_insns : Vir.insn list;
  vars : (string, Vir.vreg) Hashtbl.t;
}

let fresh_reg st =
  let v = st.next_vreg in
  st.next_vreg <- v + 1;
  v

let fresh_label st prefix =
  let n = st.next_label in
  st.next_label <- n + 1;
  Printf.sprintf "%s_%d" prefix n

let emit st insn = st.rev_insns <- insn :: st.rev_insns

let var_reg st name =
  match Hashtbl.find_opt st.vars name with
  | Some v -> v
  | None -> raise (Lower_error (Printf.sprintf "unbound variable %s" name))

let negate_cmp = function
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt

(* Evaluate an expression to a value (possibly an immediate). *)
let rec lower_value st e : Vir.value =
  match e with
  | Ast.Const v -> Vir.Imm v
  | Ast.Var name -> Vir.Reg (var_reg st name)
  | _ -> Vir.Reg (lower_to_reg st e)

and lower_to_reg st e : Vir.vreg =
  match e with
  | Ast.Var name -> var_reg st name
  | Ast.Const v ->
      let d = fresh_reg st in
      emit st (Vir.Mov (d, Vir.Imm v));
      d
  | Ast.Global_id ->
      let d = fresh_reg st in
      emit st (Vir.Read_special (Vir.Gid, d));
      d
  | Ast.Local_id ->
      let d = fresh_reg st in
      emit st (Vir.Read_special (Vir.Lid, d));
      d
  | Ast.Group_id ->
      let d = fresh_reg st in
      emit st (Vir.Read_special (Vir.WGid, d));
      d
  | Ast.Local_size ->
      let d = fresh_reg st in
      emit st (Vir.Read_special (Vir.LSize, d));
      d
  | Ast.Global_size ->
      let d = fresh_reg st in
      emit st (Vir.Read_special (Vir.GSize, d));
      d
  | Ast.Binop (op, a, b) ->
      let va = lower_value st a in
      let vb = lower_value st b in
      let d = fresh_reg st in
      emit st (Vir.Bin (op, d, va, vb));
      d
  | Ast.Cmp (op, a, b) ->
      let va = lower_value st a in
      let vb = lower_value st b in
      let d = fresh_reg st in
      emit st (Vir.Cmp (op, d, va, vb));
      d
  | Ast.Load (buf, idx) ->
      let vi = lower_value st idx in
      let d = fresh_reg st in
      emit st (Vir.Load (d, buf, vi));
      d

(* Branch to [target] when [cond] is false. *)
let lower_branch_unless st cond ~target =
  match cond with
  | Ast.Cmp (op, a, b) ->
      let va = lower_value st a in
      let vb = lower_value st b in
      emit st (Vir.Branch_if (negate_cmp op, va, vb, target))
  | _ ->
      let v = lower_value st cond in
      emit st (Vir.Branch_if (Ast.Eq, v, Vir.Imm 0l, target))

let rec lower_stmts st stmts = List.iter (lower_stmt st) stmts

and lower_stmt st stmt =
  match stmt with
  | Ast.Let (name, Ast.Var src) ->
      (* a copy: the two variables may part later *)
      let d = fresh_reg st in
      emit st (Vir.Mov (d, Vir.Reg (var_reg st src)));
      Hashtbl.replace st.vars name d
  | Ast.Let (name, e) ->
      (* every other initialiser lands in a fresh register, which becomes
         the variable's *)
      Hashtbl.replace st.vars name (lower_to_reg st e)
  | Ast.Assign (name, Ast.Binop (op, a, b)) ->
      let va = lower_value st a in
      let vb = lower_value st b in
      emit st (Vir.Bin (op, var_reg st name, va, vb))
  | Ast.Assign (name, e) ->
      let v = lower_value st e in
      emit st (Vir.Mov (var_reg st name, v))
  | Ast.Store (buf, idx, value) ->
      let vi = lower_value st idx in
      let vv = lower_value st value in
      emit st (Vir.Store (buf, vi, vv))
  | Ast.If (cond, then_, []) ->
      let l_end = fresh_label st "endif" in
      lower_branch_unless st cond ~target:l_end;
      lower_stmts st then_;
      emit st (Vir.Label l_end)
  | Ast.If (cond, then_, else_) ->
      let l_else = fresh_label st "else" in
      let l_end = fresh_label st "endif" in
      lower_branch_unless st cond ~target:l_else;
      lower_stmts st then_;
      emit st (Vir.Jump l_end);
      emit st (Vir.Label l_else);
      lower_stmts st else_;
      emit st (Vir.Label l_end)
  | Ast.While (cond, body) ->
      let l_head = fresh_label st "while" in
      let l_end = fresh_label st "endwhile" in
      emit st (Vir.Label l_head);
      lower_branch_unless st cond ~target:l_end;
      lower_stmts st body;
      emit st (Vir.Jump l_head);
      emit st (Vir.Label l_end)
  | Ast.For (v, lo, hi, body) ->
      let counter = fresh_reg st in
      Hashtbl.replace st.vars v counter;
      let vlo = lower_value st lo in
      emit st (Vir.Mov (counter, vlo));
      (* the bound is evaluated once, into its own register *)
      let bound =
        match lower_value st hi with
        | Vir.Imm _ as imm -> imm
        | Vir.Reg r ->
            let b = fresh_reg st in
            emit st (Vir.Mov (b, Vir.Reg r));
            Vir.Reg b
      in
      let l_head = fresh_label st "for" in
      let l_end = fresh_label st "endfor" in
      emit st (Vir.Label l_head);
      emit st (Vir.Branch_if (Ast.Ge, Vir.Reg counter, bound, l_end));
      lower_stmts st body;
      emit st (Vir.Bin (Ast.Add, counter, Vir.Reg counter, Vir.Imm 1l));
      emit st (Vir.Jump l_head);
      emit st (Vir.Label l_end);
      Hashtbl.remove st.vars v
  | Ast.Barrier -> emit st Vir.Barrier

let lower kernel =
  Check.check kernel;
  let st =
    {
      next_vreg = 0;
      next_label = 0;
      rev_insns = [];
      vars = Hashtbl.create 16;
    }
  in
  (* scalar parameters materialise once, up front *)
  List.iter
    (fun name ->
      let d = fresh_reg st in
      Hashtbl.replace st.vars name d;
      emit st (Vir.Read_param (name, d)))
    (Ast.scalars kernel);
  lower_stmts st kernel.Ast.body;
  emit st Vir.Ret;
  {
    Vir.kernel_name = kernel.Ast.name;
    buffers = Ast.buffers kernel;
    scalars = Ast.scalars kernel;
    insns = List.rev st.rev_insns;
  }
