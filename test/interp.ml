(* Reference interpreter for the kernel language: the semantic ground
   truth both code generators are tested against.

   Executes a kernel sequentially, one work-item at a time, over OCaml
   arrays.  Arithmetic follows RISC-V M semantics for division corner
   cases so that all three executors agree bit-for-bit.  It computes in
   [Int32]; buffers and scalars hold the simulators' native int words
   ({!Ggpu_kernels.Mem_image.args}), converted at each load, store and
   scalar read, so it stays independent of {!Ggpu_isa.I32}.

   Kernels containing workgroup barriers cannot be run item-at-a-time and
   are rejected; none of the paper's seven micro-benchmarks needs one. *)

open Ggpu_kernels

exception Runtime_error of string
exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let div_signed a b =
  if b = 0l then -1l
  else if a = Int32.min_int && b = -1l then Int32.min_int
  else Int32.div a b

let rem_signed a b =
  if b = 0l then a
  else if a = Int32.min_int && b = -1l then 0l
  else Int32.rem a b

let eval_binop op a b =
  match op with
  | Ast.Add -> Int32.add a b
  | Ast.Sub -> Int32.sub a b
  | Ast.Mul -> Int32.mul a b
  | Ast.Div -> div_signed a b
  | Ast.Rem -> rem_signed a b
  | Ast.And -> Int32.logand a b
  | Ast.Or -> Int32.logor a b
  | Ast.Xor -> Int32.logxor a b
  | Ast.Shl -> Int32.shift_left a (Int32.to_int b land 31)
  | Ast.Shr -> Int32.shift_right_logical a (Int32.to_int b land 31)
  | Ast.Sra -> Int32.shift_right a (Int32.to_int b land 31)

let eval_cmp op a b =
  let c = Int32.compare a b in
  let r =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
  in
  if r then 1l else 0l

type item_ctx = {
  gid : int32;
  lid : int32;
  wgid : int32;
  lsize : int32;
  gsize : int32;
  vars : (string, int32) Hashtbl.t;
  bufs : (string, int array) Hashtbl.t;
}

let buffer ctx name =
  match Hashtbl.find_opt ctx.bufs name with
  | Some a -> a
  | None -> fail "unknown buffer %s" name

let rec eval ctx e =
  match e with
  | Ast.Const v -> v
  | Ast.Var name -> (
      match Hashtbl.find_opt ctx.vars name with
      | Some v -> v
      | None -> fail "unbound variable %s" name)
  | Ast.Global_id -> ctx.gid
  | Ast.Local_id -> ctx.lid
  | Ast.Group_id -> ctx.wgid
  | Ast.Local_size -> ctx.lsize
  | Ast.Global_size -> ctx.gsize
  | Ast.Binop (op, a, b) -> eval_binop op (eval ctx a) (eval ctx b)
  | Ast.Cmp (op, a, b) -> eval_cmp op (eval ctx a) (eval ctx b)
  | Ast.Load (buf, idx) ->
      let a = buffer ctx buf in
      let i = Int32.to_int (eval ctx idx) in
      if i < 0 || i >= Array.length a then
        fail "load %s.(%d) out of bounds (len %d)" buf i (Array.length a);
      Ggpu_isa.I32.to_int32 a.(i)

let rec exec_stmts ctx stmts = List.iter (exec_stmt ctx) stmts

and exec_stmt ctx stmt =
  match stmt with
  | Ast.Let (name, e) | Ast.Assign (name, e) ->
      Hashtbl.replace ctx.vars name (eval ctx e)
  | Ast.Store (buf, idx, v) ->
      let a = buffer ctx buf in
      let i = Int32.to_int (eval ctx idx) in
      if i < 0 || i >= Array.length a then
        fail "store %s.(%d) out of bounds (len %d)" buf i (Array.length a);
      a.(i) <- Ggpu_isa.I32.of_int32 (eval ctx v)
  | Ast.If (c, then_, else_) ->
      if eval ctx c <> 0l then exec_stmts ctx then_ else exec_stmts ctx else_
  | Ast.While (c, body) ->
      while eval ctx c <> 0l do
        exec_stmts ctx body
      done
  | Ast.For (v, lo, hi, body) ->
      let lo = eval ctx lo and hi = eval ctx hi in
      let i = ref lo in
      while Int32.compare !i hi < 0 do
        Hashtbl.replace ctx.vars v !i;
        exec_stmts ctx body;
        i := Int32.add !i 1l
      done;
      Hashtbl.remove ctx.vars v
  | Ast.Barrier ->
      raise (Unsupported "barrier in sequential reference interpreter")

let has_barrier kernel =
  let rec stmt_has = function
    | Ast.Barrier -> true
    | Ast.If (_, a, b) -> List.exists stmt_has a || List.exists stmt_has b
    | Ast.While (_, body) | Ast.For (_, _, _, body) -> List.exists stmt_has body
    | Ast.Let _ | Ast.Assign _ | Ast.Store _ -> false
  in
  List.exists stmt_has kernel.Ast.body

(* Run [kernel] for every work item in [0, global_size).  Buffers are
   mutated in place.
   @raise Runtime_error on out-of-bounds accesses or missing arguments.
   @raise Unsupported for kernels containing workgroup barriers.
   @raise Check.Error if the kernel is ill-formed. *)
let run kernel ~(args : Mem_image.args) ~global_size ~local_size =
  Check.check kernel;
  if has_barrier kernel then
    raise (Unsupported "barrier in sequential reference interpreter");
  if local_size <= 0 || global_size < 0 then
    fail "bad sizes: global=%d local=%d" global_size local_size;
  let bufs = Hashtbl.create 8 in
  List.iter (fun (name, a) -> Hashtbl.replace bufs name a) args.buffers;
  List.iter
    (fun name ->
      if not (Hashtbl.mem bufs name) then fail "missing buffer argument %s" name)
    (Ast.buffers kernel);
  List.iter
    (fun name ->
      if not (List.mem_assoc name args.scalars) then
        fail "missing scalar argument %s" name)
    (Ast.scalars kernel);
  for gid = 0 to global_size - 1 do
    let vars = Hashtbl.create 16 in
    List.iter
      (fun (name, v) -> Hashtbl.replace vars name (Ggpu_isa.I32.to_int32 v))
      args.scalars;
    let ctx =
      {
        gid = Int32.of_int gid;
        lid = Int32.of_int (gid mod local_size);
        wgid = Int32.of_int (gid / local_size);
        lsize = Int32.of_int local_size;
        gsize = Int32.of_int global_size;
        vars;
        bufs;
      }
    in
    exec_stmts ctx kernel.Ast.body
  done
