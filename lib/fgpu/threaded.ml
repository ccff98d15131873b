(* The lane engine: compile a predecoded program into per-pc OCaml
   closures so the hot loop executes straight-line compiled code
   instead of dispatching on instruction tags.

   [compile] runs once per launch and turns every instruction into two
   closures — one for the dense (converged) path, one for the sparse
   (divergent) path, chosen per issue by the wavefront's [conv_pc].
   Each closure captures everything that is constant for the launch:
   the operand slice offsets into the register-major register file
   ([rs1 * size] etc., with [rd = 0] redirected to the write sink), the
   precomputed immediate, the branch target, and the global-memory
   array.  What a tag-dispatching engine re-derives on every issue —
   field loads from the predecode record, the destination-offset
   computation, the per-lane [match] on the instruction kind — is paid
   exactly once at compile time.

   The lane loops themselves live in top-level functions that take
   every loop-invariant as a parameter.  A closure that ran the [for]
   loop directly would reload the captured offsets from its environment
   on every iteration: without flambda the compiler cannot hoist the
   environment projections past the register-file stores (the loads
   are not provably invariant across them), which costs three to five
   extra memory loads per lane.  With the loop split out, the closure
   projects each captured value exactly once per issue, passes them as
   arguments, and the self tail call compiles to a jump with every
   operand in a machine register.

   Specialised loops.  Each instruction shape has one generic loop that
   takes the operator or condition as an argument and calls
   {!Wavefront.alu} or {!Wavefront.cond_holds} per lane: [d_gen],
   [di_gen], [c_gen]/[w_gen], [s_gen], [si_gen] and [sb_gen] run every
   operator.  A per-operator loop inlines its operator and saves that
   per-lane call, so it earns its code only where traffic runs it.  Ten
   remain, each carrying at least 2 % of the lane visits of Table III's
   record passes or of a serve-size mix (the seven suite kernels at 64
   to 1024 work-items on 2 CUs): dense [d_add], [d_mul], [d_and],
   [d_or], [d_xor] and [d_slt], dense-immediate [di_sll] and [di_sltu],
   the fused dense equality branch [b_eq], and sparse-immediate
   [si_add].  Running those through the generic loops too made
   Table III about a third slower.  Every other (operator, path) pair
   runs generic: none would reach 2 % on either, the busiest (a sparse
   [add]) carries 1.7 % of the mix.  A new per-operator loop comes with
   its measured share of lane visits (EXPERIMENTS, "Per-operator lane
   loops").  [compile] picks a pc's loop once, so one closure per shape
   serves every operator.

   {!issue} starts the outcome's flag word from the pc's
   {!Wavefront.static_flags} (a per-pc table) and the partial bit; a
   closure adds only what its lanes decide: a conditional branch its
   taken bit, [ret] the retire bit.

   Wavefront-uniform values.  Loop counters, bounds, base addresses and
   broadcast loads are the same in all 64 lanes, yet a lane loop
   computes them 64 times.  The dense closures consult the wavefront's
   [uniform] mask (bit r: every lane of slice r holds one value): an
   ALU, ALU-immediate, [lw] or branch whose source bits are all set
   does its work once from lane 0 — one {!Wavefront.alu} or
   {!Wavefront.cond_holds}, or one coalesce-and-check plus one memory
   read, which records the same single line and raises the same fault
   as the lane loop would — and broadcasts a value result, setting the
   destination's bit.  A uniform branch goes straight to [conv_pc].
   Otherwise the lane loop runs and the destination's bit is cleared.
   [li] and the per-workgroup specials write uniform values; [lid] does
   not.  The sparse path clears the destination's bit through a per-pc
   mask applied in {!issue}, since it writes only some lanes.

   Specification: the reference engine in [test/fgpu_oracle.ml].  For
   any wavefront state, [issue th wf out] leaves the wavefront's
   architectural state, the outcome record and global memory exactly
   as the reference does, including fault messages and the
   charge-line-before-validating order of memory checks.  The caches
   the reference does without ([conv_pc], [sel_pc]/[sel_cnt], the
   [uniform] mask) are representational liberties: a converged
   wavefront's [pcs] stay stale, which is unobservable because every
   external reader goes through {!Wavefront.materialize_pcs}, and the
   uniform short-cuts skip only work whose result the lane loop would
   have written identically into every lane. *)

open Ggpu_isa

type op = Wavefront.t -> Wavefront.outcome -> unit

type t = {
  dense : op array;
  sparse : op array;
  flags : int array;  (* per pc: {!Wavefront.static_flags} *)
  keep : int array;
      (* per pc: the [uniform] bits a sparse issue leaves set (all but
         the destination's) *)
  prog_len : int;
}

let fault fmt = Printf.ksprintf (fun s -> raise (Wavefront.Fault s)) fmt

(* Destination slice offset: an [rd = 0] result is architecturally
   discarded, so it lands in the write sink and the lane loop needs no
   conditional. *)
let dst_off ~size rd = (if rd = 0 then Wavefront.sink_reg else rd) * size

(* ------------------------------------------------------------------ *)
(* Dense lane loops: every lane executes, pcs stay stale.             *)

let rec d_add (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a + b));
    d_add regs o1 o2 od (lane + 1) n
  end

let rec d_mul (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a * b));
    d_mul regs o1 o2 od (lane + 1) n
  end

let rec d_and (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (a land b);
    d_and regs o1 o2 od (lane + 1) n
  end

let rec d_or (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (a lor b);
    d_or regs o1 o2 od (lane + 1) n
  end

let rec d_slt (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (if a < b then 1 else 0);
    d_slt regs o1 o2 od (lane + 1) n
  end

let rec d_xor (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (a lxor b);
    d_xor regs o1 o2 od (lane + 1) n
  end

let rec d_gen op (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
    d_gen op regs o1 o2 od (lane + 1) n
  end

(* Immediate forms: the second operand is the same constant for every
   lane.  [sh] arrives pre-masked to a shift amount (loop-invariant). *)

let rec di_sll (regs : int array) o1 sh od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a lsl sh));
    di_sll regs o1 sh od (lane + 1) n
  end

(* [bu] arrives pre-masked to unsigned 32-bit (loop-invariant). *)
let rec di_sltu (regs : int array) o1 bu od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane)
      (if a land I32.mask < bu then 1 else 0);
    di_sltu regs o1 bu od (lane + 1) n
  end

let rec di_gen op (regs : int array) o1 b od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
    di_gen op regs o1 b od (lane + 1) n
  end

let rec d_lid (regs : int array) od first lane n =
  if lane < n then begin
    Array.unsafe_set regs (od + lane) (first + lane);
    d_lid regs od first (lane + 1) n
  end

let rec bcast (regs : int array) od (v : int) lane n =
  if lane < n then begin
    Array.unsafe_set regs (od + lane) v;
    bcast regs od v (lane + 1) n
  end

(* Uniform short-cut for the dense ALU closures.  [src] holds the
   [uniform] bits of the source slices, [dbit] the destination's, and
   [b] the second operand: lane 0 of rs2, or the immediate.  When every
   source is uniform, lane 0's result is every lane's: compute it once,
   broadcast it, set [dbit] and answer true.  Otherwise clear [dbit] and
   answer false, and the caller runs its lane loop. *)
let alu_once (wf : Wavefront.t) op src dbit o1 b od n =
  let u = wf.Wavefront.uniform in
  if u land src = src then begin
    let regs = wf.Wavefront.regs in
    bcast regs od (Wavefront.alu op (Array.unsafe_get regs o1) b) 0 n;
    wf.Wavefront.uniform <- u lor dbit;
    true
  end
  else begin
    wf.Wavefront.uniform <- u land lnot dbit;
    false
  end

(* Raise the outcome's branch bit when some lane took the branch. *)
let[@inline] set_taken (out : Wavefront.outcome) taken =
  out.Wavefront.flags <-
    out.Wavefront.flags lor (Bool.to_int taken * Wavefront.f_branch)

(* A dense branch on uniform operands: one comparison decides every
   lane, the outcome is uniform, and [pcs] stays stale. *)
let branch_once (wf : Wavefront.t) (out : Wavefront.outcome) c o1 o2 target
    next =
  let regs = wf.Wavefront.regs in
  let taken =
    Wavefront.cond_holds c (Array.unsafe_get regs o1) (Array.unsafe_get regs o2)
  in
  wf.Wavefront.conv_pc <- (if taken then target else next);
  set_taken out taken

(* Taken-lane count of a dense branch on non-uniform sources. *)

let rec c_gen c (regs : int array) o1 o2 lane n acc =
  if lane >= n then acc
  else
    c_gen c regs o1 o2 (lane + 1) n
      (if
         Wavefront.cond_holds c
           (Array.unsafe_get regs (o1 + lane))
           (Array.unsafe_get regs (o2 + lane))
       then acc + 1
       else acc)

(* Fused converged-branch pass for the equality tests: write the
   would-be per-lane pcs and count takers in one sweep.  If-style
   equality branches are mixed more often than not, so the fused form
   saves the second (write) pass; a uniform outcome just re-converges
   via [conv_pc] and the freshly written pcs go stale, which the
   wavefront invariants allow.  The other conditions keep the
   count-first two-pass shape, [c_gen] then [w_gen]: Lt/Ge guard loop
   back-edges and are uniform on every trip but the last, where writing
   pcs would be pure waste. *)

let rec b_eq (regs : int array) (pcs : int array) o1 o2 target next lane n tk =
  if lane >= n then tk
  else begin
    let ti =
      Bool.to_int
        (Array.unsafe_get regs (o1 + lane) = Array.unsafe_get regs (o2 + lane))
    in
    Array.unsafe_set pcs lane (next + ((target - next) land -ti));
    b_eq regs pcs o1 o2 target next (lane + 1) n (tk + ti)
  end

(* Mixed branch outcome: write authoritative per-lane pcs. *)

let rec w_gen c (regs : int array) (pcs : int array) o1 o2 target next lane n =
  if lane < n then begin
    Array.unsafe_set pcs lane
      (if
         Wavefront.cond_holds c
           (Array.unsafe_get regs (o1 + lane))
           (Array.unsafe_get regs (o2 + lane))
       then target
       else next);
    w_gen c regs pcs o1 o2 target next (lane + 1) n
  end

(* ------------------------------------------------------------------ *)
(* Sparse lane loops: only lanes sitting at [pc] execute and advance.
   Every loop visits all lanes anyway, so each also folds the min-pc /
   count-at-min of the FINAL [pcs] values into [best]/[cnt] (the exact
   [Wavefront.scan_pcs] answer) and caches it on the wavefront at the
   end: the next issue's [select_pc] and the burst check's [min_pc]
   become O(1) instead of re-scanning the lane array. *)

(* Sequential sparse loops exploit the min-pc issue policy: the issued
   pc is the minimum over live lanes, so after members advance to
   [next] = pc + 1 every other live lane sits at > pc, i.e. >= [next] —
   the new minimum is [next] unconditionally, and the loop only counts
   lanes ending at [next].  Lane membership is a ~coin-flip data-
   dependent test, so the hot loops ([si_add], [s_fill], [s_lid]) are
   branchless: the result and the pc advance are mask-selected ([msk] =
   all-ones for members), a non-member store rewrites the old value.
   The unconditional ALU work is safe — none of them faults, and OCaml
   int ops do not trap.  The generic loops branch per lane. *)
let rec s_gen op (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then begin
      let a = Array.unsafe_get regs (o1 + lane)
      and b = Array.unsafe_get regs (o2 + lane) in
      Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
      Array.unsafe_set pcs lane next;
      s_gen op wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + 1)
    end
    else if p = next then s_gen op wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + 1)
    else s_gen op wf regs pcs pc next o1 o2 od (lane + 1) n cnt
  end

let rec si_add (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 b od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane) in
    let v = I32.sx (a + b) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    si_add wf regs pcs pc next o1 b od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec si_gen op (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 b od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then begin
      let a = Array.unsafe_get regs (o1 + lane) in
      Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
      Array.unsafe_set pcs lane next;
      si_gen op wf regs pcs pc next o1 b od (lane + 1) n (cnt + 1)
    end
    else if p = next then si_gen op wf regs pcs pc next o1 b od (lane + 1) n (cnt + 1)
    else si_gen op wf regs pcs pc next o1 b od (lane + 1) n cnt
  end

(* Sparse load-immediate / special fills: store one value per lane. *)
let rec s_fill (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next od (v : int) lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_fill wf regs pcs pc next od v (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_lid (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next od first lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let v = first + lane in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_lid wf regs pcs pc next od first (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

(* Move every lane at [pc] to [dst] (jump, barrier, ret). *)
let rec s_retarget (wf : Wavefront.t) (pcs : int array) (pc : int)
    (dst : int) lane n best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let p =
      if p = pc then begin
        Array.unsafe_set pcs lane dst;
        dst
      end
      else p
    in
    if p < best then s_retarget wf pcs pc dst (lane + 1) n p 1
    else if p > best then s_retarget wf pcs pc dst (lane + 1) n best cnt
    else s_retarget wf pcs pc dst (lane + 1) n best (cnt + 1)
  end

(* Sparse branches: lanes at [pc] move to [target]/[next]; the result
   records whether any lane took the branch. *)

let rec sb_gen c (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) o1 o2 target next lane n any best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true;
    any
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then
      if
        Wavefront.cond_holds c
          (Array.unsafe_get regs (o1 + lane))
          (Array.unsafe_get regs (o2 + lane))
      then begin
        Array.unsafe_set pcs lane target;
        if target < best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n true target 1
        else if target > best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n true best cnt
        else sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n true best (cnt + 1)
      end
      else begin
        Array.unsafe_set pcs lane next;
        if next < best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any next 1
        else if next > best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
        else sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
      end
    else if p < best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any p 1
    else if p > best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
    else sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
  end

(* After a dense mixed branch writes per-lane pcs (every lane moves to
   [target] or [next]), the selection cache follows analytically from
   the taken-lane count. *)
let set_split_sel (wf : Wavefront.t) target next tk size =
  (if target < next then begin
     wf.Wavefront.sel_pc <- target;
     wf.Wavefront.sel_cnt <- tk
   end
   else if next < target then begin
     wf.Wavefront.sel_pc <- next;
     wf.Wavefront.sel_cnt <- size - tk
   end
   else begin
     (* a branch to its own fall-through: both sides land together *)
     wf.Wavefront.sel_pc <- next;
     wf.Wavefront.sel_cnt <- size
   end);
  wf.Wavefront.sel_valid <- true

(* ------------------------------------------------------------------ *)

let compile (dprog : Fgpu_predecode.t array) ~wf_size:size ~(mem : int array)
    ~line_words : t =
  let n = Array.length dprog in
  let line_bytes = line_words * 4 in
  let mem_words = Array.length mem in
  let noop : op = fun _ _ -> () in
  let dense = Array.make n noop in
  let sparse = Array.make n noop in
  let flags = Array.make n 0 in
  let keep = Array.make n (-1) in
  for pc = 0 to n - 1 do
    let d = dprog.(pc) in
    let next = pc + 1 in
    flags.(pc) <- Wavefront.static_flags d;
    let dbit = Wavefront.written_bit d in
    keep.(pc) <- lnot dbit;
    let dn, sp =
      match d.Fgpu_predecode.kind with
      | Fgpu_predecode.KAlu ->
          let op = d.Fgpu_predecode.aop in
          let od = dst_off ~size d.Fgpu_predecode.rd
          and o1 = d.Fgpu_predecode.rs1 * size
          and o2 = d.Fgpu_predecode.rs2 * size in
          let src =
            (1 lsl d.Fgpu_predecode.rs1) lor (1 lsl d.Fgpu_predecode.rs2)
          in
          let dense_loop =
            match op with
            | Fgpu_isa.Add -> d_add
            | Fgpu_isa.Mul -> d_mul
            | Fgpu_isa.And -> d_and
            | Fgpu_isa.Or -> d_or
            | Fgpu_isa.Xor -> d_xor
            | Fgpu_isa.Slt -> d_slt
            | op -> d_gen op
          in
          let dn : op =
           fun wf _ ->
            wf.Wavefront.conv_pc <- next;
            let b = Array.unsafe_get wf.Wavefront.regs o2 in
            if not (alu_once wf op src dbit o1 b od size) then
              dense_loop wf.Wavefront.regs o1 o2 od 0 size
          in
          let sp : op =
           fun wf _ ->
            s_gen op wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0
              size 0
          in
          (dn, sp)
      | Fgpu_predecode.KAlui ->
          let op = d.Fgpu_predecode.aop in
          let od = dst_off ~size d.Fgpu_predecode.rd
          and o1 = d.Fgpu_predecode.rs1 * size
          and b = d.Fgpu_predecode.imm in
          let src = 1 lsl d.Fgpu_predecode.rs1 in
          (* [arg]: the immediate in the form the dense loop takes *)
          let dense_loop, arg =
            match op with
            | Fgpu_isa.Sll -> (di_sll, b land 31)
            | Fgpu_isa.Sltu -> (di_sltu, b land I32.mask)
            | op -> (di_gen op, b)
          in
          let sparse_loop =
            match op with Fgpu_isa.Add -> si_add | op -> si_gen op
          in
          let dn : op =
           fun wf _ ->
            wf.Wavefront.conv_pc <- next;
            if not (alu_once wf op src dbit o1 b od size) then
              dense_loop wf.Wavefront.regs o1 arg od 0 size
          in
          let sp : op =
           fun wf _ ->
            sparse_loop wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 b od 0
              size 0
          in
          (dn, sp)
      | Fgpu_predecode.KLoadImm ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and v = d.Fgpu_predecode.imm in
          let dn : op =
           fun wf _ ->
            wf.Wavefront.conv_pc <- next;
            Array.fill wf.Wavefront.regs od size v;
            wf.Wavefront.uniform <- wf.Wavefront.uniform lor dbit
          in
          let sp : op =
           fun wf _ ->
            s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od v 0
                    size 0
          in
          (dn, sp)
      | Fgpu_predecode.KLw ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and o1 = d.Fgpu_predecode.rs1 * size
          and off = d.Fgpu_predecode.imm in
          let src = 1 lsl d.Fgpu_predecode.rs1 in
          let dn : op =
           fun wf out ->
            wf.Wavefront.conv_pc <- next;
            let regs = wf.Wavefront.regs in
            let u = wf.Wavefront.uniform in
            if u land src <> 0 then begin
              (* one address: one line, one check, one read *)
              let w =
                Wavefront.coalesce_and_check out ~line_bytes ~mem_words
                  (Array.unsafe_get regs o1 + off)
              in
              bcast regs od (Array.unsafe_get mem w) 0 size;
              wf.Wavefront.uniform <- u lor dbit
            end
            else begin
              wf.Wavefront.uniform <- u land lnot dbit;
              for lane = 0 to size - 1 do
                let addr = Array.unsafe_get regs (o1 + lane) + off in
                let w =
                  Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
                in
                Array.unsafe_set regs (od + lane) (Array.unsafe_get mem w)
              done
            end
          in
          let sp : op =
           fun wf out ->
            wf.Wavefront.sel_valid <- false;
            let regs = wf.Wavefront.regs and pcs = wf.Wavefront.pcs in
            for lane = 0 to size - 1 do
              if Array.unsafe_get pcs lane = pc then begin
                let addr = Array.unsafe_get regs (o1 + lane) + off in
                let w =
                  Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
                in
                Array.unsafe_set regs (od + lane) (Array.unsafe_get mem w);
                Array.unsafe_set pcs lane next
              end
            done
          in
          (dn, sp)
      | Fgpu_predecode.KSw ->
          (* the store-data register travels in the rd field: a read *)
          let o2 = d.Fgpu_predecode.rd * size
          and o1 = d.Fgpu_predecode.rs1 * size
          and off = d.Fgpu_predecode.imm in
          let dn : op =
           fun wf out ->
            wf.Wavefront.conv_pc <- next;
            let regs = wf.Wavefront.regs in
            for lane = 0 to size - 1 do
              let addr = Array.unsafe_get regs (o1 + lane) + off in
              let w =
                Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
              in
              Array.unsafe_set mem w (Array.unsafe_get regs (o2 + lane))
            done
          in
          let sp : op =
           fun wf out ->
            wf.Wavefront.sel_valid <- false;
            let regs = wf.Wavefront.regs and pcs = wf.Wavefront.pcs in
            for lane = 0 to size - 1 do
              if Array.unsafe_get pcs lane = pc then begin
                let addr = Array.unsafe_get regs (o1 + lane) + off in
                let w =
                  Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
                in
                Array.unsafe_set mem w (Array.unsafe_get regs (o2 + lane));
                Array.unsafe_set pcs lane next
              end
            done
          in
          (dn, sp)
      | Fgpu_predecode.KBranch ->
          let o1 = d.Fgpu_predecode.rs1 * size
          and o2 = d.Fgpu_predecode.rd * size
          and target = pc + 1 + d.Fgpu_predecode.imm
          and c = d.Fgpu_predecode.cnd in
          let src =
            (1 lsl d.Fgpu_predecode.rs1) lor (1 lsl d.Fgpu_predecode.rd)
          in
          (* dense, non-uniform sources: Eq runs the fused [b_eq] pass;
             every other condition first only counts, and real per-lane
             pcs are written only on a mixed outcome, so a branch whose
             lanes agree never touches [pcs] (it stays stale under
             [conv_pc], which every external reader materialises
             first) *)
          let dn : op =
            match c with
            | Fgpu_isa.Eq ->
                fun wf out ->
                  if wf.Wavefront.uniform land src = src then
                    branch_once wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk =
                      b_eq regs wf.Wavefront.pcs o1 o2 target next 0 size 0
                    in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      set_split_sel wf target next tk size
                    end;
                    set_taken out (tk > 0)
                  end
            | c ->
                fun wf out ->
                  if wf.Wavefront.uniform land src = src then
                    branch_once wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk = c_gen c regs o1 o2 0 size 0 in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      w_gen c regs wf.Wavefront.pcs o1 o2 target next 0 size;
                      set_split_sel wf target next tk size
                    end;
                    set_taken out (tk > 0)
                  end
          in
          let sp : op =
           fun wf out ->
            set_taken out
              (sb_gen c wf wf.Wavefront.regs wf.Wavefront.pcs pc o1 o2 target
                 next 0 size false Wavefront.done_pc 0)
          in
          (dn, sp)
      | Fgpu_predecode.KJump ->
          let target = d.Fgpu_predecode.imm in
          let dn : op = fun wf _ -> wf.Wavefront.conv_pc <- target in
          let sp : op =
           fun wf _ ->
            s_retarget wf wf.Wavefront.pcs pc target 0 size Wavefront.done_pc 0
          in
          (dn, sp)
      | Fgpu_predecode.KSpecial ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and s = d.Fgpu_predecode.sp in
          let dn : op =
            match s with
            | Fgpu_isa.Lid ->
                fun wf _ ->
                  wf.Wavefront.conv_pc <- next;
                  d_lid wf.Wavefront.regs od
                    (wf.Wavefront.wf_index * size)
                    0 size;
                  wf.Wavefront.uniform <- wf.Wavefront.uniform land lnot dbit
            | Fgpu_isa.Wgid ->
                fun wf _ ->
                  wf.Wavefront.conv_pc <- next;
                  Array.fill wf.Wavefront.regs od size wf.Wavefront.wg_id;
                  wf.Wavefront.uniform <- wf.Wavefront.uniform lor dbit
            | Fgpu_isa.Wgoff ->
                fun wf _ ->
                  wf.Wavefront.conv_pc <- next;
                  Array.fill wf.Wavefront.regs od size wf.Wavefront.wg_offset;
                  wf.Wavefront.uniform <- wf.Wavefront.uniform lor dbit
            | Fgpu_isa.Wgsize ->
                fun wf _ ->
                  wf.Wavefront.conv_pc <- next;
                  Array.fill wf.Wavefront.regs od size wf.Wavefront.wg_size;
                  wf.Wavefront.uniform <- wf.Wavefront.uniform lor dbit
            | Fgpu_isa.Gsize ->
                fun wf _ ->
                  wf.Wavefront.conv_pc <- next;
                  Array.fill wf.Wavefront.regs od size wf.Wavefront.global_size;
                  wf.Wavefront.uniform <- wf.Wavefront.uniform lor dbit
          in
          let sp : op =
            match s with
            | Fgpu_isa.Lid ->
                fun wf _ ->
                  s_lid wf wf.Wavefront.regs wf.Wavefront.pcs pc next od
                    (wf.Wavefront.wf_index * size)
                    0 size 0
            | Fgpu_isa.Wgid ->
                fun wf _ ->
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.wg_id 0
                    size 0
            | Fgpu_isa.Wgoff ->
                fun wf _ ->
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.wg_offset 0
                    size 0
            | Fgpu_isa.Wgsize ->
                fun wf _ ->
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.wg_size 0
                    size 0
            | Fgpu_isa.Gsize ->
                fun wf _ ->
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.global_size 0
                    size 0
          in
          (dn, sp)
      | Fgpu_predecode.KBarrier ->
          let dn : op = fun wf _ -> wf.Wavefront.conv_pc <- next in
          let sp : op =
           fun wf _ ->
            s_retarget wf wf.Wavefront.pcs pc next 0 size Wavefront.done_pc 0
          in
          (dn, sp)
      | Fgpu_predecode.KRet ->
          (* the only issue that retires lanes *)
          let dn : op =
           fun wf out ->
            Array.fill wf.Wavefront.pcs 0 size Wavefront.done_pc;
            wf.Wavefront.conv_pc <- -1;
            wf.Wavefront.sel_pc <- Wavefront.done_pc;
            wf.Wavefront.sel_cnt <- size;
            wf.Wavefront.sel_valid <- true;
            wf.Wavefront.live_lanes <- 0;
            out.Wavefront.flags <- out.Wavefront.flags lor Wavefront.f_retire
          in
          let sp : op =
           fun wf out ->
            s_retarget wf wf.Wavefront.pcs pc Wavefront.done_pc 0 size Wavefront.done_pc 0;
            let live = wf.Wavefront.live_lanes - out.Wavefront.executed_lanes in
            wf.Wavefront.live_lanes <- live;
            if live = 0 then
              out.Wavefront.flags <- out.Wavefront.flags lor Wavefront.f_retire
          in
          (dn, sp)
    in
    dense.(pc) <- dn;
    sparse.(pc) <- sp
  done;
  { dense; sparse; flags; keep; prog_len = n }

(* Issue prologue: pick the pc, validate it, reset the outcome record
   (the flag word to the pc's static bits and the partial bit, set
   without a branch), run the compiled lane loop. *)
let issue (th : t) (wf : Wavefront.t) (out : Wavefront.outcome) : unit =
  assert (not (Wavefront.finished wf));
  Wavefront.select_pc wf out;
  let pc = out.Wavefront.pc in
  if pc < 0 || pc >= th.prog_len then fault "pc %d outside program" pc;
  out.Wavefront.mem_line_count <- 0;
  out.Wavefront.flags <-
    Array.unsafe_get th.flags pc
    lor (Bool.to_int (out.Wavefront.executed_lanes < wf.Wavefront.live_lanes)
         * Wavefront.f_partial);
  if wf.Wavefront.conv_pc >= 0 then (Array.unsafe_get th.dense pc) wf out
  else begin
    (* the sparse loops write only some lanes *)
    wf.Wavefront.uniform <-
      wf.Wavefront.uniform land Array.unsafe_get th.keep pc;
    (Array.unsafe_get th.sparse pc) wf out
  end
