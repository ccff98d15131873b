(* Reference lane semantics of the FGPU simulator: the specification
   the production lane engine ({!Ggpu_fgpu.Threaded}) is tested against.

   One issue executes one instruction for every lane sitting at the
   wavefront's minimum pc, lane by lane in ascending order.  Divergent
   lane groups therefore serialise and reconverge at joins, because
   every compiler-emitted join sits at a larger address than the paths
   that reach it.  The per-lane [pcs] array is the whole control state:
   the engine turns convergence tracking ([conv_pc]) off on entry and
   neither reads nor maintains the [uniform] mask, which only the
   production engine's short-cuts use.  Reads of x0 return 0 and writes
   to it are discarded.  Memory accesses go through
   {!Ggpu_fgpu.Wavefront.coalesce_and_check}, which charges the line
   before validating the address, so a bad access raises after the
   lines the timing model must still see.

   The outcome's flag word is derived here from the instruction's
   [kind] and operator and from what its lanes do, bit by bit, not
   through {!Ggpu_fgpu.Wavefront.static_flags}, so a differential run
   checks the production derivation too.

   Tests run a launch through this engine with {!Gpu.with_issue}. *)

open Ggpu_isa
open Ggpu_fgpu

let issue (dprog : Fgpu_predecode.t array) ~(mem : int array) ~line_words
    (wf : Wavefront.t) (out : Wavefront.outcome) =
  Wavefront.materialize_pcs wf;
  wf.Wavefront.conv_pc <- -1;
  let size = wf.Wavefront.size and pcs = wf.Wavefront.pcs in
  let regs = wf.Wavefront.regs in
  let pc =
    Array.fold_left (fun m p -> if p < m then p else m) Wavefront.done_pc pcs
  in
  let lanes = Array.fold_left (fun n p -> if p = pc then n + 1 else n) 0 pcs in
  out.Wavefront.pc <- pc;
  out.Wavefront.executed_lanes <- lanes;
  out.Wavefront.flags <-
    (if lanes < wf.Wavefront.live_lanes then Wavefront.f_partial else 0);
  if pc < 0 || pc >= Array.length dprog then
    raise (Wavefront.Fault (Printf.sprintf "pc %d outside program" pc));
  let d = dprog.(pc) in
  out.Wavefront.mem_line_count <- 0;
  let set_flag f = out.Wavefront.flags <- out.Wavefront.flags lor f in
  (* the unit an ALU lane occupies beyond the vector pipeline *)
  let unit_flag =
    match d.Fgpu_predecode.aop with
    | Fgpu_isa.Mul -> Wavefront.f_mul
    | Fgpu_isa.Div | Fgpu_isa.Rem -> Wavefront.f_div
    | _ -> 0
  in
  let reg r lane = if r = 0 then 0 else regs.((r * size) + lane) in
  let set r lane v = if r <> 0 then regs.((r * size) + lane) <- v in
  (* the word a load or store of this lane touches *)
  let word lane =
    Wavefront.coalesce_and_check out ~line_bytes:(4 * line_words)
      ~mem_words:(Array.length mem)
      (reg d.Fgpu_predecode.rs1 lane + d.Fgpu_predecode.imm)
  in
  let special lane =
    match d.Fgpu_predecode.sp with
    | Fgpu_isa.Lid -> Wavefront.local_id wf ~lane
    | Fgpu_isa.Wgid -> wf.Wavefront.wg_id
    | Fgpu_isa.Wgoff -> wf.Wavefront.wg_offset
    | Fgpu_isa.Wgsize -> wf.Wavefront.wg_size
    | Fgpu_isa.Gsize -> wf.Wavefront.global_size
  in
  let rd = d.Fgpu_predecode.rd and next = pc + 1 in
  (* one lane's effect and the flags it sets; returns the lane's next
     pc.  [rd] names the second source of a store or branch. *)
  let exec lane =
    match d.Fgpu_predecode.kind with
    | Fgpu_predecode.KAlu ->
        set_flag unit_flag;
        set rd lane
          (Wavefront.alu d.Fgpu_predecode.aop
             (reg d.Fgpu_predecode.rs1 lane)
             (reg d.Fgpu_predecode.rs2 lane));
        next
    | Fgpu_predecode.KAlui ->
        set_flag unit_flag;
        set rd lane
          (Wavefront.alu d.Fgpu_predecode.aop
             (reg d.Fgpu_predecode.rs1 lane)
             d.Fgpu_predecode.imm);
        next
    | Fgpu_predecode.KLoadImm ->
        set rd lane d.Fgpu_predecode.imm;
        next
    | Fgpu_predecode.KLw ->
        set rd lane mem.(word lane);
        next
    | Fgpu_predecode.KSw ->
        set_flag Wavefront.f_store;
        mem.(word lane) <- reg rd lane;
        next
    | Fgpu_predecode.KBranch ->
        if
          Wavefront.cond_holds d.Fgpu_predecode.cnd
            (reg d.Fgpu_predecode.rs1 lane)
            (reg rd lane)
        then begin
          set_flag Wavefront.f_branch;
          next + d.Fgpu_predecode.imm
        end
        else next
    | Fgpu_predecode.KJump ->
        set_flag Wavefront.f_branch;
        d.Fgpu_predecode.imm
    | Fgpu_predecode.KSpecial ->
        set rd lane (special lane);
        next
    | Fgpu_predecode.KBarrier ->
        set_flag Wavefront.f_barrier;
        next
    | Fgpu_predecode.KRet -> Wavefront.done_pc
  in
  for lane = 0 to size - 1 do
    if pcs.(lane) = pc then pcs.(lane) <- exec lane
  done;
  if d.Fgpu_predecode.kind = Fgpu_predecode.KRet then
    wf.Wavefront.live_lanes <- wf.Wavefront.live_lanes - lanes;
  if Wavefront.finished wf then set_flag Wavefront.f_retire

(* The engine a differential test runs a launch under. *)
type engine = Oracle | Threaded

let engine_name = function Oracle -> "oracle" | Threaded -> "threaded"

let with_engine engine f =
  match engine with Oracle -> Gpu.with_issue issue f | Threaded -> f ()
