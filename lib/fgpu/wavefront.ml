(* Wavefront state and the lane-level helpers the lane engine shares.

   A wavefront is 64 work-items executing in lockstep on 8 processing
   elements over 8 beats.  Full thread divergence is supported with a
   minimum-PC policy: each issue selects the smallest program counter
   among live lanes and executes it for exactly the lanes sitting at that
   PC.  Divergent lane groups therefore serialise (as in any SIMT
   machine) and naturally reconverge at control-flow join points, because
   all compiler-emitted joins are at larger addresses than the paths that
   reach them.  The lane engine is {!Threaded}; the specification it is
   tested against is the reference engine in [test/fgpu_oracle.ml].

   Register semantics mirror {!Ggpu_riscv.Cpu} (RISC-V M division corner
   cases) so the GPU, the CPU and the kernel DSL's interpreter agree
   bit-for-bit.  Registers and global memory are [int array]s in the
   canonical sign-extended representation of {!Ggpu_isa.I32}: an [int32
   array] stores one boxed cell per element, which would cost an
   allocation per register write — the old hot path's dominant cost.

   The register file is register-major: register [r] of lane [l] lives
   at [r * size + l], so one instruction's operand slices are three
   contiguous 64-word runs instead of 64 strided touches across a 16 KiB
   lane-major block.  Two extra tricks remove every per-lane branch from
   the ALU loops:

   - slice 0 (register x0) is never written, so reads of x0 fall out of
     the same indexed load as any other register and return 0 without a
     [rs = 0] test;

   - slice 32 is a write sink: an instruction with [rd = 0] redirects
     its (architecturally discarded) result there, so the store needs no
     [rd <> 0] test either.  The sink is scratch — external readers go
     through {!reg}, which answers 0 for x0 directly.

   An issue writes into a caller-owned [outcome] scratch record — the
   pc selection included, which reports its pc and lane count there
   rather than in a tuple — so a multi-million-instruction run
   allocates nothing per issue.  The one large allocation is the
   register file itself, 33 x [size] words, which lands directly in the
   major heap; {!create}'s [reuse] lets a scheduler hand a retired
   wavefront's storage to the next one instead.  A replay, which takes
   every issue from a recorded trace, needs neither registers nor pcs:
   {!timing_only} builds a wavefront with only the scheduler's state.

   Three caches on the wavefront spare the engine work a plain reading
   of [pcs] and [regs] would redo:

   - convergence is tracked incrementally in [conv_pc].  When every lane
     sits at the same pc — the overwhelmingly common state for
     data-parallel kernels — an issue knows it without scanning [pcs],
     executes a dense loop with no per-lane pc check, and leaves [pcs]
     stale, advancing only [conv_pc].  The array is materialised on the
     rare paths that read it directly (divergence, retirement,
     fault-injection probes).  A mixed-outcome branch writes real pcs
     and drops to the sparse path; the sparse scan re-detects
     reconvergence for free while computing the minimum pc;

   - [sel_pc]/[sel_cnt] cache that scan while the sparse lane loops keep
     it exact;

   - [uniform] has bit [r] set when every lane of register slice [r]
     holds the same value.  A dense instruction whose sources are all
     uniform then computes one lane and broadcasts it.  Every writer of
     [regs] that does not keep the bit exact clears it. *)

open Ggpu_isa

let done_pc = max_int

(* Register-file geometry: 32 architectural slices plus the x0 write
   sink at slice 32. *)
let num_reg_slices = 33
let sink_reg = 32

(* [uniform] with every slice's bit set *)
let all_uniform = (1 lsl num_reg_slices) - 1

type t = {
  wg_id : int;
  wf_index : int; (* index of this wavefront inside its workgroup *)
  size : int; (* lanes *)
  wg_offset : int; (* global id of the workgroup's first item *)
  wg_size : int;
  global_size : int;
  pcs : int array; (* per lane; [done_pc] when retired; stale while converged *)
  regs : int array;
      (* 33 slices x size lanes, register-major ([r * size + lane]);
         I32 canonical.  Slice 0 stays zero, slice 32 is the x0 sink. *)
  mutable uniform : int;
      (* bit [r] set: every lane of slice [r] holds the same value.  A
         clear bit promises nothing; every [regs] writer must clear the
         bit of a slice it writes lane by lane *)
  mutable conv_pc : int; (* every lane live at this pc; -1 = consult [pcs] *)
  mutable sel_pc : int; (* cached scan_pcs result for the sparse path *)
  mutable sel_cnt : int;
  mutable sel_valid : bool;
      (* [sel_pc]/[sel_cnt] hold scan_pcs of [pcs]; maintained by the
         lane engine's sparse loops (which visit every lane anyway),
         invalidated by every other [pcs] writer *)
  mutable live_lanes : int;
  mutable ready_at : int; (* cycle at which the next issue may happen *)
  mutable at_barrier : bool;
  mutable last_cu : int; (* CU this wavefront runs on *)
  mutable stall_kind : int;
      (* PMU stall bucket the wavefront's next issue delay belongs to
         ({!Ggpu_pmu.Pmu} stall kind); written only on instrumented
         runs, never read by the scheduler *)
  mutable dispatched_at : int; (* cycle the wavefront's CU adopted it *)
}

(* An issue's flags, one bit each in the outcome's [flags] word.  The
   replay trace stores the word as it is, so these values are part of
   its format. *)
let f_partial = 1 (* fewer lanes than live: a divergent issue *)
and f_store = 2
and f_div = 4
and f_mul = 8
and f_branch = 16 (* a jump, or a branch some lane took *)
and f_barrier = 32
and f_retire = 64 (* the whole wavefront finished *)

(* What an issue did, so the scheduler can cost it.  One record is
   allocated per [Gpu.run] and reused across every issue; [mem_lines]
   holds the first [mem_line_count] coalesced line base addresses in
   first-touch order. *)
type outcome = {
  mutable pc : int; (* program counter the issue executed *)
  mutable executed_lanes : int;
  mutable flags : int; (* the [f_*] bits *)
  mem_lines : int array; (* coalesced line base addresses (bytes) *)
  mutable mem_line_count : int;
}

let make_outcome ~max_lanes =
  {
    pc = 0;
    executed_lanes = 0;
    flags = 0;
    mem_lines = Array.make (max 1 max_lanes) 0;
    mem_line_count = 0;
  }

(* The flags an instruction sets whatever its lanes do: all but the
   partial, taken-branch and retire bits, which depend on the lanes. *)
let static_flags (d : Fgpu_predecode.t) =
  match d.Fgpu_predecode.kind with
  | Fgpu_predecode.KSw -> f_store
  | Fgpu_predecode.KAlu | Fgpu_predecode.KAlui -> (
      match d.Fgpu_predecode.aop with
      | Fgpu_isa.Div | Fgpu_isa.Rem -> f_div
      | Fgpu_isa.Mul -> f_mul
      | _ -> 0)
  | Fgpu_predecode.KJump -> f_branch
  | Fgpu_predecode.KBarrier -> f_barrier
  | Fgpu_predecode.KLoadImm | Fgpu_predecode.KLw | Fgpu_predecode.KBranch
  | Fgpu_predecode.KSpecial | Fgpu_predecode.KRet ->
      0

(* Lanes of wavefront [wf_index] inside both the workgroup and the
   global range: a prefix of its [size] lanes, possibly empty. *)
let live_count ~wf_index ~size ~wg_offset ~wg_size ~global_size =
  let n = Int.min wg_size (global_size - wg_offset) - (wf_index * size) in
  if n < 0 then 0 else if n > size then size else n

let make ~wg_id ~wf_index ~size ~wg_offset ~wg_size ~global_size ~pcs ~regs
    ~live =
  {
    wg_id;
    wf_index;
    size;
    wg_offset;
    wg_size;
    global_size;
    pcs;
    regs;
    (* registers start at zero and parameters are broadcast *)
    uniform = all_uniform;
    conv_pc = (if live = size then 0 else -1);
    sel_pc = 0;
    sel_cnt = 0;
    sel_valid = false;
    live_lanes = live;
    ready_at = 0;
    at_barrier = false;
    last_cu = -1;
    stall_kind = Ggpu_pmu.Pmu.sk_latency;
    dispatched_at = 0;
  }

let create ?reuse ~wg_id ~wf_index ~size ~wg_offset ~wg_size ~global_size
    ~(params : int list) () =
  let pcs, regs =
    match reuse with
    | Some (old : t) when old.size = size ->
        (* a retired wavefront's storage: zeroed, it is indistinguishable
           from a fresh allocation *)
        Array.fill old.regs 0 (Array.length old.regs) 0;
        (old.pcs, old.regs)
    | _ -> (Array.make size 0, Array.make (num_reg_slices * size) 0)
  in
  (* lanes past the workgroup or the global range never run *)
  let live = live_count ~wf_index ~size ~wg_offset ~wg_size ~global_size in
  Array.fill pcs 0 live 0;
  Array.fill pcs live (size - live) done_pc;
  List.iteri (fun i v -> Array.fill regs ((i + 1) * size) size v) params;
  make ~wg_id ~wf_index ~size ~wg_offset ~wg_size ~global_size ~pcs ~regs
    ~live

let timing_only ~wg_id ~wf_index ~size ~wg_offset ~wg_size ~global_size =
  make ~wg_id ~wf_index ~size ~wg_offset ~wg_size ~global_size ~pcs:[||]
    ~regs:[||]
    ~live:(live_count ~wf_index ~size ~wg_offset ~wg_size ~global_size)

let finished t = t.live_lanes = 0

(* Make [pcs] reflect reality before an external reader (fault
   injection, a probe) looks at it. *)
let materialize_pcs t =
  if t.conv_pc >= 0 then Array.fill t.pcs 0 t.size t.conv_pc

(* Overwrite a lane's program counter from outside the issue path (used
   by fault injection).  [live_lanes] is a cached count of lanes whose
   pc is not [done_pc]; recompute it so the scheduler's finished/barrier
   accounting stays consistent with the mutated pc array. *)
let set_pc t ~lane pc =
  materialize_pcs t;
  t.conv_pc <- -1;
  t.sel_valid <- false;
  t.pcs.(lane) <- pc;
  t.live_lanes <-
    Array.fold_left (fun n p -> if p = done_pc then n else n + 1) 0 t.pcs

let rec min_pc_from (pcs : int array) n i best =
  if i >= n then best
  else
    let p = Array.unsafe_get pcs i in
    min_pc_from pcs n (i + 1) (if p < best then p else best)

let min_pc t =
  if t.conv_pc >= 0 then t.conv_pc
  else if t.sel_valid then t.sel_pc
  else min_pc_from t.pcs t.size 0 done_pc

(* Register accessors for external observers (fault injection). *)
let reg t ~lane r = if r = 0 then 0 else t.regs.((r * t.size) + lane)

let set_reg t ~lane r v =
  if r <> 0 then begin
    t.regs.((r * t.size) + lane) <- v;
    t.uniform <- t.uniform land lnot (1 lsl r)
  end

let local_id t ~lane = (t.wf_index * t.size) + lane

let alu op a b =
  match op with
  | Fgpu_isa.Add -> I32.add a b
  | Fgpu_isa.Sub -> I32.sub a b
  | Fgpu_isa.Mul -> I32.mul a b
  | Fgpu_isa.Div -> I32.div_signed a b
  | Fgpu_isa.Rem -> I32.rem_signed a b
  | Fgpu_isa.And -> a land b
  | Fgpu_isa.Or -> a lor b
  | Fgpu_isa.Xor -> a lxor b
  | Fgpu_isa.Sll -> I32.sll a b
  | Fgpu_isa.Srl -> I32.srl a b
  | Fgpu_isa.Sra -> I32.sra a b
  | Fgpu_isa.Slt -> if a < b then 1 else 0
  | Fgpu_isa.Sltu -> if I32.ult a b then 1 else 0

let cond_holds c a b =
  match c with
  | Fgpu_isa.Eq -> a = b
  | Fgpu_isa.Ne -> a <> b
  | Fgpu_isa.Lt -> a < b
  | Fgpu_isa.Ge -> a >= b
  | Fgpu_isa.Ltu -> I32.ult a b
  | Fgpu_isa.Geu -> not (I32.ult a b)

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

(* Minimum pc and the number of lanes sitting at it, in one pass, left
   in [sel_pc]/[sel_cnt] without setting [sel_valid]: the caller decides
   whether the answer outlives this issue.  Tail-recursive so the
   accumulators live in registers. *)
let rec scan_pcs t (pcs : int array) n i best cnt =
  if i >= n then begin
    t.sel_pc <- best;
    t.sel_cnt <- cnt
  end
  else
    let p = Array.unsafe_get pcs i in
    if p < best then scan_pcs t pcs n (i + 1) p 1
    else if p = best then scan_pcs t pcs n (i + 1) best (cnt + 1)
    else scan_pcs t pcs n (i + 1) best cnt

(* Pick the pc the next issue executes and how many lanes sit at it,
   into [out.pc] and [out.executed_lanes].  On the sparse path the scan
   re-detects reconvergence: every lane back at one pc flips the
   wavefront to the dense path. *)
let select_pc t (out : outcome) =
  if t.conv_pc >= 0 then begin
    out.pc <- t.conv_pc;
    out.executed_lanes <- t.size
  end
  else begin
    if not t.sel_valid then scan_pcs t t.pcs t.size 0 done_pc 0;
    let pc = t.sel_pc and cnt = t.sel_cnt in
    if cnt = t.size then t.conv_pc <- pc;
    out.pc <- pc;
    out.executed_lanes <- cnt
  end

(* Has [lb] already been coalesced?  Linear scan: a wavefront touches at
   most [size] lines per issue and almost always far fewer. *)
let rec line_seen (lines : int array) n lb i =
  i < n && (Array.unsafe_get lines i = lb || line_seen lines n lb (i + 1))

(* Record the line containing [addr], then validate the word address.
   The order matters: the timing model charges the coalesced request
   even when the access itself faults (matching the original issue
   path, where [add_line] ran before the bounds check). *)
let[@inline] coalesce_and_check (out : outcome) ~line_bytes ~mem_words addr =
  let lb = addr / line_bytes * line_bytes in
  let n = out.mem_line_count in
  if not (line_seen out.mem_lines n lb 0) then begin
    out.mem_lines.(n) <- lb;
    out.mem_line_count <- n + 1
  end;
  if addr land 3 <> 0 then fault "misaligned access 0x%x" addr;
  let w = addr lsr 2 in
  if w >= mem_words then fault "address 0x%x out of memory" addr;
  w

(* The [uniform] bit of the slice an instruction writes; 0 when it
   writes none. *)
let written_bit (d : Fgpu_predecode.t) =
  match d.Fgpu_predecode.kind with
  | Fgpu_predecode.KAlu | Fgpu_predecode.KAlui | Fgpu_predecode.KLoadImm
  | Fgpu_predecode.KLw | Fgpu_predecode.KSpecial ->
      let rd = d.Fgpu_predecode.rd in
      1 lsl if rd = 0 then sink_reg else rd
  | Fgpu_predecode.KSw | Fgpu_predecode.KBranch | Fgpu_predecode.KJump
  | Fgpu_predecode.KBarrier | Fgpu_predecode.KRet ->
      0
