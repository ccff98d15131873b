(** Wavefront state and lane-level execution: 64 work-items in lockstep
    on 8 processing elements, with full divergence under a minimum-PC
    policy (divergent lane groups serialise and reconverge at joins).
    Register semantics mirror {!Ggpu_riscv.Cpu} so all executors agree
    bit-for-bit.

    Registers and memory are native [int array]s holding canonical
    {!Ggpu_isa.I32} values (an [int32 array] would box every element);
    [issue] consumes the predecoded program and a reusable [outcome]
    scratch record, so the steady-state issue path allocates nothing.
    The register file is the one large allocation per wavefront; a
    scheduler can recycle it through {!create}'s [reuse]. *)

val done_pc : int

val sink_reg : int
(** Index of the write-sink register slice that absorbs [rd = 0]
    results (slice 32, just past the architectural file). *)

type t = {
  wg_id : int;
  wf_index : int;
  size : int;
  wg_offset : int;
  wg_size : int;
  global_size : int;
  pcs : int array;
      (** per lane; [done_pc] when retired.  Stale while the wavefront
          is converged — call {!materialize_pcs} before reading *)
  regs : int array;
      (** 33 register slices x size lanes, register-major (register [r]
          of lane [l] at [r * size + l]), {!Ggpu_isa.I32} canonical.
          Slice 0 (x0) is never written so reads need no zero check;
          slice 32 is a write sink that absorbs [rd = 0] results so
          writes need no check either.  Read through {!reg} from
          outside the issue path. *)
  mutable uniform : int;
      (** bit [r] set: every lane of register slice [r] holds the same
          value (bit 0 always holds: x0 is never written).  {!create}
          sets every bit.  The threaded backend reads the mask to run a
          dense instruction with uniform sources once and broadcast the
          result, and keeps it exact for what it writes; every other
          writer of [regs] ({!issue}, {!set_reg}, the threaded sparse
          path) clears the bit of the slice it writes.  A stale set bit
          would silently give every lane lane 0's value. *)
  mutable conv_pc : int;
      (** incrementally-tracked convergence: when >= 0, every lane is
          live at this pc and [pcs] may be stale; -1 means [pcs] is
          authoritative *)
  mutable sel_pc : int;
  mutable sel_cnt : int;
  mutable sel_valid : bool;
      (** when true, [sel_pc]/[sel_cnt] cache what a scan of [pcs]
          would return ({!select_pc}'s sparse answer).  The threaded
          backend's sparse lane loops maintain the cache as they
          rewrite [pcs]; every other writer invalidates it. *)
  mutable live_lanes : int;
  mutable ready_at : int;
  mutable at_barrier : bool;
  mutable last_cu : int;
  mutable stall_kind : int;
      (** PMU stall kind ({!Ggpu_pmu.Pmu}) the next issue delay will be
          attributed to; only instrumented runs write it, the scheduler
          never reads it *)
  mutable dispatched_at : int;  (** cycle the wavefront's CU adopted it *)
}

type outcome = {
  mutable pc : int;  (** program counter the issue executed *)
  mutable executed_lanes : int;
  mutable partial_mask : bool;  (** fewer lanes than live: a divergent issue *)
  mem_lines : int array;
      (** coalesced line base addresses (bytes), first-touch order; only
          the first [mem_line_count] entries are meaningful *)
  mutable mem_line_count : int;
  mutable mem_is_store : bool;
  mutable used_div : bool;
  mutable used_mul : bool;
  mutable taken_branch : bool;
  mutable hit_barrier : bool;
  mutable retired : bool;
}

val make_outcome : max_lanes:int -> outcome
(** Scratch record for {!issue}; [max_lanes] bounds the per-issue line
    count (one wavefront touches at most one line per lane). *)

exception Fault of string

val create :
  ?reuse:t ->
  wg_id:int ->
  wf_index:int ->
  size:int ->
  wg_offset:int ->
  wg_size:int ->
  global_size:int ->
  params:int32 list ->
  unit ->
  t
(** Lanes beyond the workgroup or global range start retired; [params]
    are preloaded into r1..rN of every lane.  [reuse] hands over a
    retired wavefront of the same [size] whose [pcs]/[regs] storage the
    new one takes (zeroed first), saving the register file's major-heap
    allocation; the old wavefront must not be issued again. *)

val finished : t -> bool

val materialize_pcs : t -> unit
(** Make [pcs] reflect reality (fill with [conv_pc] when converged) so
    an external reader — fault injection, a probe — sees true per-lane
    state. Cheap; does not change architectural state. *)

val set_pc : t -> lane:int -> int -> unit
(** Overwrite one lane's pc from outside the issue path (fault
    injection), recounting [live_lanes] so scheduler accounting stays
    consistent. [done_pc] retires the lane; any other value revives it. *)

val min_pc : t -> int

val select_pc : t -> outcome -> unit
(** Write the pc the next issue executes and the number of lanes
    sitting at it into the outcome's [pc] and [executed_lanes], in one
    pass and without allocating.  On the sparse path the scan
    re-detects reconvergence and flips the wavefront back to dense
    ([conv_pc]).  Backend helper, shared by {!issue} and {!Threaded}. *)

val written_bit : Ggpu_isa.Fgpu_predecode.t -> int
(** The [uniform] bit of the register slice an instruction writes
    ([rd = 0] writes the sink slice), or 0 if it writes no register. *)

val alu : Ggpu_isa.Fgpu_isa.alu_op -> int -> int -> int
(** ALU semantics on canonical {!Ggpu_isa.I32} values (RISC-V M
    division corner cases included). *)

val cond_holds : Ggpu_isa.Fgpu_isa.cond -> int -> int -> bool

val coalesce_and_check : outcome -> line_bytes:int -> mem_words:int -> int -> int
(** Record the cache line containing a byte address into the outcome's
    line buffer (first-touch order, deduplicated), then validate the
    access; returns the word index.  The line is charged before
    validation so the timing model sees the request even when the
    access faults.  @raise Fault on misaligned or out-of-range
    addresses. *)

val reg : t -> lane:int -> int -> int32
(** Architectural register read as [int32] (fault-injection interface). *)

val set_reg : t -> lane:int -> int -> int32 -> unit
(** Overwrite one lane's register from outside the issue path (fault
    injection); clears the register's [uniform] bit. *)

val local_id : t -> lane:int -> int

val issue :
  t ->
  dprog:Ggpu_isa.Fgpu_predecode.t array ->
  mem:int array ->
  line_words:int ->
  outcome ->
  unit
(** Execute one instruction for all lanes at the minimum PC. Global
    memory is read/written immediately; timing comes from the outcome
    scratch record, overwritten in place. @raise Fault on bad addresses
    or a wild PC. *)
