(** Wavefront state and the lane-level helpers of the lane engine
    ({!Threaded}): 64 work-items in lockstep on 8 processing elements,
    with full divergence under a minimum-PC policy (divergent lane
    groups serialise and reconverge at joins).  Register semantics
    mirror {!Ggpu_riscv.Cpu} so all executors agree bit-for-bit; the
    specification of one issue is the reference engine in
    [test/fgpu_oracle.ml].

    Registers and memory are native [int array]s holding canonical
    {!Ggpu_isa.I32} values, with no box per element; an issue writes a
    reusable [outcome] scratch record, so the steady-state issue path
    allocates nothing.  The outcome carries the issue's flags as one
    word of [f_*] bits, defined here and nowhere else: the lane engine
    writes it, the replay trace stores it as it is, and the timing
    model tests its bits.  The register file is the one large allocation
    per wavefront; a scheduler can recycle it through {!create}'s
    [reuse], and a replay, which takes its issues from a trace, builds
    {!timing_only} wavefronts that have none. *)

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
          sets every bit.  {!Threaded} reads the mask to run a dense
          instruction with uniform sources once and broadcast the
          result, and keeps it exact for what it writes; every other
          writer of [regs] ({!set_reg}, the sparse lane loops) clears
          the bit of the slice it writes.  A stale set bit would
          silently give every lane lane 0's value. *)
  mutable conv_pc : int;
      (** incrementally-tracked convergence: when >= 0, every lane is
          live at this pc and [pcs] may be stale; -1 means [pcs] is
          authoritative *)
  mutable sel_pc : int;
  mutable sel_cnt : int;
  mutable sel_valid : bool;
      (** when true, [sel_pc]/[sel_cnt] cache what a scan of [pcs]
          would return ({!select_pc}'s sparse answer).  The sparse
          lane loops of {!Threaded} maintain the cache as they rewrite
          [pcs]; every other writer invalidates it. *)
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

(** {2 Issue flags}

    One bit each in an outcome's [flags] word: an issue of fewer lanes
    than live (divergent), a store, the divider, the multiplier, a jump
    or a conditional branch some lane took, a barrier, and the issue
    that retired the wavefront's last lanes.  The replay trace ({!Gpu})
    stores the word as it is, so the values are part of its format. *)

val f_partial : int
val f_store : int
val f_div : int
val f_mul : int
val f_branch : int
val f_barrier : int
val f_retire : int

val static_flags : Ggpu_isa.Fgpu_predecode.t -> int
(** The bits an instruction sets whatever its lanes do: store, div,
    mul, branch for a jump and barrier.  The lane engine adds the
    partial, conditional-branch and retire bits per issue. *)

type outcome = {
  mutable pc : int;  (** program counter the issue executed *)
  mutable executed_lanes : int;
  mutable flags : int;  (** the issue's [f_*] bits *)
  mem_lines : int array;
      (** coalesced line base addresses (bytes), first-touch order; only
          the first [mem_line_count] entries are meaningful *)
  mutable mem_line_count : int;
}

val make_outcome : max_lanes:int -> outcome
(** Scratch record for one issue; [max_lanes] bounds the per-issue line
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
  params:int list ->
  unit ->
  t
(** Lanes beyond the workgroup or global range start retired; [params]
    are preloaded into r1..rN of every lane.  [reuse] hands over a
    retired wavefront of the same [size] whose [pcs]/[regs] storage the
    new one takes (zeroed first), saving the register file's major-heap
    allocation; the old wavefront must not be issued again. *)

val timing_only :
  wg_id:int ->
  wf_index:int ->
  size:int ->
  wg_offset:int ->
  wg_size:int ->
  global_size:int ->
  t
(** A wavefront that carries only what the scheduler reads: the
    [live_lanes] {!create} would count, with empty [pcs] and [regs].
    For a replay, whose issues come from a recorded trace; a lane
    engine must never issue it. *)

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
    ([conv_pc]). *)

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

val reg : t -> lane:int -> int -> int
(** Architectural register read, a {!Ggpu_isa.I32} word
    (fault-injection interface). *)

val set_reg : t -> lane:int -> int -> int -> unit
(** Overwrite one lane's register from outside the issue path (fault
    injection); clears the register's [uniform] bit. *)

val local_id : t -> lane:int -> int
