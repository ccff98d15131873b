(** Performance-monitoring unit for the FGPU simulator: per-CU
    per-cause cycle attribution, a cycle-strided hot-PC histogram, and
    virtual-time occupancy/lifetime events through {!Ggpu_obs.Trace}.

    The collector is a pure observer — it reads values the scheduler
    already computed and never feeds anything back, so instrumented
    runs are bit-identical to bare runs.  The simulator pays for it
    only when a collector is passed ([Gpu.run ?pmu]); the disabled cost
    is one load-and-branch per issued wavefront-instruction.

    Every cycle of every CU lands in exactly one bucket, so each CU's
    bucket vector sums to the run's total cycles (and the grid total to
    [cycles x num_cus]) — the invariant perf-report's validator
    checks. *)

type t

(** {1 Buckets}

    Indices into a CU's bucket vector, in [bucket_names] order:
    - [issue] — vector-pipeline beats spent issuing with a full mask
      (plus divider occupancy and configured issue overhead);
    - [div_serial] — beats spent issuing with a partial active mask:
      the serialisation cost of divergence;
    - [stall_mem_hit]/[stall_mem_miss]/[stall_mem_axi] — idle cycles
      waiting on a memory access that hit, missed, or missed and also
      contended for an AXI data port;
    - [stall_barrier] — idle cycles waiting for workgroup barriers;
    - [stall_latency] — idle cycles hidden behind fixed pipeline
      latencies (multiplier, branch penalty, dispatch);
    - [idle_empty] — cycles after the CU drained (no resident work). *)

val bucket_names : string array

(** {1 Stall kinds}

    The simulator stores one per wavefront — the reason its next issue
    is delayed, classified when the previous issue completed.  Values
    are the corresponding stall-bucket indices, so {!on_issue} charges
    idle gaps with a single array index. *)

val sk_barrier : int
val sk_latency : int

val sk_of_mem_class : int -> int
(** Map {!Cache.take_access_class}'s result (0 = all lines hit,
    1 = some line missed, 2 = some miss contended for AXI) to a stall
    kind. *)

(** {1 Collection} *)

val create : ?stride:int -> num_cus:int -> prog_len:int -> unit -> t
(** A collector for one run of [num_cus] CUs over a [prog_len]-
    instruction program.  [stride] (default 64) is the hot-PC sampling
    period in cycles of each CU's own timeline. *)

val num_cus : t -> int

val on_issue :
  t -> cu:int -> now:int -> busy:int -> pc:int -> divergent:bool ->
  stall:int -> unit
(** Record one issued wavefront-instruction: the idle gap since the
    CU's last accounted cycle goes to the [stall] bucket, the [busy]
    pipeline occupancy to [issue] (or [div_serial] when [divergent]),
    and the issued [pc] is sampled once per [stride] cycles. *)

val finalize : t -> cycles:int -> unit
(** Settle each CU's tail against the run's total [cycles]: trailing
    drained time becomes [idle_empty]; an over-account from a final
    issue-overhead window is clipped from [issue].  Establishes the
    sum-to-cycles invariant; call once, after the event loop drains. *)

(** {1 Timeline}

    Virtual-time events through the ambient {!Ggpu_obs.Trace} (no-ops
    unless tracing is enabled).  Simulated cycles ride in the tracer's
    nanosecond field (1 cycle = 1 ns); each CU gets its own track. *)

val timeline_tid : cu:int -> int
(** Trace thread id carrying CU [cu]'s occupancy and wavefront tracks
    ([100 + cu], clear of real domain ids). *)

val occupancy : cu:int -> now:int -> resident:int -> active:int -> unit
(** One sample of a CU's wavefront-occupancy counter track: [resident]
    wavefronts in its slots, [active] of them runnable. *)

val wf_span : cu:int -> wg:int -> wf:int -> dispatched:int -> retired:int -> unit
(** One complete span covering a wavefront's dispatch-to-retire
    lifetime. *)

(** {1 Summaries} *)

type summary = {
  s_num_cus : int;
  s_cycles : int;
  s_stride : int;
  s_samples : int;  (** total hot-PC samples taken *)
  s_buckets : int array array;
      (** per CU, one cell per {!bucket_names} entry *)
  s_hot : (int * string * int) list;
      (** (pc, disassembly, samples), hottest first, ties by pc *)
}

val summarize : t -> program:Ggpu_isa.Fgpu_isa.t array -> summary
(** Snapshot the collector after {!finalize}, symbolising sampled PCs
    against [program]. *)

val bucket_total : summary -> string -> int
(** Sum of the named bucket across all CUs.
    @raise Invalid_argument on an unknown bucket name. *)

val pp_summary : Format.formatter -> summary -> unit
(** Per-CU bucket table with a totals row. *)

val pp_hot : ?limit:int -> Format.formatter -> summary -> unit
(** Self-time-style hot-PC table, top [limit] (default 10) rows. *)
