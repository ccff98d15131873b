(** G-GPU top level: workgroup dispatch and discrete-event execution of
    a compiled kernel over a grid of work-items.

    Functional results land in [mem]; timing comes from the vector
    pipelines, the shared iterative dividers, and the central cache /
    AXI model, which is where the paper's multi-CU saturation arises. *)

exception Launch_error of string

exception Watchdog_timeout of int
(** Simulated time passed the [max_cycles] watchdog: corrupted control
    flow that would otherwise spin forever. Carries the event time. *)

type probe = {
  p_now : int;  (** event time at which the injector fired *)
  p_wavefronts : Wavefront.t array;
      (** all resident wavefronts, CU-major then workgroup order *)
  p_cache : Cache.t;
  p_mem : int array;
      (** global memory: the caller's [mem] itself, which the launch
          mutates in place *)
}
(** Architectural-state snapshot handed to a fault injector. *)

val run :
  ?max_cycles:int ->
  ?inject:int * (probe -> unit) ->
  ?pmu:Ggpu_pmu.Pmu.t ->
  ?domains:int ->
  Config.t ->
  program:Ggpu_isa.Fgpu_isa.t array ->
  params:int list ->
  global_size:int ->
  local_size:int ->
  mem:int array ->
  Stats.t
(** Execute the kernel for [global_size] work-items in workgroups of
    [local_size]. [params] are preloaded into r1..rN of every work-item
    (the code generator's convention). [mem] is global memory, one
    {!Ggpu_isa.I32} word per element: the simulation runs on it in
    place, with no working copy and no copy-back, so partial results
    are observable after watchdog and fault exits too.

    [max_cycles] arms a watchdog over simulated time; [inject] is a
    [(cycle, f)] pair calling [f] once with a state snapshot at the
    first event at or after [cycle] (fault-injection hook). Neither
    perturbs the simulation by itself: a run under a high watchdog with
    no injection reproduces the exact cycle counts of a bare run.

    [pmu] attaches a {!Ggpu_pmu.Pmu} collector (sized for
    [cfg.num_cus] and the program length): per-CU per-cause cycle
    attribution, hot-PC sampling, and — when tracing is enabled —
    occupancy/lifetime timelines.  The collector is a pure observer;
    instrumented runs are bit-identical to bare ones, and a bare run
    pays one load-and-branch per issue.  [run] calls
    {!Ggpu_pmu.Pmu.finalize} before returning.

    Lanes execute through {!Threaded}.  [domains] > 1 fans the
    functional execution of workgroups out over that many {!Ggpu_par}
    domains, replaying the recorded issue streams through the
    sequential timing model so stats, memory and PMU output are
    bit-identical at every domain count (see {!run_cus} for the
    contract).  Runs that need mid-flight state access ([inject] or
    [max_cycles]) ignore [domains] and execute in place.
    @raise Launch_error on bad geometry or an empty program.
    @raise Watchdog_timeout when simulated time exceeds [max_cycles].
    @raise Wavefront.Fault on out-of-range memory accesses. *)

val run_cus :
  ?domains:int ->
  Config.t ->
  cus:int list ->
  program:Ggpu_isa.Fgpu_isa.t array ->
  params:int list ->
  global_size:int ->
  local_size:int ->
  mem:int array ->
  Stats.t list
(** One launch timed at several CU counts: the stats of each count, in
    [cus] order, as {!run} with [Config.with_cus cfg n] would return
    them.  Only the CU count varies; the rest of [cfg] is shared.
    [run] is the one-count case.

    With two or more counts (or [domains] > 1) a record pass executes
    every workgroup once, on [domains] domains, and records each
    wavefront's issue stream; each count then replays the streams
    through the timing model from a fresh cache, event heap and stats.
    [mem] ends holding the one final memory image.

    Contract: results are exact for race-free kernels — no work-item
    reads a word another work-item writes unless a barrier orders the
    two within one workgroup, and no two work-items write one word.
    Registers, memory and issue streams then do not depend on the
    schedule, so a replay at any count matches an in-place run.  If
    the record pass faults, or a replay desynchronises (a racy or
    non-uniformly-synchronised kernel), memory is restored and every
    count runs in place in order, each from the launch's initial
    memory: the stats are then exactly those of separate {!run} calls
    on fresh copies of memory, a fault surfaces from the first count
    that raises it, and [mem] holds what the last count run left.
    @raise Launch_error on bad geometry, an empty program or an empty
    [cus].
    @raise Config.Bad_config on an unsupported count.
    @raise Wavefront.Fault on out-of-range memory accesses. *)

type issue =
  Ggpu_isa.Fgpu_predecode.t array ->
  mem:int array ->
  line_words:int ->
  Wavefront.t ->
  Wavefront.outcome ->
  unit
(** A lane engine: execute one instruction of the predecoded program
    for the lanes of the wavefront at its minimum pc, against the
    launch's working memory ([line_words] words per cache line), and
    describe the issue in the outcome record, overwritten in place. *)

val with_issue : issue -> (unit -> 'a) -> 'a
(** [with_issue issue f] runs [f] with every launch it makes on the
    calling domain executing its lanes through [issue] instead of
    {!Threaded}, and restores the previous engine when [f] returns or
    raises.  A launch reads the engine once, on the domain that starts
    it, so a launch started on another domain (a worker pool) keeps
    {!Threaded}.  A test seam: the reference engine in
    [test/fgpu_oracle.ml] checks {!Threaded} through it. *)
