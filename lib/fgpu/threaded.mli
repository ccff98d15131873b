(** The lane engine: the predecoded program compiled once per launch
    into per-pc closures (one dense, one sparse, following the
    wavefront's convergence state [conv_pc]), so the hot loop executes
    straight-line compiled lane loops with all operand offsets,
    immediates and branch targets captured at compile time.

    Its specification is the reference engine in [test/fgpu_oracle.ml]:
    for any wavefront state, {!issue} leaves the architectural state of
    the wavefront, the outcome record and global memory exactly as the
    reference would — including fault messages and memory-check
    ordering.  Enforced by the golden cycle table and the differential
    property tests, which run the reference through
    {!Gpu.with_issue}. *)

type t

val compile :
  Ggpu_isa.Fgpu_predecode.t array ->
  wf_size:int ->
  mem:int array ->
  line_words:int ->
  t
(** Compile a predecoded program for one launch.  The closures capture
    [mem] and the launch geometry, so a compiled program is only valid
    for the run it was compiled for.  Cost is linear in program length
    (a few closure allocations per instruction) — negligible next to
    any simulation. *)

val issue : t -> Wavefront.t -> Wavefront.outcome -> unit
(** Execute one instruction for the lanes at the wavefront's minimum
    pc, against the memory the program was compiled with, and describe
    the issue in the outcome record, overwritten in place.
    @raise Wavefront.Fault on bad addresses or a wild pc. *)
