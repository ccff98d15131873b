(** Zero-allocation straight-line FGPU sequence executor over
    {!Ggpu_isa.I32} lane state: one lane's registers, no scheduler, no
    event heap.  Semantics are bit-identical to the simulator's lane
    engine ({!Ggpu_fgpu.Threaded}) and to its reference in
    [test/fgpu_oracle.ml] for every straight-line instruction (the ALU
    is the simulator's own {!Ggpu_fgpu.Wavefront.alu}; load immediates,
    loads/stores, SIMT specials); branches and jumps fault. *)

type t = {
  regs : int array;  (** 33 slots, I32-canonical; 0 reads zero, 32 is the rd=0 sink *)
  mutable lid : int;
  mutable wgid : int;
  mutable wgoff : int;
  mutable wgsize : int;
  mutable gsize : int;
}

exception Fault of string

val create : unit -> t

val reg : t -> int -> int
(** Canonical (sign-extended) value of an architectural register. *)

val set_reg : t -> int -> int -> unit
(** Writes are canonicalised; writes to r0 are discarded. *)

val load_params : t -> int32 list -> unit
(** Kernel convention: parameter [i] lands in register [i+1]. *)

val step : ?mem:int array -> t -> Ggpu_isa.Fgpu_predecode.t -> bool
(** Execute one predecoded instruction; [false] iff it was [Ret].
    Allocation-free.  @raise Fault on control flow, misaligned or
    out-of-bounds access. *)

val run : ?mem:int array -> t -> Ggpu_isa.Fgpu_predecode.t array -> unit
(** Run a straight-line sequence from its first instruction, stopping
    at [Ret] or the end.  Allocation-free. *)

val run_wavefront :
  ?mem:int array ->
  size:int ->
  wg_id:int ->
  wg_offset:int ->
  wg_size:int ->
  global_size:int ->
  params:int32 list ->
  Ggpu_isa.Fgpu_predecode.t array ->
  t array
(** Instruction-major execution of one full wavefront (the dense issue
    order of a converged wavefront); returns the per-lane end states.
    Test-path helper; allocates one state per lane. *)
