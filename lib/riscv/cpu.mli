(** RV32IM functional + timing simulator: a Harvard machine with a
    decoded program array and a word-addressed data memory. Semantics
    follow the RISC-V unprivileged specification, including division
    corner cases; [Ecall] halts. Registers and memory hold
    {!Ggpu_isa.I32} words, and {!step} allocates nothing. *)

type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable taken_branches : int;
}

type t

exception Trap of string
exception Out_of_fuel of int

exception Watchdog_timeout of int
(** Simulated cycles passed the [max_cycles] watchdog. *)

val create :
  ?timing:Timing_model.t ->
  mem:int array ->
  program:Ggpu_isa.Rv32.t array ->
  unit ->
  t
(** A machine at pc 0 with zeroed registers whose data memory is [mem],
    one {!Ggpu_isa.I32} word per element, mutated in place by the run. *)

val stats : t -> stats
val halted : t -> bool
val mem_words : t -> int

val pc : t -> int
(** Current program counter (byte address). *)

val set_pc : t -> int -> unit
(** Overwrite the program counter (fault-injection hook). *)

val get_reg : t -> int -> int
val set_reg : t -> int -> int -> unit
(** Register access in {!Ggpu_isa.I32} words; writes to x0 are
    ignored. *)

val load_word : t -> addr:int -> int
(** @raise Trap on misaligned or out-of-range addresses. *)

val store_word : t -> addr:int -> int -> unit

val step : t -> unit
(** Execute one instruction (no-op once halted).
    @raise Trap on bad memory accesses or a wild pc. *)

val run : ?fuel:int -> ?max_cycles:int -> t -> stats
(** Run to the halting [Ecall].
    @raise Out_of_fuel after [fuel] instructions (default 5e8).
    @raise Watchdog_timeout when simulated cycles exceed [max_cycles]. *)
