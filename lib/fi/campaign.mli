(** Fault-injection campaign engine: one golden run, then a population
    of single-bit-upset trials classified against it as Masked / SDC /
    DUE / Hang, fanned out over the {!Ggpu_par.Parallel} domain pool.

    Campaigns are deterministic: for a fixed seed the trial list is
    bit-identical whether run serially or on N domains. Trials are
    isolated: an injected trial's exception (trap, launch error,
    watchdog) is its classification and never aborts the campaign. *)

type target = Ggpu of int  (** compute units *) | Rv32

val target_name : target -> string

type trial = { fault : Fault.t; outcome : Fault.outcome }

type class_counts = { masked : int; sdc : int; due : int; hang : int }

val total_of : class_counts -> int

val avf : class_counts -> float
(** Architectural vulnerability factor: the fraction of upsets that are
    not masked ((sdc + due + hang) / trials). *)

type report = {
  target : target;
  kernel : string;
  size : int;
  seed : int;
  golden_cycles : int;  (** cycle count of the fault-free run *)
  watchdog_cycles : int;  (** Hang threshold used for every trial *)
  trials : trial list;  (** in trial-index order *)
  by_structure : (Fault.structure * class_counts) list;
  total : class_counts;
}

val run :
  ?domains:int ->
  ?watchdog_factor:int ->
  target:target ->
  workload:Ggpu_kernels.Suite.t ->
  size:int ->
  trials:int ->
  seed:int ->
  unit ->
  report
(** Run a campaign of [trials] injected runs of [workload] at [size]
    work-items. The watchdog is [watchdog_factor * golden_cycles +
    10_000] simulated cycles (default factor 8). [domains] sizes the
    domain pool ([1] forces a serial run, on the calling domain). *)

val signature : report -> string
(** Compact [structure:masked/sdc/due/hang] token list (ending with a
    [total:] token) for golden-file drift checks in CI. *)

val pp_report : Format.formatter -> report -> unit
