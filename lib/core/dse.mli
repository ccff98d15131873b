(** Design-space exploration: the heart of GPUPlanner.

    Iterates static timing analysis against a target period, dividing
    SRAM macros while their access time dominates the period and
    inserting pipeline registers on demand otherwise — the paper's two
    strategies. Mutates the netlist in place and records every edit in
    a replayable {!Map.t}. *)

exception
  Cannot_meet of { period_ns : float; best_ns : float; detail : string }

type strategy =
  | Full  (** division + on-demand pipelining (the paper's planner) *)
  | Division_only  (** ablation: never insert pipelines *)
  | Pipeline_only  (** ablation: never divide memories *)

(** Wall-clock and STA-call counters for one exploration. *)
type perf = {
  sta_calls : int;  (** timing analyses run by the loop *)
  sta_full : int;  (** whole-graph recomputations *)
  sta_incremental : int;  (** incremental cone updates *)
  sta_wall_s : float;  (** time in static timing analysis *)
  edit_wall_s : float;  (** time predicting and applying edits *)
  total_wall_s : float;
}

val pp_perf : Format.formatter -> perf -> unit

type result = {
  map : Map.t;
  iterations : int;
  final : Ggpu_synth.Timing.report;  (** meets the period by construction *)
  engine : Ggpu_synth.Timing.engine;
      (** the engine [final] came from, synchronised at the returned
          netlist *)
  perf : perf;
}

val explore :
  ?strategy:strategy ->
  Ggpu_tech.Tech.t ->
  Ggpu_hw.Netlist.t ->
  num_cus:int ->
  period_ns:float ->
  result
(** One {!Ggpu_synth.Timing} engine serves every iteration, so each
    analysis after an edit re-sweeps only the touched fan-out cone.
    @raise Cannot_meet when no sequence of edits reaches the period,
    or after 400 edits. *)
