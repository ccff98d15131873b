(** The GPUPlanner push-button flow (the paper's Fig. 2): RTL generation
    → design-space exploration → logic synthesis reporting → partitioned
    floorplan → routing estimate → post-route timing → spec check. *)

type implementation = {
  spec : Spec.t;
  netlist : Ggpu_hw.Netlist.t;  (** after the DSE's edits *)
  map : Map.t;
  logic_report : Ggpu_synth.Report.row;  (** a Table I row *)
  floorplan : Ggpu_layout.Floorplan.t;
  route : Ggpu_layout.Route.t;  (** Table II data *)
  post_timing : Ggpu_layout.Timing_post.t;
  contention_derate : float;
      (** {!Spec.contention_derate}: 1.0 through 8 CUs, < 1 beyond —
          already folded into [achieved_mhz] *)
  achieved_mhz : float;  (** min of target and post-route achievable *)
  spec_check : (unit, Spec.violation list) result;
  dse_perf : Dse.perf;  (** STA-call counters of the exploration *)
  phases : (string * float) list;
      (** per-phase wall-clock seconds, in flow order: generate, dse,
          report, floorplan, post_timing, route *)
}

(** Result of logic synthesis with its performance counters. *)
type synthesis = {
  syn_netlist : Ggpu_hw.Netlist.t;
  syn_map : Map.t;
  syn_report : Ggpu_synth.Report.row;
  syn_perf : Dse.perf;
  syn_phases : (string * float) list;
}

val synthesise_timed :
  ?tech:Ggpu_tech.Tech.t ->
  ?base:Ggpu_hw.Netlist.t ->
  Spec.t ->
  synthesis
(** Logic synthesis only: generate, explore, report, with wall-clock
    phase breakdown.  [base] supplies a pre-elaborated netlist for the
    spec's CU count; it is copied, never mutated, so one base serves
    several targets.
    @raise Dse.Cannot_meet if the frequency is unreachable. *)

val synthesise :
  ?tech:Ggpu_tech.Tech.t ->
  Spec.t ->
  Ggpu_hw.Netlist.t * Map.t * Ggpu_synth.Report.row
(** {!synthesise_timed} without the counters. *)

val base_macro_count : num_cus:int -> int
(** Macro count of the non-optimised design (51 + 42 per extra CU). *)

type placer =
  | Columns  (** the estimator's stacked-columns floorplan (default) *)
  | Analytic  (** {!Ggpu_layout.Place} analytical global placement *)

val implement :
  ?tech:Ggpu_tech.Tech.t ->
  ?base:Ggpu_hw.Netlist.t ->
  ?place:placer ->
  ?place_domains:int ->
  Spec.t ->
  implementation
(** The full RTL-to-layout flow.  [base] as in {!synthesise_timed};
    post-route timing reuses DSE's engine.  [place] selects the
    floorplan engine (the analytical placer is deterministic at any
    [place_domains]).  Beyond 8 CUs the achieved frequency carries the
    {!Spec.contention_derate} for the shared L2/AXI interconnect. *)

val pp_implementation : Format.formatter -> implementation -> unit
