(** Post-route timing: in-partition paths keep their logic-synthesis
    delay; cross-partition routes add unbuffered (quadratic) RC wire
    delay, the mechanism that derates the paper's 8-CU design from
    667 to ~600 MHz and that pipeline insertion cannot fix. *)

type cross_path = {
  net : Ggpu_hw.Net.t;
  from_region : string;
  to_region : string;
  distance_mm : float;
  wire_delay_ns : float;
  total_ns : float;
}

type t = {
  internal_ns : float;  (** worst in-partition register path *)
  worst_cross : cross_path option;
  post_route_period_ns : float;
  achieved_mhz : float;
}

val unbuffered_rc_ns : Ggpu_tech.Tech.t -> length_mm:float -> float

val analyse :
  ?engine:Ggpu_synth.Timing.engine ->
  Ggpu_tech.Tech.t ->
  Ggpu_hw.Netlist.t ->
  Floorplan.t ->
  t
(** [engine], an engine over [netlist] such as the one {!Ggpu_core.Dse}
    explored with, is synchronised and reused; without it a fresh engine
    is built.  The result is the same either way. *)

val quantise : float -> float
(** Round a frequency down to 10 MHz steps, as the paper reports
    ("600 MHz"). *)

val quantised_mhz : t -> float
(** [quantise t.achieved_mhz]. *)

val pp : Format.formatter -> t -> unit
