(** Standard-cell library model: per-equivalent-gate and per-flip-flop
    quantities, calibrated to a 65 nm-class node (see source for the
    calibration rationale). *)

type t = {
  name : string;
  gate_delay_ns : float;  (** per gate level, incl. average local wire *)
  gate_area_um2 : float;
  gate_leak_nw : float;
  gate_energy_fj : float;
  dff_clk_to_q_ns : float;
  dff_setup_ns : float;
  dff_area_um2 : float;  (** per flip-flop bit *)
  dff_leak_nw : float;
  dff_energy_fj : float;  (** per bit per clock, incl. clock tree share *)
  clock_skew_ns : float;
}

val default_65nm : t
val comb_delay_ns : t -> Ggpu_hw.Op.t -> width:int -> float
val comb_energy_fj : t -> Ggpu_hw.Op.t -> width:int -> float
val pp : Format.formatter -> t -> unit
