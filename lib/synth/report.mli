(** Logic-synthesis reports: one {!row} per G-GPU version, carrying
    exactly the columns of the paper's Table I plus diagnostics. *)

type row = {
  num_cus : int;
  freq_mhz : int;
  total_area_mm2 : float;
  memory_area_mm2 : float;
  ff : int;  (** flip-flop bits ("#FF") *)
  comb : int;  (** equivalent gate count ("#Comb.") *)
  memories : int;  (** SRAM macro instances ("#Memory") *)
  leakage_mw : float;
  dynamic_w : float;
  total_w : float;
  fmax_mhz : float;
  pipeline_stages : int;  (** inserted by the planner *)
}

val of_netlist :
  Ggpu_tech.Tech.t ->
  timing:Timing.report ->
  Ggpu_hw.Netlist.t ->
  num_cus:int ->
  freq_mhz:int ->
  row
(** [timing] is an up-to-date {!Timing.report} for the netlist, such as
    the last analysis of a DSE run; it supplies [fmax_mhz]. *)

val header : string
val row_to_string : row -> string
