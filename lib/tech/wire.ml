(* Global-wire delay model.

   Long inter-partition wires are buffered; with optimal repeater
   insertion the delay is linear in length.  The constant is calibrated
   for a 65 nm class process (~0.12 ns/mm on intermediate layers).  This
   is the model behind the paper's key physical finding: the 8-CU
   floorplan puts peripheral compute units several millimetres from the
   general memory controller, and the resulting wire delay breaks the
   1.5 ns (667 MHz) target, derating the design to 600 MHz. *)

type t = {
  buffered_delay_ns_per_mm : float;
  local_detour_factor : float; (* routed length / half-perimeter estimate *)
}

let default_65nm = { buffered_delay_ns_per_mm = 0.125; local_detour_factor = 1.12 }

let delay_ns t ~length_mm = t.buffered_delay_ns_per_mm *. length_mm
