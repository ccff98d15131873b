(* Standard-cell library model.

   All quantities are per "equivalent 2-input gate" (for combinational
   logic) or per flip-flop bit.  The default values are calibrated so that
   the generated non-optimised G-GPU closes timing at ~500 MHz in a 65 nm
   class technology and lands in the area/power range of Table I of the
   paper; they are deliberately exposed so users can model any node (see
   examples/custom_technology.ml). *)

type t = {
  name : string;
  gate_delay_ns : float; (* delay per gate level, incl. average local wire *)
  gate_area_um2 : float; (* placed area per equivalent gate *)
  gate_leak_nw : float; (* leakage per equivalent gate *)
  gate_energy_fj : float; (* switching energy per gate toggle *)
  dff_clk_to_q_ns : float;
  dff_setup_ns : float;
  dff_area_um2 : float; (* per flip-flop bit *)
  dff_leak_nw : float; (* per flip-flop bit *)
  dff_energy_fj : float; (* per bit per clock, incl. clock tree share *)
  clock_skew_ns : float; (* margin charged to every register-to-register path *)
}

let default_65nm =
  {
    name = "generic-65nm-lp";
    gate_delay_ns = 0.026;
    gate_area_um2 = 2.9;
    gate_leak_nw = 14.0;
    gate_energy_fj = 4.2;
    dff_clk_to_q_ns = 0.15;
    dff_setup_ns = 0.08;
    dff_area_um2 = 5.4;
    dff_leak_nw = 22.0;
    dff_energy_fj = 22.0;
    clock_skew_ns = 0.05;
  }

(* Delay through a combinational cell at a given width. *)
let comb_delay_ns t op ~width =
  float_of_int (Ggpu_hw.Op.levels op ~width) *. t.gate_delay_ns

(* Average switching energy per cycle for a combinational cell. *)
let comb_energy_fj t op ~width =
  float_of_int (Ggpu_hw.Op.gates op ~width)
  *. t.gate_energy_fj
  *. Ggpu_hw.Op.default_activity op

let pp fmt t = Format.fprintf fmt "stdcell:%s" t.name
