(* Power estimation: leakage (frequency-independent) and dynamic power
   at a given clock, from per-cell energies and default activity
   factors.  Macros are charged one access per cycle (a busy GPU keeps
   its memories hot), flip-flops their clock-tree share every cycle. *)

open Ggpu_hw
open Ggpu_tech

type t = {
  leakage_mw : float;
  dynamic_w : float;
  total_w : float;
}

let macro_activity = 1.0

let leakage_mw tech netlist =
  let nw =
    Netlist.fold_cells netlist ~init:0.0 ~f:(fun acc cell ->
        match Cell.kind cell with
        | Cell.Dff ->
            acc
            +. float_of_int (Cell.ff_bits cell)
               *. tech.Tech.stdcell.Stdcell.dff_leak_nw
        | Cell.Comb _ ->
            acc
            +. float_of_int (Cell.comb_gates cell)
               *. tech.Tech.stdcell.Stdcell.gate_leak_nw
        | Cell.Macro spec ->
            acc
            +. (Memlib.query tech.Tech.memory spec).Memlib.leak_nw
               *. float_of_int (Cell.count cell))
  in
  nw /. 1.0e6

(* Energy per clock cycle, in picojoules. *)
let energy_per_cycle_pj tech netlist =
  Netlist.fold_cells netlist ~init:0.0 ~f:(fun acc cell ->
      match Cell.kind cell with
      | Cell.Dff ->
          acc
          +. float_of_int (Cell.ff_bits cell)
             *. tech.Tech.stdcell.Stdcell.dff_energy_fj /. 1000.0
      | Cell.Comb op ->
          acc
          +. Stdcell.comb_energy_fj tech.Tech.stdcell op
               ~width:(Cell.output_width cell)
             *. float_of_int (Cell.count cell)
             /. 1000.0
      | Cell.Macro spec ->
          acc
          +. (Memlib.query tech.Tech.memory spec).Memlib.read_energy_pj
             *. macro_activity
             *. float_of_int (Cell.count cell))

let of_netlist tech netlist ~freq_mhz =
  let leakage_mw = leakage_mw tech netlist in
  let dynamic_w =
    energy_per_cycle_pj tech netlist *. freq_mhz *. 1.0e6 /. 1.0e12
  in
  { leakage_mw; dynamic_w; total_w = dynamic_w +. (leakage_mw /. 1000.0) }
