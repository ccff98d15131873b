(* Logic-synthesis report: the Table I row for one G-GPU version. *)

open Ggpu_hw

type row = {
  num_cus : int;
  freq_mhz : int;
  total_area_mm2 : float;
  memory_area_mm2 : float;
  ff : int;
  comb : int;
  memories : int;
  leakage_mw : float;
  dynamic_w : float;
  total_w : float;
  fmax_mhz : float;
  pipeline_stages : int;
}

let of_netlist tech ~timing netlist ~num_cus ~freq_mhz =
  let stats = Netlist.stats netlist in
  let area = Area.of_netlist tech netlist in
  let power = Power.of_netlist tech netlist ~freq_mhz:(float_of_int freq_mhz) in
  {
    num_cus;
    freq_mhz;
    total_area_mm2 = area.Area.total_mm2;
    memory_area_mm2 = area.Area.memory_mm2;
    ff = stats.Netlist.ff_bits;
    comb = stats.Netlist.comb_gates;
    memories = stats.Netlist.macro_count;
    leakage_mw = power.Power.leakage_mw;
    dynamic_w = power.Power.dynamic_w;
    total_w = power.Power.total_w;
    fmax_mhz = timing.Timing.fmax_mhz;
    pipeline_stages = Netlist.pipeline_regs netlist;
  }

let header =
  Printf.sprintf "%-12s %-11s %-12s %8s %8s %8s %9s %9s %9s"
    "#CU & Freq." "Area (mm2)" "Mem (mm2)" "#FF" "#Comb." "#Memory"
    "Leak (mW)" "Dyn (W)" "Total (W)"

let row_to_string r =
  Printf.sprintf "%d@%dMHz %11.2f %12.2f %8d %8d %8d %9.2f %9.2f %9.2f"
    r.num_cus r.freq_mhz r.total_area_mm2 r.memory_area_mm2 r.ff r.comb
    r.memories r.leakage_mw r.dynamic_w r.total_w
