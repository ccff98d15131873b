(* A complete technology: standard cells, memory compiler, wires, metal
   stack.  The planner is agnostic of the values here - as the paper puts
   it, the optimisation map "is agnostic of the technology used" and only
   consumes memory delays and cell characteristics. *)

type t = {
  name : string;
  stdcell : Stdcell.t;
  memory : Memlib.t;
  wire : Wire.t;
  metal : Metal.t;
  supply_v : float;
}

let default_65nm =
  {
    name = "generic-65nm";
    stdcell = Stdcell.default_65nm;
    memory = Memlib.default_65nm;
    wire = Wire.default_65nm;
    metal = Metal.default_9layer;
    supply_v = 1.2;
  }

(* A coarse 28 nm-class scaling of the default technology, used by tests
   and the custom-technology example to show the flow is retargetable. *)
let scaled_28nm =
  let s = Stdcell.default_65nm in
  let m = Memlib.default_65nm in
  {
    name = "generic-28nm";
    stdcell =
      {
        s with
        Stdcell.name = "stdcell-28nm";
        gate_delay_ns = s.Stdcell.gate_delay_ns *. 0.45;
        gate_area_um2 = s.Stdcell.gate_area_um2 *. 0.22;
        gate_leak_nw = s.Stdcell.gate_leak_nw *. 1.6;
        gate_energy_fj = s.Stdcell.gate_energy_fj *. 0.35;
        dff_clk_to_q_ns = s.Stdcell.dff_clk_to_q_ns *. 0.5;
        dff_setup_ns = s.Stdcell.dff_setup_ns *. 0.5;
        dff_area_um2 = s.Stdcell.dff_area_um2 *. 0.22;
        dff_energy_fj = s.Stdcell.dff_energy_fj *. 0.35;
        clock_skew_ns = s.Stdcell.clock_skew_ns *. 0.6;
      };
    memory =
      {
        m with
        Memlib.name = "sram-28nm";
        delay_base_ns = m.Memlib.delay_base_ns *. 0.5;
        delay_log2w_ns = m.Memlib.delay_log2w_ns *. 0.5;
        delay_bits_ns = m.Memlib.delay_bits_ns *. 0.5;
        delay_dual_penalty_ns = m.Memlib.delay_dual_penalty_ns *. 0.5;
        setup_base_ns = m.Memlib.setup_base_ns *. 0.5;
        bit_area_um2 = m.Memlib.bit_area_um2 *. 0.25;
        periphery_um2 = m.Memlib.periphery_um2 *. 0.35;
        periphery_per_row_um2 = m.Memlib.periphery_per_row_um2 *. 0.35;
        read_energy_base_pj = m.Memlib.read_energy_base_pj *. 0.4;
        read_energy_per_bit_pj = m.Memlib.read_energy_per_bit_pj *. 0.4;
      };
    wire =
      {
        Wire.buffered_delay_ns_per_mm =
          Wire.default_65nm.Wire.buffered_delay_ns_per_mm *. 1.4;
        local_detour_factor = Wire.default_65nm.Wire.local_detour_factor;
      };
    metal = Metal.default_9layer;
    supply_v = 0.9;
  }

let by_name = [ ("65nm", default_65nm); ("28nm", scaled_28nm) ]

let pp fmt t = Format.fprintf fmt "tech:%s" t.name
