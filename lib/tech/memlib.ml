(* SRAM memory-compiler model.

   Given a macro geometry (words x bits, single/dual port) the model
   returns timing, area and power attributes, mimicking the datasheet
   views a commercial 65 nm memory compiler produces.

   Two properties matter for reproducing the paper's design-space
   exploration and are guaranteed by construction:

   - access delay grows superlinearly with the word count (long bitlines),
     so dividing a macro by words genuinely buys timing;
   - per-bit area has a fixed periphery overhead that grows as macros
     shrink, so two macros of M/2 x N are larger and leakier than one
     macro of M x N (the paper's area/power cost of division). *)

type attrs = {
  clk_to_q_ns : float; (* read clock-to-data-out *)
  setup_ns : float; (* address/data setup at the write port *)
  area_um2 : float;
  leak_nw : float;
  read_energy_pj : float; (* energy per read access *)
  write_energy_pj : float;
}

type t = {
  name : string;
  (* timing: clk_to_q = base + k_log2w * (log2 words)^2 + k_bits * bits *)
  delay_base_ns : float;
  delay_log2w_ns : float;
  delay_bits_ns : float;
  delay_dual_penalty_ns : float;
  setup_base_ns : float;
  (* area: bits * bit_area * port_factor + periphery *)
  bit_area_um2 : float;
  dual_port_area_factor : float;
  periphery_um2 : float; (* fixed per-macro overhead *)
  periphery_per_row_um2 : float; (* sense amps / column periphery *)
  (* power *)
  bit_leak_nw : float;
  periphery_leak_nw : float;
  read_energy_base_pj : float;
  read_energy_per_bit_pj : float;
  supports_single_port : bool;
}

let default_65nm =
  {
    name = "sram-65nm-lp";
    delay_base_ns = 0.16;
    delay_log2w_ns = 0.0088;
    delay_bits_ns = 0.0016;
    delay_dual_penalty_ns = 0.06;
    setup_base_ns = 0.10;
    bit_area_um2 = 0.62;
    dual_port_area_factor = 1.72;
    periphery_um2 = 4200.0;
    periphery_per_row_um2 = 11.0;
    bit_leak_nw = 0.0105;
    periphery_leak_nw = 2600.0;
    read_energy_base_pj = 4.5;
    read_energy_per_bit_pj = 0.24;
    supports_single_port = false;
  }

exception Unsupported of string

let float = float_of_int

let query t spec =
  let open Ggpu_hw in
  (match Macro_spec.ports spec with
  | Macro_spec.Single_port when not t.supports_single_port ->
      raise
        (Unsupported
           (Printf.sprintf
              "%s: single-port macros not yet supported (paper future work): %s"
              t.name
              (Macro_spec.to_string spec)))
  | Macro_spec.Single_port | Macro_spec.Dual_port -> ());
  let words = Macro_spec.words spec and bits = Macro_spec.bits spec in
  let log2w = float (Op.clog2 words) in
  let dual = Macro_spec.is_dual_port spec in
  let clk_to_q_ns =
    t.delay_base_ns
    +. (t.delay_log2w_ns *. log2w *. log2w)
    +. (t.delay_bits_ns *. float bits)
    +. (if dual then t.delay_dual_penalty_ns else 0.0)
  in
  let setup_ns = t.setup_base_ns in
  let port_factor = if dual then t.dual_port_area_factor else 1.0 in
  let core_area =
    float (Macro_spec.total_bits spec) *. t.bit_area_um2 *. port_factor
  in
  let periphery =
    t.periphery_um2 +. (t.periphery_per_row_um2 *. float words)
  in
  let area_um2 = core_area +. periphery in
  let leak_nw =
    (float (Macro_spec.total_bits spec) *. t.bit_leak_nw)
    +. (t.periphery_leak_nw *. (area_um2 /. (area_um2 +. 1.0)))
  in
  let read_energy_pj =
    t.read_energy_base_pj
    +. (t.read_energy_per_bit_pj *. float bits)
    +. (0.0016 *. float words) (* bitline precharge grows with depth *)
  in
  {
    clk_to_q_ns;
    setup_ns;
    area_um2;
    leak_nw;
    read_energy_pj;
    write_energy_pj = read_energy_pj *. 1.12;
  }

(* Enumerate legal bank counts for a word split (powers of two keeping the
   result in compiler range). *)
let legal_word_splits spec =
  let open Ggpu_hw in
  let words = Macro_spec.words spec in
  let rec go banks acc =
    if words / banks < Macro_spec.min_words || words mod banks <> 0 then
      List.rev acc
    else go (banks * 2) (banks :: acc)
  in
  go 2 []

let legal_bit_splits spec =
  let open Ggpu_hw in
  let bits = Macro_spec.bits spec in
  let rec go slices acc =
    if slices > bits || bits / slices < Macro_spec.min_bits then List.rev acc
    else if bits mod slices = 0 then go (slices * 2) (slices :: acc)
    else go (slices * 2) acc
  in
  go 2 []
