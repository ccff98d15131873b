(* Area accounting.

   Memory area comes from the memory-compiler model per macro; logic
   area from gate/flip-flop counts times cell footprints, inflated by a
   placement-utilisation factor (routing, clock tree, filler cells). *)

open Ggpu_hw
open Ggpu_tech

type t = {
  total_mm2 : float;
  memory_mm2 : float;
  logic_mm2 : float;
}

let um2_to_mm2 v = v /. 1.0e6

(* Standard-cell rows are placed at ~70% utilisation in the paper's CU
   and GMC partitions; the inverse shows up as area overhead. *)
let utilisation = 0.70

let macro_area_um2 tech cell =
  match Cell.macro_spec cell with
  | Some spec ->
      (Memlib.query tech.Tech.memory spec).Memlib.area_um2
      *. float_of_int (Cell.count cell)
  | None -> 0.0

(* Logic footprint of a flip-flop or combinational cell; 0 for a macro. *)
let cell_um2 tech cell =
  match Cell.kind cell with
  | Cell.Dff ->
      float_of_int (Cell.ff_bits cell) *. tech.Tech.stdcell.Stdcell.dff_area_um2
  | Cell.Comb _ ->
      float_of_int (Cell.comb_gates cell)
      *. tech.Tech.stdcell.Stdcell.gate_area_um2
  | Cell.Macro _ -> 0.0

let of_um2 ~memory_um2 ~cell_um2 =
  let logic_um2 = cell_um2 /. utilisation in
  {
    total_mm2 = um2_to_mm2 (memory_um2 +. logic_um2);
    memory_mm2 = um2_to_mm2 memory_um2;
    logic_mm2 = um2_to_mm2 logic_um2;
  }

let of_netlist tech netlist =
  let memory_um2 =
    Netlist.fold_cells netlist ~init:0.0 ~f:(fun acc cell ->
        acc +. macro_area_um2 tech cell)
  in
  let cell_um2 =
    Netlist.fold_cells netlist ~init:0.0 ~f:(fun acc cell ->
        acc +. cell_um2 tech cell)
  in
  of_um2 ~memory_um2 ~cell_um2

(* Region-level breakdown used by the floorplanner, every region from one
   pass over the cells.  A region's two sums receive its cells' terms in
   iteration order, exactly the additions a fold filtered to that region
   makes, so each region's floats do not depend on how many regions
   share the pass. *)
let by_region tech netlist =
  let sums = Hashtbl.create 16 in
  Netlist.iter_cells netlist (fun cell ->
      let region = Cell.region cell in
      let memory_um2, cell_sum =
        match Hashtbl.find_opt sums region with
        | Some s -> s
        | None ->
            let s = (ref 0.0, ref 0.0) in
            Hashtbl.add sums region s;
            s
      in
      if Cell.is_macro cell then
        memory_um2 := !memory_um2 +. macro_area_um2 tech cell
      else cell_sum := !cell_sum +. cell_um2 tech cell);
  fun region ->
    match Hashtbl.find_opt sums region with
    | Some (memory_um2, cell_sum) ->
        of_um2 ~memory_um2:!memory_um2 ~cell_um2:!cell_sum
    | None -> of_um2 ~memory_um2:0.0 ~cell_um2:0.0
