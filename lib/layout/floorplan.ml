(* Partitioned floorplan.

   The paper breaks the design into three partition types: compute-unit
   partitions (one per CU, placed and routed once, then cloned), the
   general memory controller (GMC), and the top.  CU and GMC are packed
   at 70% placement density; the top level, holding the glue between
   partitions, is deliberately sparse at 30%.

   Geometry: the GMC sits in a central column with the top logic above
   and below it; CU partitions stack in two columns, left and right of
   the centre.  This mirrors the published layouts (Figs. 3 and 4) and
   produces the long GMC-to-peripheral-CU routes that derate the 8-CU
   design. *)

open Ggpu_synth

type rect = { x : float; y : float; w : float; h : float } (* mm *)

type partition = {
  part_name : string; (* "cu0".."cu7", "gmc", "top" *)
  rect : rect;
  area : Area.t;
  macro_count : int;
  divided_macros : int; (* banks/slices created by the planner *)
}

type t = {
  design : string;
  die : rect;
  partitions : partition list;
  num_cus : int;
}

let centre r = (r.x +. (r.w /. 2.0), r.y +. (r.h /. 2.0))

let region_centre t region =
  List.find_map
    (fun p ->
      if String.equal p.part_name region then Some (centre p.rect) else None)
    t.partitions

(* Manhattan distance between two regions' centres, in mm; 0 when either
   has no partition. *)
let distance t ~from_ ~to_ =
  match (region_centre t from_, region_centre t to_) with
  | Some (x1, y1), Some (x2, y2) -> abs_float (x1 -. x2) +. abs_float (y1 -. y2)
  | _ -> 0.0

let cu_density = 0.70
let top_density = 0.30

(* Macro instances and planner-divided banks/slices of every region,
   from one pass over the cells. *)
let macros_by_region netlist =
  let counts = Hashtbl.create 16 in
  Ggpu_hw.Netlist.iter_cells netlist (fun cell ->
      if Ggpu_hw.Cell.is_macro cell then begin
        let region = Ggpu_hw.Cell.region cell in
        let total, divided =
          match Hashtbl.find_opt counts region with
          | Some c -> c
          | None ->
              let c = (ref 0, ref 0) in
              Hashtbl.add counts region c;
              c
        in
        let n = Ggpu_hw.Cell.count cell in
        let name = Ggpu_hw.Cell.name cell in
        let is_divided =
          (* banks and slices carry the transform's naming *)
          let has sub =
            let rec find i =
              i + String.length sub <= String.length name
              && (String.equal (String.sub name i (String.length sub)) sub
                 || find (i + 1))
            in
            find 0
          in
          has "/bank" || has "/slice"
        in
        total := !total + n;
        if is_divided then divided := !divided + n
      end);
  fun region ->
    match Hashtbl.find_opt counts region with
    | Some (total, divided) -> (!total, !divided)
    | None -> (0, 0)

(* Footprint of a region in mm^2 given its placed area and density. *)
let footprint area ~density =
  (area.Area.logic_mm2 /. density) +. area.Area.memory_mm2

let build tech netlist ~num_cus =
  let cu_regions = List.init num_cus (fun i -> Printf.sprintf "cu%d" i) in
  let area_of = Area.by_region tech netlist in
  let cu_areas = List.map area_of cu_regions in
  let gmc_area = area_of "gmc" in
  let top_area = area_of "top" in
  let cu_fp =
    match cu_areas with
    | a :: _ -> footprint a ~density:cu_density
    | [] -> invalid_arg "Floorplan.build: no CUs"
  in
  let gmc_fp = footprint gmc_area ~density:cu_density in
  let top_fp = footprint top_area ~density:top_density in
  (* two CU columns flanking the central GMC+top column *)
  let rows = max 1 ((num_cus + 1) / 2) in
  let cu_h = sqrt (cu_fp /. 1.6) in
  let cu_w = cu_fp /. cu_h in
  let column_h = float_of_int rows *. cu_h in
  let centre_w = (gmc_fp +. top_fp) /. column_h in
  let left_cus = (num_cus + 1) / 2 in
  let die_w =
    (if num_cus > 1 then 2.0 *. cu_w else cu_w) +. centre_w
  in
  let die_h = column_h in
  let cu_rect i =
    if i < left_cus then
      { x = 0.0; y = float_of_int i *. cu_h; w = cu_w; h = cu_h }
    else
      {
        x = cu_w +. centre_w;
        y = float_of_int (i - left_cus) *. cu_h;
        w = cu_w;
        h = cu_h;
      }
  in
  (* the GMC at the centre of the column *)
  let gmc_h = gmc_fp /. centre_w in
  let gmc_rect =
    { x = cu_w; y = (die_h /. 2.0) -. (gmc_h /. 2.0); w = centre_w; h = gmc_h }
  in
  let top_rect = { x = cu_w; y = 0.0; w = centre_w; h = die_h } in
  let macros_of = macros_by_region netlist in
  let part name rect area region =
    let macro_count, divided_macros = macros_of region in
    { part_name = name; rect; area; macro_count; divided_macros }
  in
  let partitions =
    List.mapi
      (fun i region -> part region (cu_rect i) (List.nth cu_areas i) region)
      cu_regions
    @ [ part "gmc" gmc_rect gmc_area "gmc"; part "top" top_rect top_area "top" ]
  in
  {
    design = Ggpu_hw.Netlist.name netlist;
    die = { x = 0.0; y = 0.0; w = die_w; h = die_h };
    partitions;
    num_cus;
  }

let die_area_mm2 t = t.die.w *. t.die.h

(* Worst CU-to-GMC distance: the length of the paper's problematic
   routes in the 8-CU floorplan. *)
let worst_cu_gmc_distance_mm t =
  List.fold_left
    (fun acc i ->
      max acc (distance t ~from_:(Printf.sprintf "cu%d" i) ~to_:"gmc"))
    0.0
    (List.init t.num_cus (fun i -> i))
