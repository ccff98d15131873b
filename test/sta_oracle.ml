(* The full-sweep static timing analysis: the reference the incremental
   CSR engine ({!Ggpu_synth.Timing.make_engine}) is tested against.

   Arrival, worst predecessor and launch register of every net are
   filled into hashtables in topological order, then one endpoint scan
   in ascending cell id picks the worst register-to-register path.  It
   shares only the delay models ({!Timing.launch_delay},
   {!Timing.setup_time}, {!Timing.cell_delay}) and the result types with
   the engine, and every tie-break is the one the engine mirrors:
   first maximum over input pins, ascending-id endpoint scan, strictly
   greater replacement. *)

open Ggpu_hw
open Ggpu_tech
open Ggpu_synth

(* Worst input arrival and resulting output arrival of a comb cell, as a
   pure function of the current arrival table. *)
let eval_cell tech (arrivals : Timing.arrivals) cell =
  let arrival net =
    Option.value ~default:0.0
      (Hashtbl.find_opt arrivals.Timing.net_arrival (Net.id net))
  in
  let worst_in =
    List.fold_left
      (fun acc net ->
        let t = arrival net in
        match acc with
        | Some (best, _) when best >= t -> acc
        | _ -> Some (t, Some net))
      None (Cell.inputs cell)
  in
  let in_time, in_net =
    match worst_in with Some (t, net) -> (t, net) | None -> (0.0, None)
  in
  let launch =
    match in_net with
    | None -> None
    | Some prev -> Hashtbl.find_opt arrivals.Timing.net_launch (Net.id prev)
  in
  (in_time +. Timing.cell_delay tech cell, in_net, launch)

(* Arrival time and worst predecessor for every net driven by the
   combinational subgraph.  Sequential outputs seed with clk-to-q;
   [net_launch] holds the sequential cell the worst path into each net
   launches from (absent for primary-input-rooted cones). *)
let compute_arrivals tech netlist : Timing.arrivals =
  let size = max 64 (Netlist.net_count netlist) in
  let arrivals =
    {
      Timing.net_arrival = Hashtbl.create size;
      net_pred = Hashtbl.create size;
      net_launch = Hashtbl.create size;
    }
  in
  (* seed: sequential outputs *)
  Netlist.iter_cells netlist (fun cell ->
      if Cell.is_sequential cell then begin
        let t = Timing.launch_delay tech cell in
        List.iter
          (fun net ->
            Hashtbl.replace arrivals.Timing.net_arrival (Net.id net) t;
            Hashtbl.replace arrivals.Timing.net_launch (Net.id net) cell)
          (Cell.outputs cell)
      end);
  (* propagate in topological order *)
  List.iter
    (fun cell ->
      let out_time, in_net, launch = eval_cell tech arrivals cell in
      List.iter
        (fun net ->
          Hashtbl.replace arrivals.Timing.net_arrival (Net.id net) out_time;
          Hashtbl.replace arrivals.Timing.net_pred (Net.id net) (cell, in_net);
          match launch with
          | Some l -> Hashtbl.replace arrivals.Timing.net_launch (Net.id net) l
          | None -> Hashtbl.remove arrivals.Timing.net_launch (Net.id net))
        (Cell.outputs cell))
    (Topo.order netlist);
  arrivals

(* Walk predecessor pointers from an endpoint input net back to the
   launching sequential cell. *)
let trace_path netlist (arrivals : Timing.arrivals) ~endpoint_net ~capture
    tech =
  let rec walk net acc =
    match Hashtbl.find_opt arrivals.Timing.net_pred (Net.id net) with
    | Some (cell, Some prev) -> walk prev (cell :: acc)
    | Some (cell, None) -> (cell :: acc, None)
    | None -> (acc, Netlist.driver_of netlist net)
  in
  let through, launch_opt = walk endpoint_net [] in
  match launch_opt with
  | Some launch when Cell.is_sequential launch ->
      let arrival =
        Option.value ~default:0.0
          (Hashtbl.find_opt arrivals.Timing.net_arrival (Net.id endpoint_net))
      in
      let delay_ns =
        arrival +. Timing.setup_time tech capture
        +. tech.Tech.stdcell.Stdcell.clock_skew_ns
      in
      Some { Timing.launch; capture; through; delay_ns }
  | Some _ | None -> None (* path from a primary input; not a register path *)

(* Worst register-to-register path over an arrival table.  Endpoints are
   scanned in ascending cell-id order, and only endpoint nets a launch
   register reaches are counted: paths from primary inputs carry no
   [net_launch] entry. *)
let report_of_arrivals tech netlist (arrivals : Timing.arrivals) =
  let seq_cells =
    Netlist.fold_cells netlist ~init:[] ~f:(fun acc cell ->
        if Cell.is_sequential cell then cell :: acc else acc)
    |> List.sort (fun a b -> Int.compare (Cell.id a) (Cell.id b))
  in
  (* worst endpoint: (delay, endpoint net, capture cell) *)
  let worst = ref None in
  let endpoints = ref 0 in
  let skew = tech.Tech.stdcell.Stdcell.clock_skew_ns in
  List.iter
    (fun cell ->
      let setup = lazy (Timing.setup_time tech cell) in
      List.iter
        (fun net ->
          if Hashtbl.mem arrivals.Timing.net_launch (Net.id net) then begin
            incr endpoints;
            let arrival =
              Option.value ~default:0.0
                (Hashtbl.find_opt arrivals.Timing.net_arrival (Net.id net))
            in
            let delay_ns = arrival +. Lazy.force setup +. skew in
            match !worst with
            | Some (best, _, _) when best >= delay_ns -> ()
            | Some _ | None -> worst := Some (delay_ns, net, cell)
          end)
        (Cell.inputs cell))
    seq_cells;
  match !worst with
  | None -> raise Timing.No_paths
  | Some (_, endpoint_net, capture) -> (
      match trace_path netlist arrivals ~endpoint_net ~capture tech with
      | None -> raise Timing.No_paths (* the endpoint has a launch entry *)
      | Some worst ->
          {
            Timing.worst;
            max_delay_ns = worst.Timing.delay_ns;
            fmax_mhz = 1000.0 /. worst.Timing.delay_ns;
            endpoint_count = !endpoints;
          })

let analyse tech netlist =
  report_of_arrivals tech netlist (compute_arrivals tech netlist)
