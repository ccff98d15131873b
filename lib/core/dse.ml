(* Design-space exploration: the heart of GPUPlanner.

   Iterates static timing analysis against a target period and fixes the
   worst violating path with the paper's two strategies:

   - if the path launches from an SRAM macro, *divide the memory*: try
     every legal word split (2/4/8 banks) and bit split (2/4 slices),
     predict the new path delay analytically, and apply the
     smallest-area candidate that meets timing;
   - otherwise (or when no division can meet timing), *insert a pipeline
     register on demand* at the balanced cut of the path.

   Every fix is recorded as a {!Map.edit}, so the resulting map can be
   replayed on a fresh netlist or handed to a designer, exactly like the
   paper's "dynamic spreadsheet". *)

open Ggpu_hw
open Ggpu_tech
open Ggpu_synth

exception Cannot_meet of { period_ns : float; best_ns : float; detail : string }

(* Strategy restriction, used by the ablation benches: the full planner
   combines memory division and on-demand pipelining; the restricted
   modes show what each buys on its own. *)
type strategy = Full | Division_only | Pipeline_only

(* Where the exploration spent its time.  [sta_wall_s] covers the
   engine's initial full computation and every (incremental) analysis;
   [edit_wall_s] covers candidate prediction and netlist rewriting.
   The fields are read out of a per-exploration {!Ggpu_obs.Metrics}
   registry (integer nanoseconds), so the record survives as the bench
   and CLI interface while the measurement substrate is shared with the
   rest of the flow. *)
type perf = {
  sta_calls : int;
  sta_full : int; (* whole-graph recomputations *)
  sta_incremental : int; (* journal-driven cone updates *)
  sta_wall_s : float;
  edit_wall_s : float;
  total_wall_s : float;
}

type result = {
  map : Map.t;
  iterations : int;
  final : Timing.report;
  engine : Timing.engine; (* synced at the final netlist *)
  perf : perf;
}

let pp_perf fmt p =
  Format.fprintf fmt
    "%d STA calls (%d full, %d incremental) | sta %.3fs edits %.3fs total %.3fs"
    p.sta_calls p.sta_full p.sta_incremental p.sta_wall_s p.edit_wall_s
    p.total_wall_s

(* Predicted delay of the read path after dividing [spec]. *)
let predicted_after_split tech ~path_delay ~old_clk2q candidate_spec ~mux_ways =
  let attrs = Memlib.query tech.Tech.memory candidate_spec in
  let extra_levels =
    if mux_ways > 0 then Op.levels (Op.Mux mux_ways) ~width:1
    else 1 (* bit-slice concat buffer *)
  in
  path_delay -. old_clk2q +. attrs.Memlib.clk_to_q_ns
  +. (float_of_int extra_levels *. tech.Tech.stdcell.Stdcell.gate_delay_ns)

type candidate = {
  edit : Map.edit;
  predicted_ns : float;
  area_cost_um2 : float;
}

let split_candidates tech cell ~path_delay =
  let spec =
    match Cell.macro_spec cell with Some s -> s | None -> assert false
  in
  let old_attrs = Memlib.query tech.Tech.memory spec in
  let count = float_of_int (Cell.count cell) in
  let word_candidates =
    List.filter_map
      (fun banks ->
        if banks > 8 then None
        else
          let bank_spec = Macro_spec.split_words spec ~banks in
          let bank_attrs = Memlib.query tech.Tech.memory bank_spec in
          Some
            {
              edit = Map.Split_words { cell_name = Cell.name cell; banks };
              predicted_ns =
                predicted_after_split tech ~path_delay
                  ~old_clk2q:old_attrs.Memlib.clk_to_q_ns bank_spec
                  ~mux_ways:banks;
              area_cost_um2 =
                count
                *. ((float_of_int banks *. bank_attrs.Memlib.area_um2)
                   -. old_attrs.Memlib.area_um2);
            })
      (Memlib.legal_word_splits spec)
  in
  let bit_candidates =
    List.filter_map
      (fun slices ->
        if slices > 4 then None
        else
          let slice_spec = Macro_spec.split_bits spec ~slices in
          let slice_attrs = Memlib.query tech.Tech.memory slice_spec in
          Some
            {
              edit = Map.Split_bits { cell_name = Cell.name cell; slices };
              predicted_ns =
                predicted_after_split tech ~path_delay
                  ~old_clk2q:old_attrs.Memlib.clk_to_q_ns slice_spec
                  ~mux_ways:0;
              area_cost_um2 =
                count
                *. ((float_of_int slices *. slice_attrs.Memlib.area_um2)
                   -. old_attrs.Memlib.area_um2);
            })
      (Memlib.legal_bit_splits spec)
  in
  word_candidates @ bit_candidates

(* The net at the balanced cut of a violating path: walk the
   combinational cells accumulating delay and cut after the cell where
   the running total first exceeds half the combinational delay. *)
let balanced_cut tech (path : Timing.path) =
  let comb_total =
    List.fold_left
      (fun acc cell -> acc +. Timing.cell_delay tech cell)
      0.0 path.Timing.through
  in
  let rec walk cells acc =
    match cells with
    | [] -> None
    | [ last ] -> Some last (* cut at the last cell's output *)
    | cell :: rest ->
        let acc = acc +. Timing.cell_delay tech cell in
        if acc >= comb_total /. 2.0 then Some cell else walk rest acc
  in
  match walk path.Timing.through 0.0 with
  | None -> None
  | Some cell -> (
      match Cell.outputs cell with net :: _ -> Some net | [] -> None)

(* Apply a division to the macro the worst path launches from.  The
   report holds that macro already, so it is fetched by id instead of
   replaying the edit by name, which would scan every cell. *)
let divide netlist macro edit =
  let cell = Netlist.find_cell netlist (Cell.id macro) in
  match edit with
  | Map.Split_words { banks; _ } -> Netlist.split_macro_words netlist cell ~banks
  | Map.Split_bits { slices; _ } -> Netlist.split_macro_bits netlist cell ~slices
  | Map.Pipeline _ -> assert false (* split candidates are divisions *)

let pipeline_edit tech netlist (path : Timing.path) =
  let net =
    match balanced_cut tech path with
    | Some net -> Some net
    | None -> (
        (* no combinational cells: register straight after the launch *)
        match Cell.outputs path.Timing.launch with
        | net :: _ -> Some net
        | [] -> None)
  in
  match net with
  | None -> None
  | Some net ->
      ignore (Netlist.insert_pipeline netlist net);
      Some (Map.Pipeline { net_name = Net.name net })

let edit_kind = function
  | Map.Split_words _ -> "split_words"
  | Map.Split_bits _ -> "split_bits"
  | Map.Pipeline _ -> "pipeline"

(* Edits one exploration may apply before it gives up. *)
let max_iterations = 400

let explore ?(strategy = Full) tech netlist ~num_cus ~period_ns =
  Ggpu_obs.Trace.with_span "dse.explore"
    ~args:
      [
        ("cus", string_of_int num_cus);
        ("period_ns", Printf.sprintf "%.3f" period_ns);
      ]
  @@ fun () ->
  let reg = Ggpu_obs.Metrics.create () in
  let sta_ns = Ggpu_obs.Metrics.counter reg "sta_ns" in
  let edit_ns = Ggpu_obs.Metrics.counter reg "edit_ns" in
  let t_start = Ggpu_obs.Metrics.now_ns () in
  let sta_calls = ref 0 in
  let timed c f = Ggpu_obs.Metrics.time_counter c f in
  let engine = timed sta_ns (fun () -> Timing.make_engine tech netlist) in
  let analyse () =
    Stdlib.incr sta_calls;
    timed sta_ns (fun () -> Timing.engine_analyse engine)
  in
  let edits = ref [] in
  let iterations = ref 0 in
  let rec loop () =
    let report = analyse () in
    if Timing.meets report ~period_ns then (report, List.rev !edits)
    else if !iterations >= max_iterations then
      raise
        (Cannot_meet
           {
             period_ns;
             best_ns = report.Timing.max_delay_ns;
             detail = "iteration limit reached";
           })
    else begin
      incr iterations;
      let path = report.Timing.worst in
      (* Division pays while the macro's access time dominates the
         period; once the macro is fast enough, the remaining slack
         problem is logic depth and a pipeline register is the right
         (and cheaper) fix - this is the paper's staging: pure division
         at 590 MHz, division + on-demand pipelining at 667 MHz. *)
      let macro_dominates cell =
        match Cell.macro_spec cell with
        | Some spec ->
            (Memlib.query tech.Tech.memory spec).Memlib.clk_to_q_ns
            > 0.7 *. period_ns
        | None -> false
      in
      let pipeline_allowed =
        match strategy with Full | Pipeline_only -> true | Division_only -> false
      in
      let division_allowed =
        match strategy with Full | Division_only -> true | Pipeline_only -> false
      in
      let applied =
        timed edit_ns @@ fun () ->
        Ggpu_obs.Trace.with_span "dse.edit" @@ fun () ->
        if
          division_allowed && Cell.is_macro path.Timing.launch
          && macro_dominates path.Timing.launch
        then begin
          let candidates =
            split_candidates tech path.Timing.launch
              ~path_delay:path.Timing.delay_ns
          in
          let meeting =
            List.filter (fun c -> c.predicted_ns <= period_ns) candidates
            |> List.sort (fun a b ->
                   Float.compare a.area_cost_um2 b.area_cost_um2)
          in
          match meeting with
          | best :: _ ->
              divide netlist path.Timing.launch best.edit;
              Some best.edit
          | [] -> (
              (* no single division meets: take the best improvement and
                 iterate, or fall back to a pipeline *)
              let improving =
                List.filter
                  (fun c -> c.predicted_ns < path.Timing.delay_ns -. 1e-4)
                  candidates
                |> List.sort (fun a b -> Float.compare a.predicted_ns b.predicted_ns)
              in
              match improving with
              | best :: _ ->
                  divide netlist path.Timing.launch best.edit;
                  Some best.edit
              | [] ->
                  if pipeline_allowed then pipeline_edit tech netlist path
                  else None)
        end
        else if pipeline_allowed then pipeline_edit tech netlist path
        else None
      in
      match applied with
      | Some edit ->
          Ggpu_obs.Metrics.count ("dse.edit." ^ edit_kind edit) 1;
          edits := edit :: !edits;
          loop ()
      | None ->
          raise
            (Cannot_meet
               {
                 period_ns;
                 best_ns = path.Timing.delay_ns;
                 detail =
                   Printf.sprintf "unfixable path %s"
                     (Format.asprintf "%a" Timing.pp_path path);
               })
    end
  in
  let final, edit_list = loop () in
  let stats = Timing.engine_stats engine in
  let sta_full = stats.Timing.full_recomputes
  and sta_incremental = stats.Timing.incremental_updates in
  Ggpu_obs.Metrics.count "dse.explorations" 1;
  Ggpu_obs.Metrics.count "dse.iterations" !iterations;
  Ggpu_obs.Metrics.count "dse.sta_calls" !sta_calls;
  Ggpu_obs.Metrics.count "dse.sta_full" sta_full;
  Ggpu_obs.Metrics.count "dse.sta_incremental" sta_incremental;
  {
    map = { Map.num_cus; target_period_ns = period_ns; edits = edit_list };
    iterations = !iterations;
    final;
    engine;
    perf =
      {
        sta_calls = !sta_calls;
        sta_full;
        sta_incremental;
        sta_wall_s =
          float_of_int (Ggpu_obs.Metrics.counter_value sta_ns) /. 1e9;
        edit_wall_s =
          float_of_int (Ggpu_obs.Metrics.counter_value edit_ns) /. 1e9;
        total_wall_s =
          float_of_int (Ggpu_obs.Metrics.now_ns () - t_start) /. 1e9;
      };
  }
