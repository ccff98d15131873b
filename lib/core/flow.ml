(* The GPUPlanner push-button flow (the paper's Fig. 2): generate the
   RTL-level netlist, run the design-space exploration against the
   target period, perform logic synthesis reporting, then physical
   synthesis (floorplan, routing estimate, post-route timing) and the
   final specification check.  The result carries everything the
   benches need to regenerate Tables I and II and Figs. 3 and 4. *)

open Ggpu_tech
open Ggpu_synth
open Ggpu_layout

let log_src = Logs.Src.create "ggpu.flow" ~doc:"GPUPlanner flow"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Time one flow phase: a span for the trace, integer nanoseconds for
   the metrics, and the float seconds the [phases] lists always carried. *)
let obs_phase name f =
  Ggpu_obs.Trace.with_span ("flow." ^ name) @@ fun () ->
  let t0 = Ggpu_obs.Metrics.now_ns () in
  let v = f () in
  let elapsed_ns = max 0 (Ggpu_obs.Metrics.now_ns () - t0) in
  Ggpu_obs.Metrics.count ("flow." ^ name ^ "_ns") elapsed_ns;
  (v, float_of_int elapsed_ns /. 1e9)

type implementation = {
  spec : Spec.t;
  netlist : Ggpu_hw.Netlist.t;
  map : Map.t;
  logic_report : Report.row;
  floorplan : Floorplan.t;
  route : Route.t;
  post_timing : Timing_post.t;
  contention_derate : float; (* L2/AXI factor already in achieved_mhz *)
  achieved_mhz : float;
  spec_check : (unit, Spec.violation list) result;
  dse_perf : Dse.perf;
  phases : (string * float) list; (* per-phase wall-clock, flow order *)
}

type synthesis = {
  syn_netlist : Ggpu_hw.Netlist.t;
  syn_map : Map.t;
  syn_report : Report.row;
  syn_perf : Dse.perf;
  syn_phases : (string * float) list;
}

(* Logic synthesis only - enough for a Table I row - and the DSE result
   it came from.  [base] supplies a pre-elaborated netlist for the
   spec's CU count; it is copied, not mutated, so one base can serve
   several frequency targets. *)
let synthesise_dse ~tech ?base (spec : Spec.t) =
  Ggpu_obs.Trace.with_span "flow.synthesise"
    ~args:
      [
        ("cus", string_of_int spec.Spec.num_cus);
        ("freq_mhz", string_of_int spec.Spec.freq_mhz);
      ]
  @@ fun () ->
  let netlist, t_generate =
    obs_phase "generate" @@ fun () ->
    match base with
    | Some base -> Ggpu_hw.Netlist.copy base
    | None -> Ggpu_rtlgen.Generate.generate_cus ~num_cus:spec.Spec.num_cus
  in
  let dse, t_dse =
    obs_phase "dse" @@ fun () ->
    Dse.explore tech netlist ~num_cus:spec.Spec.num_cus
      ~period_ns:(Spec.period_ns spec)
  in
  let report, t_report =
    obs_phase "report" @@ fun () ->
    Report.of_netlist tech ~timing:dse.Dse.final netlist
      ~num_cus:spec.Spec.num_cus ~freq_mhz:spec.Spec.freq_mhz
  in
  ( {
      syn_netlist = netlist;
      syn_map = dse.Dse.map;
      syn_report = report;
      syn_perf = dse.Dse.perf;
      syn_phases =
        [ ("generate", t_generate); ("dse", t_dse); ("report", t_report) ];
    },
    dse )

let synthesise_timed ?(tech = Tech.default_65nm) ?base spec =
  fst (synthesise_dse ~tech ?base spec)

let synthesise ?tech spec =
  let s = synthesise_timed ?tech spec in
  (s.syn_netlist, s.syn_map, s.syn_report)

let base_macro_count ~num_cus =
  Ggpu_rtlgen.Arch_params.macro_count
    (Ggpu_rtlgen.Arch_params.default ~num_cus)

type placer = Columns | Analytic

(* Full RTL-to-layout implementation. *)
let implement ?(tech = Tech.default_65nm) ?base ?(place = Columns)
    ?(place_domains = 1) (spec : Spec.t) =
  Ggpu_obs.Trace.with_span "flow.implement"
    ~args:
      [
        ("cus", string_of_int spec.Spec.num_cus);
        ("freq_mhz", string_of_int spec.Spec.freq_mhz);
      ]
  @@ fun () ->
  let syn, dse = synthesise_dse ~tech ?base spec in
  let netlist = syn.syn_netlist in
  let floorplan, t_floorplan =
    obs_phase "floorplan" @@ fun () ->
    match place with
    | Columns -> Floorplan.build tech netlist ~num_cus:spec.Spec.num_cus
    | Analytic ->
        (Place.place ~domains:place_domains tech netlist
           ~num_cus:spec.Spec.num_cus)
          .Place.floorplan
  in
  let post_timing, t_post =
    obs_phase "post_timing" @@ fun () ->
    (* DSE's engine is synchronised at this netlist: nothing since has
       edited it, so post-route timing needs no rebuild *)
    Timing_post.analyse ~engine:dse.Dse.engine tech netlist floorplan
  in
  (* beyond the paper's 8-CU grid the shared L2/AXI interconnect
     saturates; the derate lands before quantisation so 1..8-CU results
     are bit-identical to the underated flow *)
  let contention_derate = Spec.contention_derate spec in
  let achieved_mhz =
    Float.min (float_of_int spec.Spec.freq_mhz)
      (Timing_post.quantise
         (post_timing.Timing_post.achieved_mhz *. contention_derate))
  in
  if achieved_mhz +. 0.5 < float_of_int spec.Spec.freq_mhz then
    Log.warn (fun m ->
        m "%d-CU design derated post-route: %d MHz target, %.0f MHz achieved"
          spec.Spec.num_cus spec.Spec.freq_mhz achieved_mhz);
  (* the router works at the frequency the layout actually achieves *)
  let route, t_route =
    obs_phase "route" @@ fun () ->
    Route.estimate tech netlist floorplan ~period_ns:(1000.0 /. achieved_mhz)
      ~base_macros:(base_macro_count ~num_cus:spec.Spec.num_cus)
  in
  let spec_check =
    Spec.check spec ~area_mm2:syn.syn_report.Report.total_area_mm2
      ~power_w:syn.syn_report.Report.total_w ~achieved_mhz
  in
  (match spec_check with
  | Ok () -> ()
  | Error violations ->
      Log.warn (fun m ->
          m "%s misses spec: %s" (Spec.to_string spec)
            (String.concat "; "
               (List.map Spec.violation_to_string violations))));
  {
    spec;
    netlist;
    map = syn.syn_map;
    logic_report = syn.syn_report;
    floorplan;
    route;
    post_timing;
    contention_derate;
    achieved_mhz;
    spec_check;
    dse_perf = syn.syn_perf;
    phases =
      syn.syn_phases
      @ [
          ("floorplan", t_floorplan);
          ("post_timing", t_post);
          ("route", t_route);
        ];
  }

let pp_implementation fmt impl =
  Format.fprintf fmt "%s: %s | achieved %.0f MHz | %s@."
    (Spec.to_string impl.spec)
    (Report.row_to_string impl.logic_report)
    impl.achieved_mhz
    (match impl.spec_check with
    | Ok () -> "meets spec"
    | Error vs ->
        String.concat "; " (List.map Spec.violation_to_string vs))
