(* The two pipeline workloads.

   paper-repro regenerates the whole evaluation — Table I, the Table II
   physical versions, Table III and Figs. 5/6 — through the public
   entry points a user calls ([Versions], [Compare]).  flow-scaling
   implements the 8/16/32/64-CU grid with both placers, which exercises
   DSE/STA and layout and leaves the simulators idle.  Both run on one
   domain ([~parallel:false]) so the numbers measure the program and not
   the scheduler.

   The traced replay rebuilds one iteration from the layer functions
   those entry points call, in the same order and with the same
   arguments, with a span around each call; its outputs must equal the
   entry points' own, so a change that moves a layer boundary shows up
   here by name. *)

open Ggpu_core
module H = Harness
module Report = Ggpu_synth.Report
module Suite = Ggpu_kernels.Suite

let tech = Ggpu_tech.Tech.default_65nm

(* What the faithfulness check compares of one implementation: the
   netlist itself is left out, everything derived from it is kept. *)
type impl = {
  spec : Spec.t;
  report : Report.row;
  post_mhz : float;
  achieved_mhz : float;
  route : Ggpu_layout.Route.t;
}

let impl_of (i : Flow.implementation) =
  {
    spec = i.Flow.spec;
    report = i.Flow.logic_report;
    post_mhz = i.Flow.post_timing.Ggpu_layout.Timing_post.achieved_mhz;
    achieved_mhz = i.Flow.achieved_mhz;
    route = i.Flow.route;
  }

(* The published Table I areas (mm2), in Versions.table1_specs order. *)
let published_table1_area =
  [ 4.19; 7.45; 13.84; 26.51; 4.66; 8.16; 15.03; 28.65; 4.77; 8.27; 15.15; 28.69 ]

let table1_area_err_pct rows =
  let errs =
    List.map2
      (fun (r : Report.row) published ->
        Float.abs (r.Report.total_area_mm2 -. published) /. published)
      rows published_table1_area
  in
  100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* --- layer composition --------------------------------------------------- *)

(* Flow.synthesise_timed, one layer per span. *)
let synthesise r ?(tech = tech) ?base (spec : Spec.t) =
  let num_cus = spec.Spec.num_cus in
  let netlist =
    H.span r "rtlgen" @@ fun () ->
    match base with
    | Some b -> Ggpu_hw.Netlist.copy b
    | None -> Ggpu_rtlgen.Generate.generate_cus ~num_cus
  in
  let dse =
    H.span r "dse" @@ fun () ->
    Dse.explore tech netlist ~num_cus ~period_ns:(Spec.period_ns spec)
  in
  H.count r "dse.iterations" (float_of_int dse.Dse.iterations);
  H.count r "dse.sta_calls" (float_of_int dse.Dse.perf.Dse.sta_calls);
  H.count r "dse.sta_full" (float_of_int dse.Dse.perf.Dse.sta_full);
  let report =
    H.span r "synth" @@ fun () ->
    Report.of_netlist tech ~timing:dse.Dse.final netlist ~num_cus
      ~freq_mhz:spec.Spec.freq_mhz
  in
  (netlist, report)

(* Flow.implement. *)
let implement r ~place ?base (spec : Spec.t) =
  let open Ggpu_layout in
  let num_cus = spec.Spec.num_cus in
  let netlist, report = synthesise r ?base spec in
  let floorplan =
    match place with
    | Flow.Columns ->
        H.span r "layout.floorplan" @@ fun () ->
        Floorplan.build tech netlist ~num_cus
    | Flow.Analytic ->
        H.span r "layout.place" @@ fun () ->
        (Place.place ~domains:1 tech netlist ~num_cus).Place.floorplan
  in
  let post =
    H.span r "layout.post_timing" @@ fun () ->
    Timing_post.analyse tech netlist floorplan
  in
  let achieved_mhz =
    Float.min
      (float_of_int spec.Spec.freq_mhz)
      (Timing_post.quantise
         (post.Timing_post.achieved_mhz *. Spec.contention_derate spec))
  in
  let route =
    H.span r "layout.route" @@ fun () ->
    Route.estimate tech netlist floorplan ~period_ns:(1000.0 /. achieved_mhz)
      ~base_macros:(Flow.base_macro_count ~num_cus)
  in
  {
    spec;
    report;
    post_mhz = post.Timing_post.achieved_mhz;
    achieved_mhz;
    route;
  }

(* Versions.map_specs: one base netlist per CU count, elaborated before
   the per-spec fan-out. *)
let over_specs r specs f =
  let bases =
    List.sort_uniq Int.compare (List.map (fun s -> s.Spec.num_cus) specs)
    |> List.map (fun num_cus ->
           ( num_cus,
             H.span r "rtlgen" @@ fun () ->
             Ggpu_rtlgen.Generate.generate_cus ~num_cus ))
  in
  List.map (fun spec -> f ?base:(List.assoc_opt spec.Spec.num_cus bases) spec) specs

(* One launch, checked against the suite's reference implementation:
   the check Compare.table3 does not make.  A failed check is counted,
   not raised, so the replay still reports every layer. *)
let launch r (w : Suite.t) ~size ~run ~output =
  let args = H.span r "kernels.args" (fun () -> w.Suite.mk_args ~size) in
  let result = run args in
  let ok =
    H.span r "kernels.check" @@ fun () ->
    w.Suite.expected ~size args = output result w.Suite.output_buffer
  in
  if not ok then H.count r "check.failures" 1.0;
  (result, ok)

(* Run_fgpu.run at the geometry Compare and the serve engine derive
   from a size. *)
let fgpu_launch r ?pmu (w : Suite.t) ~size ~num_cus compiled =
  let open Ggpu_kernels in
  let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default num_cus in
  let ((res, _) as outcome) =
    launch r w ~size ~output:Run_fgpu.output ~run:(fun args ->
        H.span r "fgpu" @@ fun () ->
        Run_fgpu.run ~config ?pmu compiled ~args
          ~global_size:(w.Suite.global_size ~size)
          ~local_size:(min w.Suite.local_size size)
          ())
  in
  let stats = res.Run_fgpu.stats in
  H.count r "fgpu.wf_instructions"
    (float_of_int stats.Ggpu_fgpu.Stats.wf_instructions);
  H.count r "fgpu.cycles" (float_of_int stats.Ggpu_fgpu.Stats.cycles);
  outcome

(* Compare.run_riscv and Compare.run_ggpu. *)
let riscv_cycles r (w : Suite.t) =
  let open Ggpu_kernels in
  let size = w.Suite.riscv_size in
  let compiled =
    H.span r "kernels.compile" (fun () -> Codegen_rv32.compile w.Suite.kernel)
  in
  let res, _ =
    launch r w ~size ~output:Run_rv32.output ~run:(fun args ->
        H.span r "riscv" @@ fun () ->
        Run_rv32.run compiled ~args
          ~global_size:(w.Suite.global_size ~size)
          ~local_size:(min w.Suite.local_size size)
          ())
  in
  let cycles = res.Run_rv32.stats.Ggpu_riscv.Cpu.cycles in
  H.count r "riscv.cycles" (float_of_int cycles);
  cycles

let ggpu_cycles r (w : Suite.t) ~num_cus =
  let compiled =
    H.span r "kernels.compile" (fun () ->
        Ggpu_kernels.Codegen_fgpu.compile w.Suite.kernel)
  in
  let res, _ = fgpu_launch r w ~size:w.Suite.ggpu_size ~num_cus compiled in
  res.Ggpu_kernels.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles

(* --- paper-repro --------------------------------------------------------- *)

type paper = {
  table1 : Report.row list;
  physical : impl list;
  table3 : Compare.row list;
  speedups : Compare.speedups list;
}

let suite_of : H.scale -> _ = function
  | Full -> (Suite.all, Compare.cu_counts)
  | Smoke -> ([ Suite.copy; Suite.vec_mul ], [ 1; 2 ])

let paper_untraced scale =
  let workloads, cu_counts = suite_of scale in
  let table3 = Compare.table3 ~workloads ~cu_counts () in
  {
    table1 = Versions.table1 ~parallel:false ();
    physical = List.map impl_of (Versions.physical ~parallel:false ());
    table3;
    speedups = Compare.speedups table3;
  }

let paper_composed r scale =
  let workloads, cu_counts = suite_of scale in
  let table1 =
    over_specs r (Versions.table1_specs ()) (fun ?base spec ->
        snd (synthesise r ?base spec))
  in
  let physical =
    over_specs r (Versions.physical_specs ()) (implement r ~place:Flow.Columns)
  in
  let table3 =
    List.map
      (fun (w : Suite.t) ->
        {
          Compare.kernel = w.Suite.name;
          riscv_size = w.Suite.riscv_size;
          ggpu_size = w.Suite.ggpu_size;
          riscv_kcycles = float_of_int (riscv_cycles r w) /. 1000.0;
          ggpu_kcycles =
            List.map
              (fun cus ->
                (cus, float_of_int (ggpu_cycles r w ~num_cus:cus) /. 1000.0))
              cu_counts;
        })
      workloads
  in
  (* Compare.speedups: the 667 MHz areas come from fresh syntheses *)
  let areas =
    List.map
      (fun num_cus ->
        let _, report = synthesise r (Spec.make ~num_cus ~freq_mhz:667 ()) in
        (num_cus, report.Report.total_area_mm2))
      cu_counts
  in
  let rv_area = Compare.riscv_area_mm2 tech in
  let speedups =
    List.map
      (fun (row : Compare.row) ->
        let ratio =
          float_of_int row.Compare.ggpu_size /. float_of_int row.Compare.riscv_size
        in
        let raw =
          List.map
            (fun (cus, kcycles) ->
              (cus, row.Compare.riscv_kcycles *. ratio /. kcycles))
            row.Compare.ggpu_kcycles
        in
        let derated =
          List.map
            (fun (cus, s) -> (cus, s /. (List.assoc cus areas /. rv_area)))
            raw
        in
        { Compare.kernel = row.Compare.kernel; raw; derated })
      table3
  in
  { table1; physical; table3; speedups }

(* Each mismatch names the layers that produced the differing output. *)
let physical_mismatches label (a : impl list) (b : impl list) =
  let field name f =
    if List.map f a <> List.map f b then [ label ^ ": " ^ name ] else []
  in
  if List.length a <> List.length b then [ label ^ ": version count" ]
  else
    field "logic report (rtlgen/dse/synth)" (fun i -> i.report)
    @ field "post-route MHz (layout.floorplan/place, layout.post_timing)"
        (fun i -> i.post_mhz)
    @ field "achieved MHz (contention derate)" (fun i -> i.achieved_mhz)
    @ field "route totals (layout.route)" (fun i -> i.route)

let paper_mismatches (a : paper) (b : paper) =
  (if a.table1 <> b.table1 then [ "Table I rows (rtlgen/dse/synth)" ] else [])
  @ physical_mismatches "Table II versions" a.physical b.physical
  @ (if a.table3 <> b.table3 then [ "Table III cycles (fgpu/riscv)" ] else [])
  @
  if a.speedups <> b.speedups then [ "Figs. 5/6 speed-ups (areas: rtlgen/dse/synth)" ]
  else []

let ggpu_kcycles (p : paper) =
  List.fold_left
    (fun acc (row : Compare.row) ->
      List.fold_left (fun acc (_, kc) -> acc +. kc) acc row.Compare.ggpu_kcycles)
    0.0 p.table3

(* --- flow-scaling -------------------------------------------------------- *)

let placers = [ Flow.Columns; Flow.Analytic ]
let scaling_cus : H.scale -> _ = function
  | Full -> Versions.scaling_cu_counts
  | Smoke -> [ 8; 16 ]

let scaling_untraced scale =
  List.concat_map
    (fun place ->
      List.map impl_of
        (Versions.scaling ~parallel:false ~place ~cu_counts:(scaling_cus scale) ()))
    placers

let scaling_composed r scale =
  List.concat_map
    (fun place ->
      over_specs r
        (Versions.scaling_specs ~cu_counts:(scaling_cus scale) ())
        (implement r ~place))
    placers
