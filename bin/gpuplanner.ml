(* GPUPlanner command-line interface.

   Subcommands mirror the paper's Fig. 2 flow:

     gpuplanner synth   --cus 2 --freq 667          logic synthesis report
     gpuplanner map     --cus 1 --freq 667          print the optimisation map
     gpuplanner layout  --cus 8 --freq 667          full RTL-to-layout flow
     gpuplanner table1                              the 12 published versions
     gpuplanner compare [--kernel mat_mul]          RISC-V vs G-GPU
     gpuplanner run     --kernel copy --cus 4       simulate one kernel

   Every value is parsed and bounded once, by the shared terms below: a
   bad value ends in one error line and exit 124 before any work.  Every
   subcommand but trace-check is built by [command], which adds
   --trace/--metrics/-v. *)

open Cmdliner
open Cmdliner.Term.Syntax
open Ggpu_core

(* --- shared terms -------------------------------------------------------- *)

(* A term whose parsed value [check] may still reject: the error is
   printed as one line and the command exits 124. *)
let checked check term = Term.term_result' ~usage:false (Term.map check term)

(* [flag] names the option the value came from *)
let at_least ?(floor = 1) flag n =
  if n >= floor then Ok n
  else Error (Printf.sprintf "%s %d: must be at least %d" flag n floor)

(* [--name N], bounded below by [floor] (default 1) *)
let int_opt ?floor name ~doc ~docv default =
  checked (at_least ?floor name)
    Arg.(value & opt int default & info [ name ] ~doc ~docv)

(* the same, absent unless given *)
let int_opt_some ?floor name ~doc ~docv =
  checked
    (function
      | None -> Ok None
      | Some n -> Result.map Option.some (at_least ?floor name n))
    Arg.(value & opt (some int) None & info [ name ] ~doc ~docv)

(* A closed set of names, matched exactly ([Arg.enum] would also take
   any unambiguous prefix).  The printer finds a value's name by
   physical equality, so the values need not be comparable. *)
let closed alts =
  let parse s =
    match List.assoc_opt s alts with
    | Some v -> Ok v
    | None ->
        Error
          (Printf.sprintf "invalid value '%s', expected %s" s
             (Arg.doc_alts_enum ~quoted:true alts))
  in
  let print ppf v =
    Format.pp_print_string ppf (fst (List.find (fun (_, v') -> v' == v) alts))
  in
  Arg.conv' (parse, print)

(* CU counts a launch or the generator would reject mid-run *)
let supported_cus cus =
  match Compare.check_cu_counts cus with
  | () -> Ok cus
  | exception Invalid_argument msg -> Error msg

(* Raw --cus and --freq: [spec_term] leaves their check to [Spec.make],
   and the client passes them to the daemon, the boundary that checks a
   request. *)
let cus_arg =
  let doc = "Number of compute units (1..8, 16, 32 or 64)." in
  Arg.(value & opt int 1 & info [ "cus" ] ~doc ~docv:"N")

let freq_arg =
  let doc = "Target frequency in MHz." in
  Arg.(value & opt int 500 & info [ "freq" ] ~doc ~docv:"MHZ")

let cus_term =
  checked (fun n -> Result.map List.hd (supported_cus [ n ])) cus_arg

let cus_list_term ~doc default =
  checked supported_cus
    Arg.(value & opt (list int) default & info [ "cus" ] ~doc ~docv:"N,..")

let tech_term =
  let techs = Ggpu_tech.Tech.by_name in
  let doc =
    Printf.sprintf "Technology models to use: %s." (Arg.doc_alts_enum techs)
  in
  Arg.(
    value
    & opt (closed techs) Ggpu_tech.Tech.default_65nm
    & info [ "tech" ] ~doc ~docv:"NODE")

let place_term =
  let doc =
    "Floorplan engine: $(b,columns) (the estimator's stacked columns, \
     the default) or $(b,analytic) (eplace-style analytical global \
     placement)."
  in
  let placers = [ ("columns", Flow.Columns); ("analytic", Flow.Analytic) ] in
  Arg.(
    value
    & opt (closed placers) Flow.Columns
    & info [ "place" ] ~doc ~docv:"ENGINE")

let place_domains_term =
  int_opt "place-domains" ~docv:"D" 1
    ~doc:
      "Domain fan-out for the analytical placer's gradient evaluation. \
       The placement is bit-identical for any value."

(* On run and compare, the functional (record) pass of the launch. *)
let launch_domains_term =
  int_opt "domains" ~docv:"D" 1
    ~doc:
      "Domain fan-out for the functional (record) pass inside one \
       simulation. Simulated results are bit-identical for any value; at \
       1, a launch timed at one CU count runs in place."

(* On bench and perf-report, the pool that spreads whole jobs. *)
let pool_domains_term =
  Term.map
    (function Some d -> d | None -> Ggpu_par.Parallel.default_domains ())
    (int_opt_some "domains" ~docv:"D"
       ~doc:
         "Domain-pool size for the job fan-out (1 = serial; default: the \
          runtime's recommended domain count).")

let kernels =
  List.map
    (fun (w : Ggpu_kernels.Suite.t) -> (w.name, w))
    Ggpu_kernels.Suite.all

let kernel_arg ~doc =
  let doc = Printf.sprintf "%s: %s." doc (Arg.doc_alts_enum kernels) in
  Arg.(opt (some (closed kernels)) None & info [ "kernel" ] ~doc ~docv:"NAME")

let kernel_req = Arg.required (kernel_arg ~doc:"Kernel to run")

(* the whole suite unless --kernel names one *)
let workloads_term =
  Term.map
    (function None -> Ggpu_kernels.Suite.all | Some w -> [ w ])
    (Arg.value (kernel_arg ~doc:"Restrict to one kernel (default: all)"))

let spec_term_of ~area ~power =
  Term.term_result' ~usage:false
    (let+ num_cus = cus_arg
     and+ freq_mhz = freq_arg
     and+ max_area_mm2 = area
     and+ max_power_w = power in
     try Ok (Spec.make ~max_area_mm2 ~max_power_w ~num_cus ~freq_mhz ())
     with Spec.Invalid_spec msg -> Error msg)

let spec_term =
  let area =
    let doc = "Optional area budget in mm2." in
    Arg.(value & opt (some float) None & info [ "max-area" ] ~doc ~docv:"MM2")
  in
  let power =
    let doc = "Optional power budget in W." in
    Arg.(value & opt (some float) None & info [ "max-power" ] ~doc ~docv:"W")
  in
  spec_term_of ~area ~power

(* --- observability and the command wrapper ------------------------------- *)

type obs = {
  trace : string option;
  metrics : bool;
  log_level : Logs.level option;
}

let obs_term =
  let trace =
    let doc =
      "Record a Chrome trace-event JSON file of the run (load in \
       chrome://tracing or ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let metrics =
    let doc = "Print the merged metrics snapshot after the command." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let+ trace = trace
  and+ metrics = metrics
  and+ log_level = Logs_cli.level () in
  { trace; metrics; log_level }

(* Arm the tracer and the ambient metrics, run the command body, then
   export and print them.  A DSE that cannot meet its target ends in
   one line and exit 1. *)
let with_obs obs body =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level obs.log_level;
  if Option.is_some obs.trace then Ggpu_obs.Trace.enable ();
  if obs.metrics then Ggpu_obs.Metrics.set_ambient_enabled true;
  (try body ()
   with Dse.Cannot_meet { period_ns; best_ns; detail } ->
     Printf.eprintf
       "cannot meet %.3f ns: best achievable %.3f ns (%.0f MHz); %s\n"
       period_ns best_ns (1000.0 /. best_ns) detail;
     exit 1);
  (match obs.trace with
  | Some path ->
      Ggpu_obs.Trace.export ~path;
      Printf.printf "wrote trace %s (%d events)\n" path
        (List.length (Ggpu_obs.Trace.events ()))
  | None -> ());
  if obs.metrics then
    Format.printf "%a@." Ggpu_obs.Metrics.pp_snapshot
      (Ggpu_obs.Metrics.ambient_snapshot ())

(* [body] evaluates to the command's work, run under [with_obs] once
   every value has been parsed and checked. *)
let command name ~doc body =
  Cmd.v (Cmd.info name ~doc) Term.(const with_obs $ obs_term $ body)

(* --- synth, dse, map, verilog -------------------------------------------- *)

let synth_body =
  let+ tech = tech_term and+ spec = spec_term in
  fun () ->
    let syn = Flow.synthesise_timed ~tech spec in
    print_endline Ggpu_synth.Report.header;
    print_endline (Ggpu_synth.Report.row_to_string syn.Flow.syn_report);
    Printf.printf "(%d divisions, %d pipelines; see 'map' for detail)\n"
      (Map.divisions syn.Flow.syn_map)
      (Map.pipelines syn.Flow.syn_map);
    Format.printf "perf: %a@." Dse.pp_perf syn.Flow.syn_perf

let synth_cmd =
  command "synth" ~doc:"Logic synthesis of one G-GPU version" synth_body

(* The exploration is where the planner spends its time, so it gets a
   first-class subcommand: same flow as [synth], surfaced under the
   name the profiling docs use ([gpuplanner dse --trace out.json]). *)
let dse_cmd =
  command "dse" synth_body
    ~doc:
      "Run the design-space exploration for one version (synth alias, the \
       natural target for --trace/--metrics)"

let map_cmd =
  command "map"
    ~doc:
      "Print the optimisation map (memory divisions and pipeline \
       insertions) for a target"
  @@ let+ tech = tech_term and+ spec = spec_term in
     fun () ->
       let _nl, map, _report = Flow.synthesise ~tech spec in
       Format.printf "%a" Map.pp map

let verilog_cmd =
  let out_term =
    let doc = "Output file (default: ggpu_<N>cu.v)." in
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  command "verilog" ~doc:"Export the optimised netlist as structural Verilog"
  @@ let+ tech = tech_term and+ spec = spec_term and+ out = out_term in
     fun () ->
       let netlist, _map, _report = Flow.synthesise ~tech spec in
       let path =
         Option.value out
           ~default:(Printf.sprintf "ggpu_%dcu.v" spec.Spec.num_cus)
       in
       Ggpu_hw.Verilog.write netlist ~path;
       Printf.printf "wrote %s (%d cells, %d nets)\n" path
         (Ggpu_hw.Netlist.cell_count netlist)
         (Ggpu_hw.Netlist.net_count netlist)

(* --- layout -------------------------------------------------------------- *)

let layout_cmd =
  let place_check_term =
    let check_determinism =
      let doc =
        "Re-run the analytical placer at 1, 2 and --place-domains domains \
         and exit 1 unless all floorplans are identical (requires --place \
         analytic). Used by CI."
      in
      Arg.(value & flag & info [ "check-determinism" ] ~doc)
    in
    Term.term_result' ~usage:false
      (let+ place = place_term and+ check = check_determinism in
       if check && place <> Flow.Analytic then
         Error "--check-determinism requires --place analytic"
       else Ok (place, check))
  in
  command "layout" ~doc:"Full RTL-to-layout implementation of one version"
  @@ let+ tech = tech_term
     and+ spec = spec_term
     and+ place, check_det = place_check_term
     and+ place_domains = place_domains_term in
     fun () ->
       let impl = Flow.implement ~tech ~place ~place_domains spec in
       Format.printf "%a" Flow.pp_implementation impl;
       print_string (Ggpu_layout.Render.render impl.Flow.floorplan);
       Format.printf "%a@." Ggpu_layout.Timing_post.pp impl.Flow.post_timing;
       Printf.printf "wirelength per layer (um):\n";
       Format.printf "%a" Ggpu_layout.Route.pp impl.Flow.route;
       Printf.printf "phases:";
       List.iter
         (fun (name, s) -> Printf.printf " %s=%.3fs" name s)
         impl.Flow.phases;
       Format.printf "@.perf: %a@." Dse.pp_perf impl.Flow.dse_perf;
       if check_det then begin
         (* the flow placed at [place_domains]; replaying the placement
            on the explored netlist at other pool sizes must reproduce
            that floorplan bit for bit *)
         let replay domains =
           (Ggpu_layout.Place.place ~domains tech impl.Flow.netlist
              ~num_cus:spec.Spec.num_cus)
             .Ggpu_layout.Place.floorplan
         in
         let domains_checked =
           List.sort_uniq Int.compare [ 1; 2; place_domains ]
         in
         let mismatches =
           List.filter (fun d -> replay d <> impl.Flow.floorplan) domains_checked
         in
         if mismatches = [] then
           Printf.printf
             "placer determinism: floorplan identical at %s domain(s)\n"
             (String.concat ", " (List.map string_of_int domains_checked))
         else begin
           Printf.eprintf
             "placer NOT deterministic: floorplan differs at %s domain(s)\n"
             (String.concat ", " (List.map string_of_int mismatches));
           exit 1
         end
       end

(* --- table1 -------------------------------------------------------------- *)

let table1_cmd =
  command "table1" ~doc:"Regenerate the paper's Table I (12 versions)"
  @@ let+ tech = tech_term in
     fun () ->
       print_endline Ggpu_synth.Report.header;
       List.iter
         (fun r -> print_endline (Ggpu_synth.Report.row_to_string r))
         (Versions.table1 ~tech ())

(* --- versions ------------------------------------------------------------ *)

(* The scaling study: full implementations over an explicit CU grid.
   Unsupported counts fail up front with the generator's accepted list;
   nothing is clamped to the paper grid. *)
let versions_cmd =
  let cus_term =
    cus_list_term Versions.scaling_cu_counts
      ~doc:"Comma-separated CU counts to implement (each 1..8, 16, 32 or 64)."
  in
  let freq_term =
    int_opt "freq" ~doc:"Target frequency in MHz for every version." ~docv:"MHZ"
      667
  in
  command "versions"
    ~doc:
      "Implement a CU-count grid end to end (the >8-CU scaling study: \
       contention derate, floorplan engine selection)"
  @@ let+ tech = tech_term
     and+ cu_counts = cus_term
     and+ freq_mhz = freq_term
     and+ place = place_term
     and+ place_domains = place_domains_term in
     fun () ->
       let impls =
         Versions.scaling ~tech ~place ~place_domains ~freq_mhz ~cu_counts ()
       in
       Printf.printf "%4s %7s %9s %7s %10s %12s %s\n" "cus" "target" "achieved"
         "derate" "area_mm2" "wire_mm" "check";
       List.iter
         (fun (impl : Flow.implementation) ->
           Printf.printf "%4d %7d %9.0f %7.3f %10.2f %12.0f %s\n"
             impl.Flow.spec.Spec.num_cus impl.Flow.spec.Spec.freq_mhz
             impl.Flow.achieved_mhz impl.Flow.contention_derate
             impl.Flow.logic_report.Ggpu_synth.Report.total_area_mm2
             (impl.Flow.route.Ggpu_layout.Route.total_um /. 1000.0)
             (match impl.Flow.spec_check with
             | Ok () -> "meets spec"
             | Error vs ->
                 String.concat "; " (List.map Spec.violation_to_string vs)))
         impls

(* --- compare ------------------------------------------------------------- *)

let compare_cmd =
  let cus_term =
    cus_list_term Compare.cu_counts
      ~doc:"Comma-separated CU counts to compare (each 1..8, 16, 32 or 64)."
  in
  command "compare"
    ~doc:"Run the benchmark suite on RISC-V and G-GPU (Table III, Figs. 5-6)"
  @@ let+ tech = tech_term
     and+ workloads = workloads_term
     and+ cu_counts = cus_term
     and+ domains = launch_domains_term in
     fun () ->
       let rows = Compare.table3 ~workloads ~domains ~cu_counts () in
       Format.printf "%a@." Compare.pp_table3 rows;
       let speedups = Compare.speedups ~tech rows in
       Format.printf "%a@." (Compare.pp_speedups ~label:"raw") speedups;
       Format.printf "%a@." (Compare.pp_speedups ~label:"derated") speedups

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let size_term =
    int_opt_some "size" ~docv:"N"
      ~doc:"Problem size (work-items); default: the workload's G-GPU size."
  in
  let pmu_term =
    let doc =
      "Attach the performance-monitoring unit: per-CU cycle-attribution \
       buckets, bottleneck classification and a hot-PC profile (results \
       stay bit-identical)."
    in
    Arg.(value & flag & info [ "pmu" ] ~doc)
  in
  command "run" ~doc:"Simulate one kernel on the G-GPU"
  @@ let+ cus = cus_term
     and+ w = kernel_req
     and+ size = size_term
     and+ pmu = pmu_term
     and+ domains = launch_domains_term in
     fun () ->
       let open Ggpu_kernels in
       let size =
         w.Suite.round_size (Option.value ~default:w.Suite.ggpu_size size)
       in
       let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
       let args = w.Suite.mk_args ~size in
       let compiled = Codegen_fgpu.compile w.Suite.kernel in
       let collector =
         if pmu then
           Some
             (Ggpu_pmu.Pmu.create ~num_cus:cus
                ~prog_len:(Array.length compiled.Codegen_fgpu.code)
                ())
         else None
       in
       let result =
         Run_fgpu.run ~config ?pmu:collector ~domains compiled ~args
           ~global_size:(w.Suite.global_size ~size)
           ~local_size:(min w.Suite.local_size size)
           ()
       in
       Format.printf "%s size=%d on %d CU: %a@." w.Suite.name size cus
         Ggpu_fgpu.Stats.pp result.Run_fgpu.stats;
       (match collector with
       | Some c ->
           let summary =
             Ggpu_pmu.Pmu.summarize c ~program:compiled.Codegen_fgpu.code
           in
           Format.printf "pmu (%s):@.%a@.hot PCs (stride %d, %d samples):@.%a@."
             (Ggpu_pmu.Report.classify summary)
             Ggpu_pmu.Pmu.pp_summary summary summary.Ggpu_pmu.Pmu.s_stride
             summary.Ggpu_pmu.Pmu.s_samples
             (fun fmt s -> Ggpu_pmu.Pmu.pp_hot fmt s)
             summary
       | None -> ());
       let actual = Run_fgpu.output result w.Suite.output_buffer in
       if w.Suite.expected ~size args = actual then
         Format.printf "output verified@."
       else begin
         Format.printf "OUTPUT MISMATCH@.";
         exit 1
       end

(* --- fi ------------------------------------------------------------------ *)

let fi_cmd =
  let target_term =
    let targets = [ ("ggpu", `Ggpu); ("riscv", `Riscv) ] in
    let doc = "Target machine: ggpu (with --cus) or riscv." in
    Arg.(
      value & opt (closed targets) `Ggpu & info [ "target" ] ~doc ~docv:"MACHINE")
  in
  let trials_term =
    int_opt "trials" ~doc:"Number of injected trials." ~docv:"N" 1000
  in
  let seed_term =
    let doc = "Campaign seed; fixes the whole trial list." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let size_term =
    int_opt_some "size" ~docv:"N"
      ~doc:
        "Problem size in work-items (default: a per-target size that keeps \
         the campaign tractable)."
  in
  let domains_term =
    int_opt_some "domains" ~docv:"D"
      ~doc:"Domain-pool size for the trial fan-out (1 = serial)."
  in
  let expect_term =
    let doc =
      "Expected classification signature (as printed by a previous run); \
       exit 1 on drift. Used by CI."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~doc ~docv:"SIG")
  in
  command "fi"
    ~doc:
      "Fault-injection campaign: single-bit upsets classified as \
       masked/SDC/DUE/hang, with per-structure AVF"
  @@ let+ cus = cus_term
     and+ w = kernel_req
     and+ target = target_term
     and+ trials = trials_term
     and+ seed = seed_term
     and+ size = size_term
     and+ domains = domains_term
     and+ expect = expect_term in
     fun () ->
       let target, default_size =
         match target with
         | `Ggpu ->
             (Ggpu_fi.Campaign.Ggpu cus, min 2048 w.Ggpu_kernels.Suite.ggpu_size)
         | `Riscv -> (Ggpu_fi.Campaign.Rv32, w.Ggpu_kernels.Suite.riscv_size)
       in
       let report =
         Ggpu_fi.Campaign.run ?domains ~target ~workload:w
           ~size:(Option.value size ~default:default_size)
           ~trials ~seed ()
       in
       Format.printf "%a@." Ggpu_fi.Campaign.pp_report report;
       let signature = Ggpu_fi.Campaign.signature report in
       Printf.printf "signature: %s\n" signature;
       match expect with
       | Some expected when not (String.equal expected signature) ->
           Printf.eprintf "classification drift!\n  expected %s\n  got      %s\n"
             expected signature;
           exit 1
       | _ -> ()

(* --- bench --------------------------------------------------------------- *)

let grid_cus_term =
  cus_list_term [ 1; 2; 4; 8 ] ~doc:"Comma-separated CU counts forming the grid."

(* The (kernel x CU-count) grid on the domain pool: the CLI face of
   {!Ggpu_kernels.Suite_runner}.  Results and merged metrics are
   deterministic for any --domains; only wall times vary. *)
let bench_cmd =
  command "bench"
    ~doc:
      "Run the kernel suite over a CU-count grid on the domain pool, \
       verifying every output against the OCaml reference"
  @@ let+ domains = pool_domains_term and+ cu_counts = grid_cus_term in
     fun () ->
       let open Ggpu_kernels in
       Ggpu_obs.Trace.with_span "bench.suite"
         ~args:[ ("domains", string_of_int domains) ]
       @@ fun () ->
       Ggpu_obs.Metrics.record_gauge "bench.domains" domains;
       let jobs = Suite_runner.grid ~cu_counts () in
       let t0 = Ggpu_obs.Metrics.now_ns () in
       let results, merged = Suite_runner.run ~domains jobs in
       let wall_ns = max 1 (Ggpu_obs.Metrics.now_ns () - t0) in
       Printf.printf "%-20s %8s %10s %10s %12s %6s\n" "job" "size" "cycles"
         "wf insns" "cycles/s" "ok";
       List.iter
         (fun (r : Suite_runner.result) ->
           let s = r.stats in
           Printf.printf "%-20s %8d %10d %10d %12.3e %6s\n"
             (Suite_runner.job_name r.job) r.job.size s.Ggpu_fgpu.Stats.cycles
             s.Ggpu_fgpu.Stats.wf_instructions
             (float_of_int s.Ggpu_fgpu.Stats.cycles
             /. (float_of_int (max 1 r.wall_ns) /. 1e9))
             (if r.correct then "yes" else "NO"))
         results;
       let total_cycles =
         List.fold_left
           (fun acc (r : Suite_runner.result) ->
             acc + r.stats.Ggpu_fgpu.Stats.cycles)
           0 results
       in
       Printf.printf
         "grid: %d jobs on %d domains | %.3e simulated cycles in %.3fs wall \
          (%.3e cycles/s)\n"
         (List.length results) domains (float_of_int total_cycles)
         (float_of_int wall_ns /. 1e9)
         (float_of_int total_cycles /. (float_of_int wall_ns /. 1e9));
       Format.printf "merged (deterministic) metrics: %a@."
         Ggpu_obs.Metrics.pp_snapshot merged;
       let failures =
         List.filter (fun (r : Suite_runner.result) -> not r.correct) results
       in
       if failures <> [] then begin
         Printf.eprintf "%d job(s) produced wrong output\n"
           (List.length failures);
         exit 1
       end

(* --- perf-report --------------------------------------------------------- *)

(* PMU-instrumented kernelxCU grid: writes PERF_REPORT.json with per-CU
   stall buckets, hot PCs and a bottleneck classification per kernel;
   optionally gates PMU overhead against an uninstrumented pass of the
   same grid and diffs cycle counts against a baseline report.  The CI
   smoke job drives all three modes. *)
let perf_report_cmd =
  let out_term =
    let doc = "Report file to write." in
    Arg.(value & opt string "PERF_REPORT.json" & info [ "out" ] ~doc ~docv:"FILE")
  in
  let baseline_term =
    let doc =
      "Baseline PERF_REPORT.json: print a per-kernel cycle diff and exit 1 \
       if any configuration regressed past --max-regress."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~doc ~docv:"FILE")
  in
  let max_regress_term =
    let doc = "Regression threshold for --baseline, in percent." in
    Arg.(value & opt float 5.0 & info [ "max-regress" ] ~doc ~docv:"PCT")
  in
  let max_overhead_term =
    let doc =
      "Also run the grid without the PMU and exit 1 if instrumentation \
       costs more than PCT percent of aggregate simulation throughput."
    in
    Arg.(value & opt (some float) None & info [ "max-overhead" ] ~doc ~docv:"PCT")
  in
  let check_term =
    let doc =
      "Validate an existing report (schema, classifications, \
       buckets-sum-to-cycles invariant) instead of running the grid."
    in
    Arg.(value & opt (some string) None & info [ "check" ] ~doc ~docv:"FILE")
  in
  let stride_term =
    int_opt "stride" ~doc:"Hot-PC sampling period in cycles." ~docv:"N" 64
  in
  command "perf-report"
    ~doc:
      "Run the kernel suite with the PMU attached, write PERF_REPORT.json \
       (per-CU stall buckets, hot PCs, bottleneck classification), and \
       optionally gate overhead or diff against a baseline"
  @@ let+ domains = pool_domains_term
     and+ cu_counts = grid_cus_term
     and+ workloads = workloads_term
     and+ out = out_term
     and+ baseline = baseline_term
     and+ max_regress = max_regress_term
     and+ max_overhead = max_overhead_term
     and+ check = check_term
     and+ stride = stride_term in
     fun () ->
       let open Ggpu_kernels in
       match check with
       | Some file -> (
           match Ggpu_pmu.Report.validate_file file with
           | Ok n -> Printf.printf "%s: ok, %d kernel entries\n" file n
           | Error msg ->
               Printf.eprintf "%s: invalid perf report: %s\n" file msg;
               exit 1)
       | None ->
           let jobs = Suite_runner.grid ~workloads ~cu_counts () in
           let job_wall results =
             List.fold_left
               (fun acc (r : Suite_runner.result) -> acc + r.wall_ns)
               1 results
           in
           (* uninstrumented pass first (also warms the code paths), so
              the overhead gate compares like against like *)
           let bare_wall =
             Option.map
               (fun _ -> job_wall (fst (Suite_runner.run ~domains jobs)))
               max_overhead
           in
           let results, _merged =
             Suite_runner.run ~domains ~pmu:true ~pmu_stride:stride jobs
           in
           let entries =
             List.map
               (fun (r : Suite_runner.result) ->
                 {
                   Ggpu_pmu.Report.e_kernel = r.job.workload.Suite.name;
                   e_cus = r.job.cus;
                   e_size = r.job.size;
                   e_correct = r.correct;
                   e_stats = Ggpu_fgpu.Stats.to_assoc r.stats;
                   e_hit_rate = Ggpu_fgpu.Stats.hit_rate r.stats;
                   e_summary = Option.get r.pmu;
                 })
               results
           in
           Ggpu_pmu.Report.write ~path:out entries;
           Printf.printf "%-20s %10s %8s %-18s %s\n" "job" "cycles" "ok"
             "classification" "hottest pc";
           List.iter
             (fun (e : Ggpu_pmu.Report.entry) ->
               let s = e.e_summary in
               Printf.printf "%-20s %10d %8s %-18s %s\n"
                 (Printf.sprintf "%s/%dcu" e.e_kernel e.e_cus)
                 s.Ggpu_pmu.Pmu.s_cycles
                 (if e.e_correct then "yes" else "NO")
                 (Ggpu_pmu.Report.classify s)
                 (match s.Ggpu_pmu.Pmu.s_hot with
                 | (pc, insn, _) :: _ -> Printf.sprintf "%d: %s" pc insn
                 | [] -> "-"))
             entries;
           (match Ggpu_pmu.Report.validate_file out with
           | Ok n ->
               Printf.printf "wrote %s (%d kernel entries, validated)\n" out n
           | Error msg ->
               Printf.eprintf "%s failed self-validation: %s\n" out msg;
               exit 1);
           (match (max_overhead, bare_wall) with
           | Some limit, Some bare ->
               let pmu_wall = job_wall results in
               let pct =
                 100.0 *. float_of_int (pmu_wall - bare) /. float_of_int bare
               in
               Printf.printf
                 "PMU overhead: %+.2f%% of grid wall time (limit %.1f%%)\n" pct
                 limit;
               if pct > limit then begin
                 Printf.eprintf "PMU overhead %.2f%% exceeds limit %.1f%%\n" pct
                   limit;
                 exit 1
               end
           | _ -> ());
           (match baseline with
           | None -> ()
           | Some file -> (
               match Ggpu_pmu.Report.load file with
               | Error msg ->
                   Printf.eprintf "cannot load baseline %s: %s\n" file msg;
                   exit 1
               | Ok base -> (
                   match
                     Ggpu_pmu.Report.diff ~baseline:base
                       ~current:(Ggpu_pmu.Report.to_json entries)
                       ~max_regress_pct:max_regress
                   with
                   | Error msg ->
                       Printf.eprintf "cannot diff against %s: %s\n" file msg;
                       exit 1
                   | Ok rows ->
                       Format.printf "%a@." Ggpu_pmu.Report.pp_diff rows;
                       let regressed =
                         List.filter (fun r -> r.Ggpu_pmu.Report.d_regressed) rows
                       in
                       if regressed <> [] then begin
                         Printf.eprintf "%d configuration(s) regressed\n"
                           (List.length regressed);
                         exit 1
                       end)));
           if
             List.exists
               (fun (e : Ggpu_pmu.Report.entry) -> not e.e_correct)
               entries
           then begin
             Printf.eprintf "some jobs produced wrong output\n";
             exit 1
           end

(* --- profile ------------------------------------------------------------- *)

let profile_cmd =
  let workload_term =
    let workloads =
      [ ("dse", `Dse); ("layout", `Layout); ("sim", `Sim); ("fi", `Fi);
        ("table1", `Table1) ]
    in
    let doc =
      Printf.sprintf "Workload to profile: %s." (Arg.doc_alts_enum workloads)
    in
    Arg.(value & pos 0 (closed workloads) `Dse & info [] ~doc ~docv:"WORKLOAD")
  in
  command "profile"
    ~doc:
      "Run a representative workload under the tracer and print the \
       per-span self-time table"
  @@ let+ tech = tech_term
     and+ spec = spec_term_of ~area:(Term.const None) ~power:(Term.const None)
     and+ workload = workload_term in
     fun () ->
       let open Ggpu_kernels in
       let cus = spec.Spec.num_cus in
       (* the whole point of this command is the span table *)
       Ggpu_obs.Trace.enable ();
       (match workload with
       | `Dse -> ignore (Flow.synthesise_timed ~tech spec)
       | `Layout -> ignore (Flow.implement ~tech spec)
       | `Sim ->
           let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
           List.iter
             (fun w ->
               let size = w.Suite.round_size (min 4096 w.Suite.ggpu_size) in
               ignore
                 (Run_fgpu.run ~config
                    (Codegen_fgpu.compile w.Suite.kernel)
                    ~args:(w.Suite.mk_args ~size)
                    ~global_size:(w.Suite.global_size ~size)
                    ~local_size:(min w.Suite.local_size size)
                    ()))
             Suite.all
       | `Fi ->
           ignore
             (Ggpu_fi.Campaign.run ~target:(Ggpu_fi.Campaign.Ggpu cus)
                ~workload:Suite.copy ~size:512 ~trials:200 ~seed:42 ())
       | `Table1 -> ignore (Versions.table1 ~tech ()));
       Format.printf "%a@." Ggpu_obs.Profile.pp_table
         (Ggpu_obs.Profile.self_times (Ggpu_obs.Trace.events ()))

(* --- trace-check --------------------------------------------------------- *)

let trace_check_cmd =
  let file_term =
    let doc = "Chrome trace-event JSON file to validate." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let run file =
    match Ggpu_obs.Trace.validate_file file with
    | Ok summary ->
        Format.printf "%s: ok, %a@." file Ggpu_obs.Trace.pp_summary summary
    | Error msg ->
        Printf.eprintf "%s: invalid trace: %s\n" file msg;
        exit 1
  in
  (* not [command]: a validator has no trace or metrics of its own *)
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a trace file written by --trace (used by CI)")
    Term.(const run $ file_term)

(* --- serve / client ------------------------------------------------------ *)

let socket_term =
  let doc = "Unix-domain socket path of the planning daemon." in
  Arg.(
    value
    & opt string "/tmp/ggpu_serve.sock"
    & info [ "socket" ] ~doc ~docv:"PATH")

let serve_cmd =
  let module Engine = Ggpu_serve.Engine in
  let domains_term =
    int_opt_some "domains" ~docv:"D"
      ~doc:
        "Domain-pool size shared by all request batches (default: the \
         runtime's recommended domain count)."
  in
  let cache_term =
    int_opt "cache-capacity" ~docv:"N" Engine.default_config.cache_capacity
      ~doc:"Memo-cache capacity in result entries (LRU per shard)."
  in
  let queue_term =
    int_opt "queue-capacity" ~docv:"N" Engine.default_config.queue_capacity
      ~doc:
        "Pending-request bound; requests beyond it are rejected with a \
         retry-after hint (backpressure)."
  in
  let recorder_term =
    int_opt "recorder" ~docv:"N" 256
      ~doc:
        "Flight-recorder capacity: span groups of the last N requests kept \
         for the dump control."
  in
  let slow_ms_term =
    int_opt "slow-ms" ~docv:"MS" 500
      ~doc:
        "Slow-request threshold in milliseconds: slower requests are logged \
         and pinned in the slow ring of the flight recorder."
  in
  command "serve"
    ~doc:
      "Run the planning daemon: a content-hash-cached, batching request \
       scheduler over a persistent domain pool, speaking newline-delimited \
       JSON on a Unix socket"
  @@ let+ socket = socket_term
     and+ domains = domains_term
     and+ cache_capacity = cache_term
     and+ queue_capacity = queue_term
     and+ recorder_capacity = recorder_term
     and+ slow_ms = slow_ms_term in
     fun () ->
       let engine_config =
         { Engine.default_config with cache_capacity; queue_capacity }
       in
       Ggpu_serve.Daemon.run ~engine_config ?domains ~recorder_capacity ~slow_ms
         ~log:prerr_endline ~socket ()

(* Rebuild a histogram snapshot from a stats reply, so the CLI derives
   its latency percentiles with the same cell-exact [hist_percentile]
   every other consumer of the registry uses. *)
let latency_hist_of_stats j kind =
  let module Json = Ggpu_obs.Json in
  let ints = function
    | Some (Json.List l) ->
        Some
          (List.filter_map
             (function Json.Int i -> Some i | _ -> None)
             l)
    | _ -> None
  in
  let int j m =
    match Json.member m j with Some (Json.Int i) -> i | _ -> 0
  in
  match
    Option.bind (Json.member "metrics" j) (Json.member "histograms")
    |> Fun.flip Option.bind (Json.member ("serve.latency." ^ kind))
  with
  | None -> None
  | Some h -> (
      match (ints (Json.member "bounds" h), ints (Json.member "counts" h)) with
      | Some bounds, Some counts ->
          Some
            {
              Ggpu_obs.Metrics.bounds;
              counts;
              sum = int h "sum";
              min_v = int h "min";
              max_v = int h "max";
            }
      | _ -> None)

let print_stats_latency j =
  List.iter
    (fun kind ->
      match latency_hist_of_stats j kind with
      | Some h when Ggpu_obs.Metrics.hist_total h > 0 ->
          let p q = Ggpu_obs.Metrics.hist_percentile h q in
          Printf.printf
            "latency %-5s p50<=%dus p99<=%dus p999<=%dus (n=%d)\n" kind
            (p 0.50) (p 0.99) (p 0.999)
            (Ggpu_obs.Metrics.hist_total h)
      | _ -> ())
    [ "sim"; "synth"; "perf" ]

let client_cmd =
  let module Client = Ggpu_serve.Client in
  let module Proto = Ggpu_serve.Proto in
  let ping_term =
    let doc = "Health-check the daemon and exit." in
    Arg.(value & flag & info [ "ping" ] ~doc)
  in
  let stats_term =
    let doc = "Print the daemon's metrics snapshot (after any replay)." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let shutdown_term =
    let doc = "Ask the daemon to drain in-flight work and exit (last)." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let replay_term =
    int_opt_some "replay" ~docv:"N"
      ~doc:"Replay N requests from the seeded workload mix."
  in
  let seed_term =
    let doc = "Workload-mix seed for --replay." in
    Arg.(value & opt int 7 & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let batch_term =
    int_opt "batch" ~docv:"N" 64
      ~doc:"Pipelining window for --replay (requests in flight)."
  in
  let min_hits_term =
    int_opt_some ~floor:0 "min-hits" ~docv:"N"
      ~doc:
        "Exit 1 unless at least N replayed responses were served from the \
         daemon's cache. Used by CI."
  in
  let kind_term =
    let kinds = [ ("synth", `Synth); ("sim", `Sim); ("perf", `Perf) ] in
    let doc = Printf.sprintf "Send one request: %s." (Arg.doc_alts_enum kinds) in
    Arg.(value & opt (some (closed kinds)) None & info [ "kind" ] ~doc ~docv:"KIND")
  in
  (* the request's own fields stay raw: the daemon checks them *)
  let kernel_term =
    let doc = "Kernel for a single sim/perf request." in
    Arg.(value & opt string "copy" & info [ "kernel" ] ~doc ~docv:"NAME")
  in
  let size_term =
    let doc = "Problem size for a single sim/perf request." in
    Arg.(value & opt int 256 & info [ "size" ] ~doc ~docv:"N")
  in
  let tech_name_term =
    let doc =
      Printf.sprintf "Technology model for requests: %s."
        (Arg.doc_alts_enum Ggpu_tech.Tech.by_name)
    in
    Arg.(value & opt string "65nm" & info [ "tech" ] ~doc ~docv:"NODE")
  in
  let deadline_term =
    let doc = "Per-request queueing deadline in milliseconds." in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~doc ~docv:"MS")
  in
  let action_term =
    let doc =
      "Optional action: $(b,dump) fetches the daemon's flight-recorder \
       trace (written to --out), $(b,scrape) prints its metrics registry \
       in text exposition format."
    in
    let actions = [ ("dump", `Dump); ("scrape", `Scrape) ] in
    Arg.(value & pos 0 (some (closed actions)) None & info [] ~doc ~docv:"ACTION")
  in
  let out_term =
    let doc = "Output file for the $(b,dump) action." in
    Arg.(value & opt string "trace.json" & info [ "out" ] ~doc ~docv:"FILE")
  in
  command "client"
    ~doc:
      "Talk to a running planning daemon: ping, replay a seeded workload, \
       send one request, dump its flight-recorder trace, scrape its \
       metrics, print stats, or shut it down"
  @@ let+ socket = socket_term
     and+ action = action_term
     and+ out = out_term
     and+ ping = ping_term
     and+ stats = stats_term
     and+ shutdown = shutdown_term
     and+ replay = replay_term
     and+ seed = seed_term
     and+ batch = batch_term
     and+ min_hits = min_hits_term
     and+ kind = kind_term
     and+ cus = cus_arg
     and+ freq_mhz = freq_arg
     and+ kernel = kernel_term
     and+ size = size_term
     and+ tech = tech_name_term
     and+ deadline_ms = deadline_term in
     fun () ->
       let c =
         try Client.connect ~socket
         with Unix.Unix_error (err, _, _) ->
           Printf.eprintf "cannot connect to %s: %s\n" socket
             (Unix.error_message err);
           exit 1
       in
       Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
       let failed = ref false in
       let fail msg =
         prerr_endline msg;
         failed := true
       in
       if ping then
         if Client.ping c then print_endline "pong" else fail "ping failed";
       Option.iter
         (fun n ->
           let reqs = Ggpu_serve.Workload.mix ~tech ~seed ~n () in
           let summary = Client.replay ~batch c reqs in
           print_endline (Ggpu_obs.Json.to_string (Client.summary_json summary));
           match min_hits with
           | Some k when summary.Client.cached < k ->
               fail
                 (Printf.sprintf "only %d/%d responses were cache hits (need %d)"
                    summary.Client.cached summary.Client.sent k)
           | _ -> ())
         replay;
       Option.iter
         (fun kind ->
           let kind =
             match kind with
             | `Synth -> Proto.Synth { cus; freq_mhz }
             | `Sim -> Proto.Sim { kernel; cus; size }
             | `Perf -> Proto.Perf { kernel; cus; size }
           in
           let req = Proto.mk_request ?deadline_ms ~tech ~id:1 kind in
           match Client.call c req with
           | Ok resp ->
               print_endline (Proto.response_to_line resp);
               if resp.Proto.status <> Proto.Done then failed := true
           | Error msg -> fail msg)
         kind;
       (match action with
       | None -> ()
       | Some `Scrape -> (
           match Client.scrape c with
           | Ok text -> print_string text
           | Error msg -> fail msg)
       | Some `Dump -> (
           match Client.dump c with
           | Ok j -> (
               match Ggpu_obs.Json.member "trace" j with
               | Some doc ->
                   let oc = open_out out in
                   output_string oc (Ggpu_obs.Json.to_string doc);
                   output_char oc '\n';
                   close_out oc;
                   let kept =
                     match Ggpu_obs.Json.member "kept" j with
                     | Some (Ggpu_obs.Json.Int n) -> n
                     | _ -> 0
                   in
                   Printf.printf "wrote %s (%d span groups)\n" out kept
               | None -> fail "dump reply carried no trace")
           | Error msg -> fail msg));
       if stats then (
         match Client.stats c with
         | Ok j ->
             print_endline (Ggpu_obs.Json.to_string j);
             print_stats_latency j
         | Error msg -> fail msg);
       if shutdown then
         if Client.shutdown c then print_endline "daemon stopping"
         else fail "shutdown failed";
       if !failed then exit 1

let () =
  let doc = "open-source generator of GPU-like ASIC accelerators" in
  let info = Cmd.info "gpuplanner" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synth_cmd; dse_cmd; map_cmd; layout_cmd; table1_cmd; versions_cmd;
            compare_cmd; run_cmd; bench_cmd; perf_report_cmd; fi_cmd;
            profile_cmd; trace_check_cmd; verilog_cmd; serve_cmd; client_cmd;
          ]))
