(* GPUPlanner command-line interface.

   Subcommands mirror the paper's Fig. 2 flow:

     gpuplanner synth   --cus 2 --freq 667          logic synthesis report
     gpuplanner map     --cus 1 --freq 667          print the optimisation map
     gpuplanner layout  --cus 8 --freq 667          full RTL-to-layout flow
     gpuplanner table1                              the 12 published versions
     gpuplanner compare [--kernel mat_mul]          RISC-V vs G-GPU
     gpuplanner run     --kernel copy --cus 4       simulate one kernel *)

open Cmdliner
open Ggpu_core

let tech_of_name = function
  | "65nm" -> Ok Ggpu_tech.Tech.default_65nm
  | "28nm" -> Ok Ggpu_tech.Tech.scaled_28nm
  | other -> Error (Printf.sprintf "unknown technology %s (65nm | 28nm)" other)

let tech_term =
  let doc = "Technology models to use: 65nm (default) or 28nm." in
  let arg = Arg.(value & opt string "65nm" & info [ "tech" ] ~doc ~docv:"NODE") in
  Term.(
    term_result ~usage:true
      (const (fun name ->
           Result.map_error (fun e -> `Msg e) (tech_of_name name))
      $ arg))

let cus_term =
  let doc = "Number of compute units (1..8, 16, 32 or 64)." in
  Arg.(value & opt int 1 & info [ "cus" ] ~doc ~docv:"N")

let freq_term =
  let doc = "Target frequency in MHz." in
  Arg.(value & opt int 500 & info [ "freq" ] ~doc ~docv:"MHZ")

let sim_domains_term =
  let doc =
    "Domain fan-out for the functional (record) pass $(i,inside) one \
     simulation. Simulated results are bit-identical for any value; at \
     1, a launch timed at one CU count runs in place."
  in
  Arg.(value & opt int 1 & info [ "sim-domains" ] ~doc ~docv:"D")

(* On subcommands with no job fan-out (run/compare) the record pass
   is the only domain knob, so --domains and --sim-domains name the
   same flag there. *)
let sim_domains_alias_term =
  let doc =
    "Domain fan-out for the functional (record) pass inside one \
     simulation. Simulated results are bit-identical for any value; at \
     1, a launch timed at one CU count runs in place."
  in
  Arg.(value & opt int 1 & info [ "domains"; "sim-domains" ] ~doc ~docv:"D")

let placer_conv =
  let parse = function
    | "columns" -> Ok Flow.Columns
    | "analytic" -> Ok Flow.Analytic
    | other ->
        Error (`Msg (Printf.sprintf "unknown placer %S (columns | analytic)" other))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with Flow.Columns -> "columns" | Flow.Analytic -> "analytic")
  in
  Arg.conv (parse, print)

let place_term =
  let doc =
    "Floorplan engine: $(b,columns) (the estimator's stacked columns, \
     the default) or $(b,analytic) (eplace-style analytical global \
     placement)."
  in
  Arg.(value & opt placer_conv Flow.Columns & info [ "place" ] ~doc ~docv:"ENGINE")

let place_domains_term =
  let doc =
    "Domain fan-out for the analytical placer's gradient evaluation. \
     The placement is bit-identical for any value."
  in
  Arg.(value & opt int 1 & info [ "place-domains" ] ~doc ~docv:"D")

let area_term =
  let doc = "Optional area budget in mm2." in
  Arg.(value & opt (some float) None & info [ "max-area" ] ~doc ~docv:"MM2")

let power_term =
  let doc = "Optional power budget in W." in
  Arg.(value & opt (some float) None & info [ "max-power" ] ~doc ~docv:"W")

(* CU counts, sizes and domain counts a launch would reject mid-run (or
   a domain pool would quietly run on one domain): checked before any
   work, so a bad value ends in one error line, not an uncaught
   exception. *)
let ( let* ) = Result.bind

let check_cus cus =
  match Compare.check_cu_counts cus with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (`Msg msg)

let check_size = function
  | Some size when size < 1 ->
      Error (`Msg (Printf.sprintf "size %d: must be at least 1" size))
  | _ -> Ok ()

(* [flag] names the option the count came from *)
let check_domains flag d =
  if d < 1 then Error (`Msg (Printf.sprintf "%s %d: must be at least 1" flag d))
  else Ok ()

let spec_of ~cus ~freq ~area ~power =
  try Ok (Spec.make ~max_area_mm2:area ~max_power_w:power ~num_cus:cus ~freq_mhz:freq ())
  with Spec.Invalid_spec msg -> Error (`Msg msg)

let handle_dse_errors f =
  try f () with
  | Dse.Cannot_meet { period_ns; best_ns; detail } ->
      Printf.eprintf
        "cannot meet %.3f ns: best achievable %.3f ns (%.0f MHz); %s\n"
        period_ns best_ns (1000.0 /. best_ns) detail;
      exit 1

(* --- observability ------------------------------------------------------ *)

(* Every subcommand accepts --trace/--metrics/-v; the options record is
   threaded through [with_obs], which arms the tracer and the ambient
   metrics before the command body and exports/prints afterwards. *)
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
  Term.(
    const (fun trace metrics log_level -> { trace; metrics; log_level })
    $ trace $ metrics $ Logs_cli.level ())

let with_obs obs f =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level obs.log_level;
  if Option.is_some obs.trace then Ggpu_obs.Trace.enable ();
  if obs.metrics then Ggpu_obs.Metrics.set_ambient_enabled true;
  let result = f () in
  (match obs.trace with
  | Some path ->
      Ggpu_obs.Trace.export ~path;
      Printf.printf "wrote trace %s (%d events)\n" path
        (List.length (Ggpu_obs.Trace.events ()))
  | None -> ());
  if obs.metrics then
    Format.printf "%a@." Ggpu_obs.Metrics.pp_snapshot
      (Ggpu_obs.Metrics.ambient_snapshot ());
  result

(* --- synth ------------------------------------------------------------- *)

let synth_run obs tech cus freq area power =
  match spec_of ~cus ~freq ~area ~power with
  | Error e -> Error e
  | Ok spec ->
      handle_dse_errors (fun () ->
          with_obs obs @@ fun () ->
          let syn = Flow.synthesise_timed ~tech spec in
          print_endline Ggpu_synth.Report.header;
          print_endline (Ggpu_synth.Report.row_to_string syn.Flow.syn_report);
          Printf.printf "(%d divisions, %d pipelines; see 'map' for detail)\n"
            (Map.divisions syn.Flow.syn_map)
            (Map.pipelines syn.Flow.syn_map);
          Format.printf "perf: %a@." Dse.pp_perf syn.Flow.syn_perf;
          Ok ())

let synth_term =
  Term.(
    term_result ~usage:false
      (const synth_run $ obs_term $ tech_term $ cus_term $ freq_term
     $ area_term $ power_term))

let synth_cmd =
  Cmd.v (Cmd.info "synth" ~doc:"Logic synthesis of one G-GPU version") synth_term

(* --- dse ---------------------------------------------------------------- *)

(* The exploration is where the planner spends its time, so it gets a
   first-class subcommand: same flow as [synth], surfaced under the
   name the profiling docs use ([gpuplanner dse --trace out.json]). *)
let dse_cmd =
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Run the design-space exploration for one version (synth alias, \
          the natural target for --trace/--metrics)")
    synth_term

(* --- map --------------------------------------------------------------- *)

let map_cmd =
  let run obs tech cus freq area power =
    match spec_of ~cus ~freq ~area ~power with
    | Error e -> Error e
    | Ok spec ->
        handle_dse_errors (fun () ->
            with_obs obs @@ fun () ->
            let _nl, map, _report = Flow.synthesise ~tech spec in
            Format.printf "%a" Map.pp map;
            Ok ())
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ tech_term $ cus_term $ freq_term $ area_term
       $ power_term))
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:
         "Print the optimisation map (memory divisions and pipeline \
          insertions) for a target")
    term

(* --- layout ------------------------------------------------------------ *)

let layout_cmd =
  let check_determinism_term =
    let doc =
      "Re-run the analytical placer at 1, 2 and --place-domains domains \
       and exit 1 unless all floorplans are identical (requires --place \
       analytic). Used by CI."
    in
    Arg.(value & flag & info [ "check-determinism" ] ~doc)
  in
  let run obs tech cus freq area power place place_domains check_det =
    let* () = check_domains "place-domains" place_domains in
    match spec_of ~cus ~freq ~area ~power with
    | Error e -> Error e
    | Ok spec ->
        if check_det && place <> Flow.Analytic then
          Error (`Msg "--check-determinism requires --place analytic")
        else
          handle_dse_errors (fun () ->
              with_obs obs @@ fun () ->
              let impl = Flow.implement ~tech ~place ~place_domains spec in
              Format.printf "%a" Flow.pp_implementation impl;
              print_string (Ggpu_layout.Render.render impl.Flow.floorplan);
              Format.printf "%a@." Ggpu_layout.Timing_post.pp
                impl.Flow.post_timing;
              Printf.printf "wirelength per layer (um):\n";
              Format.printf "%a" Ggpu_layout.Route.pp impl.Flow.route;
              Printf.printf "phases:";
              List.iter
                (fun (name, s) -> Printf.printf " %s=%.3fs" name s)
                impl.Flow.phases;
              Format.printf "@.perf: %a@." Dse.pp_perf impl.Flow.dse_perf;
              if check_det then begin
                (* the flow placed at [place_domains]; replaying the
                   placement on the explored netlist at other pool sizes
                   must reproduce that floorplan bit for bit *)
                let replay domains =
                  (Ggpu_layout.Place.place ~domains tech impl.Flow.netlist
                     ~num_cus:spec.Spec.num_cus)
                    .Ggpu_layout.Place.floorplan
                in
                let domains_checked =
                  List.sort_uniq Int.compare [ 1; 2; place_domains ]
                in
                let mismatches =
                  List.filter
                    (fun d -> replay d <> impl.Flow.floorplan)
                    domains_checked
                in
                if mismatches = [] then
                  Printf.printf
                    "placer determinism: floorplan identical at %s domain(s)\n"
                    (String.concat ", "
                       (List.map string_of_int domains_checked))
                else begin
                  Printf.eprintf
                    "placer NOT deterministic: floorplan differs at %s \
                     domain(s)\n"
                    (String.concat ", " (List.map string_of_int mismatches));
                  exit 1
                end
              end;
              Ok ())
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ tech_term $ cus_term $ freq_term $ area_term
       $ power_term $ place_term $ place_domains_term
       $ check_determinism_term))
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Full RTL-to-layout implementation of one version")
    term

(* --- table1 ------------------------------------------------------------ *)

let table1_cmd =
  let run obs tech =
    with_obs obs @@ fun () ->
    print_endline Ggpu_synth.Report.header;
    List.iter
      (fun r -> print_endline (Ggpu_synth.Report.row_to_string r))
      (Versions.table1 ~tech ());
    Ok ()
  in
  let term =
    Term.(term_result ~usage:false (const run $ obs_term $ tech_term))
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate the paper's Table I (12 versions)")
    term

(* --- versions ----------------------------------------------------------- *)

(* The scaling study: full implementations over an explicit CU grid.
   Unsupported counts fail up front with the generator's accepted list;
   nothing is clamped to the paper grid. *)
let versions_cmd =
  let cus_list_term =
    let doc =
      "Comma-separated CU counts to implement (each 1..8, 16, 32 or 64)."
    in
    Arg.(
      value
      & opt (list int) Versions.scaling_cu_counts
      & info [ "cus" ] ~doc ~docv:"N,..")
  in
  let freq_term =
    let doc = "Target frequency in MHz for every version." in
    Arg.(value & opt int 667 & info [ "freq" ] ~doc ~docv:"MHZ")
  in
  let run obs tech cus_list freq place place_domains =
    let* () = check_domains "place-domains" place_domains in
    with_obs obs @@ fun () ->
    match
      handle_dse_errors (fun () ->
          Versions.scaling ~tech ~place ~place_domains ~freq_mhz:freq
            ~cu_counts:cus_list ())
    with
    | exception Invalid_argument msg -> Error (`Msg msg)
    | exception Spec.Invalid_spec msg -> Error (`Msg msg)
    | impls ->
        Printf.printf "%4s %7s %9s %7s %10s %12s %s\n" "cus" "target"
          "achieved" "derate" "area_mm2" "wire_mm" "check";
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
                  String.concat "; "
                    (List.map Spec.violation_to_string vs)))
          impls;
        Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ tech_term $ cus_list_term $ freq_term
       $ place_term $ place_domains_term))
  in
  Cmd.v
    (Cmd.info "versions"
       ~doc:
         "Implement a CU-count grid end to end (the >8-CU scaling study: \
          contention derate, floorplan engine selection)")
    term

(* --- compare ----------------------------------------------------------- *)

let kernel_term =
  let doc = "Restrict to one kernel (default: all seven)." in
  Arg.(value & opt (some string) None & info [ "kernel" ] ~doc ~docv:"NAME")

let compare_cmd =
  let cus_list_term =
    let doc =
      "Comma-separated CU counts to compare (each 1..8, 16, 32 or 64)."
    in
    Arg.(
      value
      & opt (list int) Compare.cu_counts
      & info [ "cus" ] ~doc ~docv:"N,..")
  in
  let run obs tech kernel cus_list sim_domains =
    let* () = check_domains "domains" sim_domains in
    with_obs obs @@ fun () ->
    let workloads =
      match kernel with
      | None -> Ggpu_kernels.Suite.all
      | Some name -> (
          try [ Ggpu_kernels.Suite.find name ]
          with Invalid_argument msg ->
            prerr_endline msg;
            exit 1)
    in
    match
      Compare.table3 ~workloads ~domains:sim_domains ~cu_counts:cus_list ()
    with
    | exception Invalid_argument msg -> Error (`Msg msg)
    | rows ->
        Format.printf "%a@." Compare.pp_table3 rows;
        let speedups = Compare.speedups ~tech rows in
        Format.printf "%a@." (Compare.pp_speedups ~label:"raw") speedups;
        Format.printf "%a@." (Compare.pp_speedups ~label:"derated") speedups;
        Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ tech_term $ kernel_term $ cus_list_term
       $ sim_domains_alias_term))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run the benchmark suite on RISC-V and G-GPU (Table III, Figs. 5-6)")
    term

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let size_term =
    let doc = "Problem size (work-items); default: the workload's G-GPU size." in
    Arg.(value & opt (some int) None & info [ "size" ] ~doc ~docv:"N")
  in
  let kernel_req =
    let doc = "Kernel to run (mat_mul copy vec_mul fir div_int xcorr \
               parallel_sel)." in
    Arg.(required & opt (some string) None & info [ "kernel" ] ~doc ~docv:"NAME")
  in
  let pmu_term =
    let doc =
      "Attach the performance-monitoring unit: per-CU cycle-attribution \
       buckets, bottleneck classification and a hot-PC profile (results \
       stay bit-identical)."
    in
    Arg.(value & flag & info [ "pmu" ] ~doc)
  in
  let run obs cus name size pmu sim_domains =
    let* () = check_cus [ cus ] in
    let* () = check_size size in
    let* () = check_domains "domains" sim_domains in
    with_obs obs @@ fun () ->
    let w =
      try Ggpu_kernels.Suite.find name
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    in
    let size =
      w.Ggpu_kernels.Suite.round_size
        (Option.value ~default:w.Ggpu_kernels.Suite.ggpu_size size)
    in
    let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
    let args = w.Ggpu_kernels.Suite.mk_args ~size in
    let compiled =
      Ggpu_kernels.Codegen_fgpu.compile w.Ggpu_kernels.Suite.kernel
    in
    let collector =
      if pmu then
        Some
          (Ggpu_pmu.Pmu.create ~num_cus:cus
             ~prog_len:(Array.length compiled.Ggpu_kernels.Codegen_fgpu.code)
             ())
      else None
    in
    let result =
      Ggpu_kernels.Run_fgpu.run ~config ?pmu:collector ~domains:sim_domains
        compiled ~args
        ~global_size:(w.Ggpu_kernels.Suite.global_size ~size)
        ~local_size:(min w.Ggpu_kernels.Suite.local_size size)
        ()
    in
    let stats = result.Ggpu_kernels.Run_fgpu.stats in
    Format.printf "%s size=%d on %d CU: %a@." name size cus Ggpu_fgpu.Stats.pp
      stats;
    (match collector with
    | Some c ->
        let summary =
          Ggpu_pmu.Pmu.summarize c
            ~program:compiled.Ggpu_kernels.Codegen_fgpu.code
        in
        Format.printf "pmu (%s):@.%a@.hot PCs (stride %d, %d samples):@.%a@."
          (Ggpu_pmu.Report.classify summary)
          Ggpu_pmu.Pmu.pp_summary summary summary.Ggpu_pmu.Pmu.s_stride
          summary.Ggpu_pmu.Pmu.s_samples
          (fun fmt s -> Ggpu_pmu.Pmu.pp_hot fmt s)
          summary
    | None -> ());
    let expected = w.Ggpu_kernels.Suite.expected ~size args in
    let actual =
      Ggpu_kernels.Run_fgpu.output result w.Ggpu_kernels.Suite.output_buffer
    in
    if expected = actual then Format.printf "output verified@."
    else begin
      Format.printf "OUTPUT MISMATCH@.";
      exit 1
    end;
    Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ cus_term $ kernel_req $ size_term $ pmu_term
       $ sim_domains_alias_term))
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one kernel on the G-GPU") term

(* --- fi ----------------------------------------------------------------- *)

let fi_cmd =
  let kernel_req =
    let doc = "Kernel to run (mat_mul copy vec_mul fir div_int xcorr \
               parallel_sel)." in
    Arg.(required & opt (some string) None & info [ "kernel" ] ~doc ~docv:"NAME")
  in
  let target_term =
    let doc = "Target machine: ggpu (with --cus) or riscv." in
    Arg.(value & opt string "ggpu" & info [ "target" ] ~doc ~docv:"MACHINE")
  in
  let trials_term =
    let doc = "Number of injected trials." in
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc ~docv:"N")
  in
  let seed_term =
    let doc = "Campaign seed; fixes the whole trial list." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let size_term =
    let doc = "Problem size in work-items (default: a per-target size \
               that keeps the campaign tractable)." in
    Arg.(value & opt (some int) None & info [ "size" ] ~doc ~docv:"N")
  in
  let domains_term =
    let doc = "Domain-pool size for the trial fan-out (1 = serial)." in
    Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"D")
  in
  let expect_term =
    let doc =
      "Expected classification signature (as printed by a previous run); \
       exit 1 on drift. Used by CI."
    in
    Arg.(value & opt (some string) None & info [ "expect" ] ~doc ~docv:"SIG")
  in
  let run obs cus kernel target trials seed size domains expect =
    let* () = check_cus [ cus ] in
    let* () = check_size size in
    let* () = check_domains "domains" (Option.value domains ~default:1) in
    with_obs obs @@ fun () ->
    let w =
      try Ggpu_kernels.Suite.find kernel
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    in
    let target =
      match target with
      | "ggpu" -> Ggpu_fi.Campaign.Ggpu cus
      | "riscv" -> Ggpu_fi.Campaign.Rv32
      | other ->
          Printf.eprintf "unknown target %s (ggpu | riscv)\n" other;
          exit 1
    in
    let size =
      match size with
      | Some s -> s
      | None -> (
          match target with
          | Ggpu_fi.Campaign.Ggpu _ ->
              min 2048 w.Ggpu_kernels.Suite.ggpu_size
          | Ggpu_fi.Campaign.Rv32 -> w.Ggpu_kernels.Suite.riscv_size)
    in
    let report =
      Ggpu_fi.Campaign.run ?domains ~target ~workload:w ~size ~trials ~seed ()
    in
    Format.printf "%a@." Ggpu_fi.Campaign.pp_report report;
    let signature = Ggpu_fi.Campaign.signature report in
    Printf.printf "signature: %s\n" signature;
    (match expect with
    | Some expected when not (String.equal expected signature) ->
        Printf.eprintf "classification drift!\n  expected %s\n  got      %s\n"
          expected signature;
        exit 1
    | _ -> ());
    Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ cus_term $ kernel_req $ target_term
       $ trials_term $ seed_term $ size_term $ domains_term $ expect_term))
  in
  Cmd.v
    (Cmd.info "fi"
       ~doc:
         "Fault-injection campaign: single-bit upsets classified as \
          masked/SDC/DUE/hang, with per-structure AVF")
    term

(* --- bench -------------------------------------------------------------- *)

(* The (kernel x CU-count) grid on the domain pool: the CLI face of
   {!Ggpu_kernels.Suite_runner}.  Results and merged metrics are
   deterministic for any --domains; only wall times vary. *)
let bench_cmd =
  let cus_grid_term =
    let doc = "Comma-separated CU counts forming the grid." in
    Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "cus" ] ~doc ~docv:"N,..")
  in
  let domains_term =
    let doc =
      "Domain-pool size for the job fan-out (1 = serial; default: the \
       runtime's recommended domain count)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"D")
  in
  let run obs domains cus_list sim_domains =
    let* () = check_cus cus_list in
    let* () = check_domains "domains" (Option.value domains ~default:1) in
    let* () = check_domains "sim-domains" sim_domains in
    with_obs obs @@ fun () ->
    let domains =
      Option.value domains ~default:(Ggpu_par.Parallel.default_domains ())
    in
    Ggpu_obs.Trace.with_span "bench.suite"
      ~args:[ ("domains", string_of_int domains) ]
    @@ fun () ->
    Ggpu_obs.Metrics.record_gauge "bench.domains" domains;
    let jobs = Ggpu_kernels.Suite_runner.grid ~cu_counts:cus_list () in
    let t0 = Ggpu_obs.Metrics.now_ns () in
    let results, merged =
      Ggpu_kernels.Suite_runner.run ~domains ~sim_domains jobs
    in
    let wall_ns = max 1 (Ggpu_obs.Metrics.now_ns () - t0) in
    Printf.printf "%-20s %8s %10s %10s %12s %6s\n" "job" "size" "cycles"
      "wf insns" "cycles/s" "ok";
    List.iter
      (fun (r : Ggpu_kernels.Suite_runner.result) ->
        let s = r.Ggpu_kernels.Suite_runner.stats in
        Printf.printf "%-20s %8d %10d %10d %12.3e %6s\n"
          (Ggpu_kernels.Suite_runner.job_name r.Ggpu_kernels.Suite_runner.job)
          r.Ggpu_kernels.Suite_runner.job.Ggpu_kernels.Suite_runner.size
          s.Ggpu_fgpu.Stats.cycles s.Ggpu_fgpu.Stats.wf_instructions
          (float_of_int s.Ggpu_fgpu.Stats.cycles
          /. (float_of_int (max 1 r.Ggpu_kernels.Suite_runner.wall_ns)
             /. 1e9))
          (if r.Ggpu_kernels.Suite_runner.correct then "yes" else "NO"))
      results;
    let total_cycles =
      List.fold_left
        (fun acc (r : Ggpu_kernels.Suite_runner.result) ->
          acc + r.Ggpu_kernels.Suite_runner.stats.Ggpu_fgpu.Stats.cycles)
        0 results
    in
    Printf.printf
      "grid: %d jobs on %d domains | %.3e simulated cycles in %.3fs wall \
       (%.3e cycles/s)\n"
      (List.length results) domains
      (float_of_int total_cycles)
      (float_of_int wall_ns /. 1e9)
      (float_of_int total_cycles /. (float_of_int wall_ns /. 1e9));
    Format.printf "merged (deterministic) metrics: %a@."
      Ggpu_obs.Metrics.pp_snapshot merged;
    let failures =
      List.filter
        (fun (r : Ggpu_kernels.Suite_runner.result) ->
          not r.Ggpu_kernels.Suite_runner.correct)
        results
    in
    if failures <> [] then begin
      Printf.eprintf "%d job(s) produced wrong output\n" (List.length failures);
      exit 1
    end;
    Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ domains_term $ cus_grid_term $ sim_domains_term))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the kernel suite over a CU-count grid on the domain pool, \
          verifying every output against the OCaml reference")
    term

(* --- perf-report --------------------------------------------------------- *)

(* PMU-instrumented kernelxCU grid: writes PERF_REPORT.json with per-CU
   stall buckets, hot PCs and a bottleneck classification per kernel;
   optionally gates PMU overhead against an uninstrumented pass of the
   same grid and diffs cycle counts against a baseline report.  The CI
   smoke job drives all three modes. *)
let perf_report_cmd =
  let cus_grid_term =
    let doc = "Comma-separated CU counts forming the grid." in
    Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "cus" ] ~doc ~docv:"N,..")
  in
  let domains_term =
    let doc = "Domain-pool size for the job fan-out (1 = serial)." in
    Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"D")
  in
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
    let doc = "Hot-PC sampling period in cycles." in
    Arg.(value & opt int 64 & info [ "stride" ] ~doc ~docv:"N")
  in
  let run obs domains cus_list kernel out baseline max_regress max_overhead
      check stride sim_domains =
    let* () = check_cus cus_list in
    let* () = check_domains "domains" (Option.value domains ~default:1) in
    let* () = check_domains "sim-domains" sim_domains in
    match check with
    | Some file -> (
        match Ggpu_pmu.Report.validate_file file with
        | Ok n ->
            Printf.printf "%s: ok, %d kernel entries\n" file n;
            Ok ()
        | Error msg ->
            Printf.eprintf "%s: invalid perf report: %s\n" file msg;
            exit 1)
    | None ->
        with_obs obs @@ fun () ->
        let workloads =
          match kernel with
          | None -> Ggpu_kernels.Suite.all
          | Some name -> (
              try [ Ggpu_kernels.Suite.find name ]
              with Invalid_argument msg ->
                prerr_endline msg;
                exit 1)
        in
        let domains =
          Option.value domains ~default:(Ggpu_par.Parallel.default_domains ())
        in
        let jobs =
          Ggpu_kernels.Suite_runner.grid ~workloads ~cu_counts:cus_list ()
        in
        let job_wall results =
          List.fold_left
            (fun acc (r : Ggpu_kernels.Suite_runner.result) ->
              acc + r.Ggpu_kernels.Suite_runner.wall_ns)
            1 results
        in
        (* uninstrumented pass first (also warms the code paths), so the
           overhead gate compares like against like *)
        let bare_wall =
          match max_overhead with
          | None -> None
          | Some _ ->
              let bare, _ =
                Ggpu_kernels.Suite_runner.run ~domains ~sim_domains jobs
              in
              Some (job_wall bare)
        in
        let results, _merged =
          Ggpu_kernels.Suite_runner.run ~domains ~pmu:true ~pmu_stride:stride
            ~sim_domains jobs
        in
        let entries =
          List.map
            (fun (r : Ggpu_kernels.Suite_runner.result) ->
              let j = r.Ggpu_kernels.Suite_runner.job in
              let stats = r.Ggpu_kernels.Suite_runner.stats in
              {
                Ggpu_pmu.Report.e_kernel =
                  j.Ggpu_kernels.Suite_runner.workload.Ggpu_kernels.Suite.name;
                e_cus = j.Ggpu_kernels.Suite_runner.cus;
                e_size = j.Ggpu_kernels.Suite_runner.size;
                e_correct = r.Ggpu_kernels.Suite_runner.correct;
                e_stats = Ggpu_fgpu.Stats.to_assoc stats;
                e_hit_rate = Ggpu_fgpu.Stats.hit_rate stats;
                e_summary =
                  Option.get r.Ggpu_kernels.Suite_runner.pmu;
              })
            results
        in
        Ggpu_pmu.Report.write ~path:out entries;
        Printf.printf "%-20s %10s %8s %-18s %s\n" "job" "cycles" "ok"
          "classification" "hottest pc";
        List.iter
          (fun (e : Ggpu_pmu.Report.entry) ->
            let s = e.Ggpu_pmu.Report.e_summary in
            Printf.printf "%-20s %10d %8s %-18s %s\n"
              (Printf.sprintf "%s/%dcu" e.Ggpu_pmu.Report.e_kernel
                 e.Ggpu_pmu.Report.e_cus)
              s.Ggpu_pmu.Pmu.s_cycles
              (if e.Ggpu_pmu.Report.e_correct then "yes" else "NO")
              (Ggpu_pmu.Report.classify s)
              (match s.Ggpu_pmu.Pmu.s_hot with
              | (pc, insn, _) :: _ -> Printf.sprintf "%d: %s" pc insn
              | [] -> "-"))
          entries;
        (match Ggpu_pmu.Report.validate_file out with
        | Ok n -> Printf.printf "wrote %s (%d kernel entries, validated)\n" out n
        | Error msg ->
            Printf.eprintf "%s failed self-validation: %s\n" out msg;
            exit 1);
        (match (max_overhead, bare_wall) with
        | Some limit, Some bare ->
            let pmu_wall = job_wall results in
            let pct =
              100.0 *. float_of_int (pmu_wall - bare) /. float_of_int bare
            in
            Printf.printf "PMU overhead: %+.2f%% of grid wall time (limit %.1f%%)\n"
              pct limit;
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
                      List.filter
                        (fun r -> r.Ggpu_pmu.Report.d_regressed)
                        rows
                    in
                    if regressed <> [] then begin
                      Printf.eprintf "%d configuration(s) regressed\n"
                        (List.length regressed);
                      exit 1
                    end)));
        if
          List.exists
            (fun (e : Ggpu_pmu.Report.entry) ->
              not e.Ggpu_pmu.Report.e_correct)
            entries
        then begin
          Printf.eprintf "some jobs produced wrong output\n";
          exit 1
        end;
        Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ domains_term $ cus_grid_term $ kernel_term
       $ out_term $ baseline_term $ max_regress_term $ max_overhead_term
       $ check_term $ stride_term $ sim_domains_term))
  in
  Cmd.v
    (Cmd.info "perf-report"
       ~doc:
         "Run the kernel suite with the PMU attached, write \
          PERF_REPORT.json (per-CU stall buckets, hot PCs, bottleneck \
          classification), and optionally gate overhead or diff against \
          a baseline")
    term

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let workload_term =
    let doc = "Workload to profile: dse | layout | sim | fi | table1." in
    Arg.(value & pos 0 string "dse" & info [] ~doc ~docv:"WORKLOAD")
  in
  let run obs tech cus freq workload =
    let* () = check_cus [ cus ] in
    with_obs obs @@ fun () ->
    (* the whole point of this command is the span table *)
    Ggpu_obs.Trace.enable ();
    let spec () =
      match spec_of ~cus ~freq ~area:None ~power:None with
      | Ok s -> s
      | Error (`Msg m) ->
          prerr_endline m;
          exit 1
    in
    (match workload with
    | "dse" ->
        handle_dse_errors (fun () ->
            ignore (Flow.synthesise_timed ~tech (spec ())))
    | "layout" ->
        handle_dse_errors (fun () -> ignore (Flow.implement ~tech (spec ())))
    | "sim" ->
        let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
        List.iter
          (fun w ->
            let size =
              w.Ggpu_kernels.Suite.round_size
                (min 4096 w.Ggpu_kernels.Suite.ggpu_size)
            in
            let compiled =
              Ggpu_kernels.Codegen_fgpu.compile w.Ggpu_kernels.Suite.kernel
            in
            ignore
              (Ggpu_kernels.Run_fgpu.run ~config compiled
                 ~args:(w.Ggpu_kernels.Suite.mk_args ~size)
                 ~global_size:(w.Ggpu_kernels.Suite.global_size ~size)
                 ~local_size:(min w.Ggpu_kernels.Suite.local_size size)
                 ()))
          Ggpu_kernels.Suite.all
    | "fi" ->
        ignore
          (Ggpu_fi.Campaign.run ~target:(Ggpu_fi.Campaign.Ggpu cus)
             ~workload:(Ggpu_kernels.Suite.find "copy")
             ~size:512 ~trials:200 ~seed:42 ())
    | "table1" -> ignore (Versions.table1 ~tech ())
    | other ->
        Printf.eprintf "unknown workload %s (dse|layout|sim|fi|table1)\n" other;
        exit 1);
    Format.printf "%a@." Ggpu_obs.Profile.pp_table
      (Ggpu_obs.Profile.self_times (Ggpu_obs.Trace.events ()));
    Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ tech_term $ cus_term $ freq_term
       $ workload_term))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a representative workload under the tracer and print the \
          per-span self-time table")
    term

(* --- trace-check -------------------------------------------------------- *)

let trace_check_cmd =
  let file_term =
    let doc = "Chrome trace-event JSON file to validate." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let run file =
    match Ggpu_obs.Trace.validate_file file with
    | Ok summary ->
        Format.printf "%s: ok, %a@." file Ggpu_obs.Trace.pp_summary summary;
        Ok ()
    | Error msg ->
        Printf.eprintf "%s: invalid trace: %s\n" file msg;
        exit 1
  in
  let term = Term.(term_result ~usage:false (const run $ file_term)) in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a trace file written by --trace (used by CI)")
    term

(* --- verilog ------------------------------------------------------------ *)

let verilog_cmd =
  let out_term =
    let doc = "Output file (default: ggpu_<N>cu.v)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let run obs tech cus freq area power out =
    match spec_of ~cus ~freq ~area ~power with
    | Error e -> Error e
    | Ok spec ->
        handle_dse_errors (fun () ->
            with_obs obs @@ fun () ->
            let netlist, _map, _report = Flow.synthesise ~tech spec in
            let path =
              Option.value ~default:(Printf.sprintf "ggpu_%dcu.v" cus) out
            in
            Ggpu_hw.Verilog.write netlist ~path;
            Printf.printf "wrote %s (%d cells, %d nets)
" path
              (Ggpu_hw.Netlist.cell_count netlist)
              (Ggpu_hw.Netlist.net_count netlist);
            Ok ())
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ tech_term $ cus_term $ freq_term $ area_term
       $ power_term $ out_term))
  in
  Cmd.v
    (Cmd.info "verilog"
       ~doc:"Export the optimised netlist as structural Verilog")
    term

(* --- serve / client ------------------------------------------------------ *)

let socket_term =
  let doc = "Unix-domain socket path of the planning daemon." in
  Arg.(
    value
    & opt string "/tmp/ggpu_serve.sock"
    & info [ "socket" ] ~doc ~docv:"PATH")

let serve_cmd =
  let domains_term =
    let doc =
      "Domain-pool size shared by all request batches (default: the \
       runtime's recommended domain count)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"D")
  in
  let cache_term =
    let doc = "Memo-cache capacity in result entries (LRU per shard)." in
    Arg.(
      value
      & opt int Ggpu_serve.Engine.default_config.Ggpu_serve.Engine.cache_capacity
      & info [ "cache-capacity" ] ~doc ~docv:"N")
  in
  let queue_term =
    let doc =
      "Pending-request bound; requests beyond it are rejected with a \
       retry-after hint (backpressure)."
    in
    Arg.(
      value
      & opt int Ggpu_serve.Engine.default_config.Ggpu_serve.Engine.queue_capacity
      & info [ "queue-capacity" ] ~doc ~docv:"N")
  in
  let recorder_term =
    let doc =
      "Flight-recorder capacity: span groups of the last N requests kept \
       for the dump control."
    in
    Arg.(value & opt int 256 & info [ "recorder" ] ~doc ~docv:"N")
  in
  let slow_ms_term =
    let doc =
      "Slow-request threshold in milliseconds: slower requests are logged \
       and pinned in the slow ring of the flight recorder."
    in
    Arg.(value & opt int 500 & info [ "slow-ms" ] ~doc ~docv:"MS")
  in
  let run obs socket domains cache_capacity queue_capacity recorder_capacity
      slow_ms =
    let* () = check_domains "domains" (Option.value domains ~default:1) in
    with_obs obs @@ fun () ->
    let engine_config =
      {
        Ggpu_serve.Engine.default_config with
        Ggpu_serve.Engine.cache_capacity;
        queue_capacity;
      }
    in
    Ggpu_serve.Daemon.run ~engine_config ?domains ~recorder_capacity ~slow_ms
      ~log:prerr_endline ~socket ();
    Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ socket_term $ domains_term $ cache_term
       $ queue_term $ recorder_term $ slow_ms_term))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the planning daemon: a content-hash-cached, batching request \
          scheduler over a persistent domain pool, speaking \
          newline-delimited JSON on a Unix socket")
    term

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
    let doc = "Replay N requests from the seeded workload mix." in
    Arg.(value & opt (some int) None & info [ "replay" ] ~doc ~docv:"N")
  in
  let seed_term =
    let doc = "Workload-mix seed for --replay." in
    Arg.(value & opt int 7 & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let batch_term =
    let doc = "Pipelining window for --replay (requests in flight)." in
    Arg.(value & opt int 64 & info [ "batch" ] ~doc ~docv:"N")
  in
  let min_hits_term =
    let doc =
      "Exit 1 unless at least N replayed responses were served from the \
       daemon's cache. Used by CI."
    in
    Arg.(value & opt (some int) None & info [ "min-hits" ] ~doc ~docv:"N")
  in
  let kind_term =
    let doc = "Send one request: synth | sim | perf." in
    Arg.(value & opt (some string) None & info [ "kind" ] ~doc ~docv:"KIND")
  in
  let kernel_term =
    let doc = "Kernel for a single sim/perf request." in
    Arg.(value & opt string "copy" & info [ "kernel" ] ~doc ~docv:"NAME")
  in
  let size_term =
    let doc = "Problem size for a single sim/perf request." in
    Arg.(value & opt int 256 & info [ "size" ] ~doc ~docv:"N")
  in
  let tech_name_term =
    let doc = "Technology model for requests: 65nm or 28nm." in
    Arg.(value & opt string "65nm" & info [ "tech" ] ~doc ~docv:"NODE")
  in
  let deadline_term =
    let doc = "Per-request queueing deadline in milliseconds." in
    Arg.(
      value & opt (some int) None & info [ "deadline-ms" ] ~doc ~docv:"MS")
  in
  let action_term =
    let doc =
      "Optional action: $(b,dump) fetches the daemon's flight-recorder \
       trace (written to --out), $(b,scrape) prints its metrics registry \
       in text exposition format."
    in
    Arg.(value & pos 0 (some string) None & info [] ~doc ~docv:"ACTION")
  in
  let out_term =
    let doc = "Output file for the $(b,dump) action." in
    Arg.(value & opt string "trace.json" & info [ "out" ] ~doc ~docv:"FILE")
  in
  let run obs socket action out ping stats shutdown replay seed batch
      min_hits kind cus freq kernel size tech deadline_ms =
    with_obs obs @@ fun () ->
    let c =
      try Ggpu_serve.Client.connect ~socket
      with Unix.Unix_error (err, _, _) ->
        Printf.eprintf "cannot connect to %s: %s\n" socket
          (Unix.error_message err);
        exit 1
    in
    Fun.protect ~finally:(fun () -> Ggpu_serve.Client.close c) @@ fun () ->
    let failed = ref false in
    if ping then
      if Ggpu_serve.Client.ping c then print_endline "pong"
      else begin
        prerr_endline "ping failed";
        failed := true
      end;
    (match replay with
    | None -> ()
    | Some n ->
        let reqs = Ggpu_serve.Workload.mix ~tech ~seed ~n () in
        let summary = Ggpu_serve.Client.replay ~batch c reqs in
        print_endline
          (Ggpu_obs.Json.to_string (Ggpu_serve.Client.summary_json summary));
        (match min_hits with
        | Some k when summary.Ggpu_serve.Client.cached < k ->
            Printf.eprintf "only %d/%d responses were cache hits (need %d)\n"
              summary.Ggpu_serve.Client.cached summary.Ggpu_serve.Client.sent
              k;
            failed := true
        | _ -> ()));
    (match kind with
    | None -> ()
    | Some kind_s ->
        let kind =
          match kind_s with
          | "synth" -> Ggpu_serve.Proto.Synth { cus; freq_mhz = freq }
          | "sim" -> Ggpu_serve.Proto.Sim { kernel; cus; size }
          | "perf" -> Ggpu_serve.Proto.Perf { kernel; cus; size }
          | other ->
              Printf.eprintf "unknown request kind %s (synth|sim|perf)\n"
                other;
              exit 1
        in
        let req =
          Ggpu_serve.Proto.mk_request ?deadline_ms ~tech ~id:1 kind
        in
        (match Ggpu_serve.Client.call c req with
        | Ok resp ->
            print_endline (Ggpu_serve.Proto.response_to_line resp);
            (match resp.Ggpu_serve.Proto.status with
            | Ggpu_serve.Proto.Done -> ()
            | _ -> failed := true)
        | Error msg ->
            prerr_endline msg;
            failed := true));
    (match action with
    | None -> ()
    | Some "scrape" -> (
        match Ggpu_serve.Client.scrape c with
        | Ok text -> print_string text
        | Error msg ->
            prerr_endline msg;
            failed := true)
    | Some "dump" -> (
        match Ggpu_serve.Client.dump c with
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
            | None ->
                prerr_endline "dump reply carried no trace";
                failed := true)
        | Error msg ->
            prerr_endline msg;
            failed := true)
    | Some other ->
        Printf.eprintf "unknown action %s (dump|scrape)\n" other;
        exit 1);
    if stats then (
      match Ggpu_serve.Client.stats c with
      | Ok j ->
          print_endline (Ggpu_obs.Json.to_string j);
          print_stats_latency j
      | Error msg ->
          prerr_endline msg;
          failed := true);
    if shutdown then
      if Ggpu_serve.Client.shutdown c then print_endline "daemon stopping"
      else begin
        prerr_endline "shutdown failed";
        failed := true
      end;
    if !failed then exit 1;
    Ok ()
  in
  let term =
    Term.(
      term_result ~usage:false
        (const run $ obs_term $ socket_term $ action_term $ out_term
       $ ping_term $ stats_term $ shutdown_term $ replay_term $ seed_term
       $ batch_term $ min_hits_term $ kind_term $ cus_term $ freq_term
       $ kernel_term $ size_term $ tech_name_term $ deadline_term))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running planning daemon: ping, replay a seeded \
          workload, send one request, dump its flight-recorder trace, \
          scrape its metrics, print stats, or shut it down")
    term

let () =
  let doc = "open-source generator of GPU-like ASIC accelerators" in
  let info = Cmd.info "gpuplanner" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synth_cmd; dse_cmd; map_cmd; layout_cmd; table1_cmd; versions_cmd;
            compare_cmd;
            run_cmd; bench_cmd; perf_report_cmd; fi_cmd; profile_cmd;
            trace_check_cmd; verilog_cmd; serve_cmd; client_cmd;
          ]))
