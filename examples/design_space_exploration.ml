(* Design-space exploration, the designer's loop of the paper's Fig. 2:
   sweep candidate frequencies for several CU counts, implement each,
   check it against an area/power budget, and print the feasible set
   plus the map for the chosen design.

     dune exec examples/design_space_exploration.exe *)

open Ggpu_core

let () =
  let budget_area = 10.0 (* mm2 *) and budget_power = 6.0 (* W *) in
  Printf.printf
    "Searching for G-GPUs under %.0f mm2 and %.0f W (65 nm)...\n\n" budget_area
    budget_power;
  Printf.printf "%-12s %10s %10s %10s %10s  %s\n" "version" "area mm2"
    "power W" "target" "achieved" "verdict";
  let candidates =
    List.concat_map
      (fun num_cus ->
        List.map (fun freq_mhz -> (num_cus, freq_mhz)) [ 500; 590; 667 ])
      [ 1; 2; 4 ]
  in
  let feasible = ref [] in
  List.iter
    (fun (num_cus, freq_mhz) ->
      let spec =
        Spec.make ~max_area_mm2:(Some budget_area)
          ~max_power_w:(Some budget_power) ~num_cus ~freq_mhz ()
      in
      let impl = Flow.implement spec in
      let r = impl.Flow.logic_report in
      let verdict =
        match impl.Flow.spec_check with
        | Ok () ->
            feasible := (spec, impl) :: !feasible;
            "feasible"
        | Error vs ->
            String.concat "; " (List.map Spec.violation_to_string vs)
      in
      Printf.printf "%-12s %10.2f %10.2f %7d MHz %7.0f MHz  %s\n"
        (Printf.sprintf "%dCU@%dMHz" num_cus freq_mhz)
        r.Ggpu_synth.Report.total_area_mm2 r.Ggpu_synth.Report.total_w freq_mhz
        impl.Flow.achieved_mhz verdict)
    candidates;
  (* pick the fastest feasible design: most CUs, then highest frequency *)
  match
    List.sort
      (fun ((a : Spec.t), _) ((b : Spec.t), _) ->
        match Int.compare b.Spec.num_cus a.Spec.num_cus with
        | 0 -> Int.compare b.Spec.freq_mhz a.Spec.freq_mhz
        | c -> c)
      !feasible
  with
  | [] -> Printf.printf "\nNo design fits the budget.\n"
  | (spec, impl) :: _ ->
      Printf.printf "\nSelected %s. Its optimisation map:\n"
        (Spec.to_string spec);
      Format.printf "%a" Map.pp impl.Flow.map;
      Printf.printf
        "\nReplaying the map on a freshly generated netlist gives the same \
         design -\nthis is the artefact a designer would keep (the paper's \
         'dynamic spreadsheet').\n";
      let fresh =
        Ggpu_rtlgen.Generate.generate_cus ~num_cus:spec.Spec.num_cus
      in
      Map.apply fresh impl.Flow.map;
      let replayed =
        Ggpu_synth.Timing.engine_analyse
          (Ggpu_synth.Timing.make_engine Ggpu_tech.Tech.default_65nm fresh)
      in
      Printf.printf "Replayed fmax: %.0f MHz\n"
        replayed.Ggpu_synth.Timing.fmax_mhz
