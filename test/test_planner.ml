(* Tests for the GPUPlanner core: the DSE converges to each paper
   frequency with the right kinds of edits, maps replay deterministically,
   the flow derates the 8-CU design after layout, and the spec check
   reports violations. *)

open Ggpu_tech
open Ggpu_synth
open Ggpu_core

let tech = Tech.default_65nm

let explore_fresh ~num_cus ~freq_mhz =
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
  let result =
    Dse.explore tech nl ~num_cus ~period_ns:(1000.0 /. float_of_int freq_mhz)
  in
  (nl, result)

let test_dse_500_needs_nothing () =
  let _, result = explore_fresh ~num_cus:1 ~freq_mhz:500 in
  Alcotest.(check int) "no edits" 0 (List.length result.Dse.map.Map.edits)

let test_dse_590_divides_memories () =
  let _, result = explore_fresh ~num_cus:1 ~freq_mhz:590 in
  let map = result.Dse.map in
  Alcotest.(check bool) "has divisions" true (Map.divisions map > 0);
  Alcotest.(check int) "no pipelines at 590" 0 (Map.pipelines map);
  (* the first division must target the register file - the paper's
     non-optimised critical path *)
  match map.Map.edits with
  | Map.Split_words { cell_name; _ } :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "first edit on regfile, got %s" cell_name)
        true
        (String.length cell_name >= 11
        && String.sub cell_name (String.length cell_name - 7) 7 = "regfile")
  | edit :: _ ->
      Alcotest.failf "unexpected first edit: %s" (Map.edit_to_string edit)
  | [] -> Alcotest.fail "empty map"

let test_dse_667_divides_and_pipelines () =
  let _, result = explore_fresh ~num_cus:1 ~freq_mhz:667 in
  let map = result.Dse.map in
  Alcotest.(check bool) "has divisions" true (Map.divisions map > 0);
  Alcotest.(check bool) "has pipelines (on-demand)" true (Map.pipelines map > 0)

let test_dse_timing_met () =
  List.iter
    (fun freq_mhz ->
      let _, result = explore_fresh ~num_cus:2 ~freq_mhz in
      let period_ns = 1000.0 /. float_of_int freq_mhz in
      Alcotest.(check bool)
        (Printf.sprintf "meets %d MHz" freq_mhz)
        true
        (Timing.meets result.Dse.final ~period_ns))
    [ 500; 590; 667 ]

let test_dse_macro_counts_match_paper () =
  (* Table I #Memory column: 51 -> 65-71 at 590/667 (paper: 68/71) *)
  let count ~freq_mhz =
    let nl, _ = explore_fresh ~num_cus:1 ~freq_mhz in
    (Ggpu_hw.Netlist.stats nl).Ggpu_hw.Netlist.macro_count
  in
  let m590 = count ~freq_mhz:590 and m667 = count ~freq_mhz:667 in
  Alcotest.(check bool)
    (Printf.sprintf "590 macros %d in [60, 75]" m590)
    true
    (m590 >= 60 && m590 <= 75);
  Alcotest.(check bool)
    (Printf.sprintf "667 macros %d in [65, 80]" m667)
    true
    (m667 >= 65 && m667 <= 80);
  Alcotest.(check bool) "667 >= 590" true (m667 >= m590)

let test_dse_unreachable_frequency () =
  match explore_fresh ~num_cus:1 ~freq_mhz:2000 with
  | _ -> Alcotest.fail "expected Cannot_meet"
  | exception Dse.Cannot_meet _ -> ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_dse_division_only_hits_logic_wall () =
  (* without pipelining, 667 MHz dies on a logic-dominated path that no
     memory division can fix *)
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  match Dse.explore ~strategy:Dse.Division_only tech nl ~num_cus:1 ~period_ns:1.5 with
  | _ -> Alcotest.fail "expected Cannot_meet"
  | exception Dse.Cannot_meet { detail; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "detail names the unfixable path: %s" detail)
        true
        (contains detail "unfixable path")

let test_dse_pipeline_only_never_divides () =
  (* 1.9 ns sits between the unedited worst path (~1.98 ns) and the
     macro clk-to-q floor that only division can break, so pipelining
     alone both has to act and can converge *)
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  let result =
    Dse.explore ~strategy:Dse.Pipeline_only tech nl ~num_cus:1 ~period_ns:1.9
  in
  Alcotest.(check bool) "made progress" true
    (List.length result.Dse.map.Map.edits > 0);
  List.iter
    (function
      | Map.Pipeline _ -> ()
      | edit ->
          Alcotest.failf "pipeline-only emitted %s" (Map.edit_to_string edit))
    result.Dse.map.Map.edits

let test_dse_full_strategy_staging () =
  (* the paper's staging: divisions alone reach 590 MHz; 667 MHz needs
     divisions plus on-demand pipelining *)
  let explore freq_mhz =
    let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
    Dse.explore ~strategy:Dse.Full tech nl ~num_cus:1
      ~period_ns:(1000.0 /. float_of_int freq_mhz)
  in
  let r590 = explore 590 in
  Alcotest.(check bool) "590: divisions" true (Map.divisions r590.Dse.map > 0);
  Alcotest.(check int) "590: no pipelines" 0 (Map.pipelines r590.Dse.map);
  let r667 = explore 667 in
  Alcotest.(check bool) "667: divisions" true (Map.divisions r667.Dse.map > 0);
  Alcotest.(check bool) "667: pipelines" true (Map.pipelines r667.Dse.map > 0)

let test_map_replay_reproduces_design () =
  let nl1, result = explore_fresh ~num_cus:1 ~freq_mhz:667 in
  let nl2 = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  Map.apply nl2 result.Dse.map;
  let s1 = Ggpu_hw.Netlist.stats nl1 and s2 = Ggpu_hw.Netlist.stats nl2 in
  Alcotest.(check int) "macros" s1.Ggpu_hw.Netlist.macro_count
    s2.Ggpu_hw.Netlist.macro_count;
  Alcotest.(check int) "ff" s1.Ggpu_hw.Netlist.ff_bits s2.Ggpu_hw.Netlist.ff_bits;
  Alcotest.(check int) "comb" s1.Ggpu_hw.Netlist.comb_gates
    s2.Ggpu_hw.Netlist.comb_gates;
  let delay nl =
    (Timing.engine_analyse (Timing.make_engine tech nl)).Timing.max_delay_ns
  in
  let t1 = delay nl1 and t2 = delay nl2 in
  Alcotest.(check (float 1e-9)) "timing" t1 t2

let test_map_replay_bad_name () =
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  let map =
    {
      Map.num_cus = 1;
      target_period_ns = 1.5;
      edits = [ Map.Split_words { cell_name = "nonexistent"; banks = 2 } ];
    }
  in
  match Map.apply nl map with
  | () -> Alcotest.fail "expected Replay_error"
  | exception Map.Replay_error _ -> ()

let test_flow_1cu_meets_667 () =
  let impl = Flow.implement ~tech (Spec.make ~num_cus:1 ~freq_mhz:667 ()) in
  Alcotest.(check bool) "meets spec" true (Result.is_ok impl.Flow.spec_check);
  Alcotest.(check (float 1.0)) "achieved 667" 667.0 impl.Flow.achieved_mhz

let test_flow_8cu_667_derates () =
  (* the paper's headline physical finding: the 8-CU layout cannot run
     at 667 MHz; the long GMC-to-peripheral-CU wires derate it to
     ~600 MHz *)
  let impl = Flow.implement ~tech (Spec.make ~num_cus:8 ~freq_mhz:667 ()) in
  Alcotest.(check bool) "spec violated" true (Result.is_error impl.Flow.spec_check);
  Alcotest.(check bool)
    (Printf.sprintf "achieved %.0f in [560, 650]" impl.Flow.achieved_mhz)
    true
    (impl.Flow.achieved_mhz >= 560.0 && impl.Flow.achieved_mhz < 655.0);
  match impl.Flow.post_timing.Ggpu_layout.Timing_post.worst_cross with
  | Some cross ->
      Alcotest.(check bool) "cross path is the limiter" true
        (cross.Ggpu_layout.Timing_post.total_ns
        > impl.Flow.post_timing.Ggpu_layout.Timing_post.internal_ns)
  | None -> Alcotest.fail "no cross-partition path found"

let test_flow_8cu_500_ok () =
  let impl = Flow.implement ~tech (Spec.make ~num_cus:8 ~freq_mhz:500 ()) in
  Alcotest.(check bool) "meets spec" true (Result.is_ok impl.Flow.spec_check)

let test_spec_validation () =
  (match Spec.make ~num_cus:9 ~freq_mhz:500 () with
  | _ -> Alcotest.fail "expected Invalid_spec"
  | exception Spec.Invalid_spec _ -> ());
  let spec =
    Spec.make ~max_area_mm2:(Some 1.0) ~max_power_w:(Some 0.5) ~num_cus:1
      ~freq_mhz:500 ()
  in
  match Spec.check spec ~area_mm2:4.0 ~power_w:2.0 ~achieved_mhz:450.0 with
  | Ok () -> Alcotest.fail "expected violations"
  | Error vs -> Alcotest.(check int) "three violations" 3 (List.length vs)

let test_render_layout () =
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:8 in
  let fp = Ggpu_layout.Floorplan.build tech nl ~num_cus:8 in
  let art = Ggpu_layout.Render.render fp in
  List.iter
    (fun label ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (label ^ " rendered") true (contains art label))
    [ "cu0"; "cu7"; "gmc" ]

let suite =
  [
    ( "planner",
      [
        Alcotest.test_case "dse 500 needs nothing" `Quick
          test_dse_500_needs_nothing;
        Alcotest.test_case "dse 590 divides memories" `Quick
          test_dse_590_divides_memories;
        Alcotest.test_case "dse 667 divides and pipelines" `Quick
          test_dse_667_divides_and_pipelines;
        Alcotest.test_case "dse timing met" `Quick test_dse_timing_met;
        Alcotest.test_case "dse macro counts near paper" `Quick
          test_dse_macro_counts_match_paper;
        Alcotest.test_case "dse unreachable frequency" `Quick
          test_dse_unreachable_frequency;
        Alcotest.test_case "dse division-only hits logic wall" `Quick
          test_dse_division_only_hits_logic_wall;
        Alcotest.test_case "dse pipeline-only never divides" `Quick
          test_dse_pipeline_only_never_divides;
        Alcotest.test_case "dse full strategy staging" `Quick
          test_dse_full_strategy_staging;
        Alcotest.test_case "map replay reproduces design" `Quick
          test_map_replay_reproduces_design;
        Alcotest.test_case "map replay bad name" `Quick test_map_replay_bad_name;
        Alcotest.test_case "flow 1cu meets 667" `Quick test_flow_1cu_meets_667;
        Alcotest.test_case "flow 8cu 667 derates" `Quick
          test_flow_8cu_667_derates;
        Alcotest.test_case "flow 8cu 500 ok" `Quick test_flow_8cu_500_ok;
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "render layout" `Quick test_render_layout;
      ] );
  ]
