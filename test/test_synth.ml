(* Tests for the RTL generator and logic synthesis: published-scale
   structure, STA correctness on hand-built netlists, area/power
   monotonicity. *)

open Ggpu_hw
open Ggpu_tech
open Ggpu_synth
open Ggpu_rtlgen

let tech = Tech.default_65nm

(* What ships: a fresh engine's report on the netlist as it stands. *)
let analyse nl = Timing.engine_analyse (Timing.make_engine tech nl)

let test_generator_macro_counts () =
  (* Table I: 51/93/177/345 macros for 1/2/4/8 CUs *)
  List.iter
    (fun (cus, expect) ->
      let nl = Generate.generate_cus ~num_cus:cus in
      Alcotest.(check int)
        (Printf.sprintf "%d CU macros" cus)
        expect
        (Netlist.stats nl).Netlist.macro_count)
    [ (1, 51); (2, 93); (4, 177); (8, 345) ]

let test_generator_published_scale () =
  let nl = Generate.generate_cus ~num_cus:1 in
  let s = Netlist.stats nl in
  let within ~pct actual expect =
    let delta = abs (actual - expect) in
    float_of_int delta <= float_of_int expect *. pct /. 100.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "FF %d ~ 119778" s.Netlist.ff_bits)
    true
    (within ~pct:5.0 s.Netlist.ff_bits 119_778);
  Alcotest.(check bool)
    (Printf.sprintf "comb %d ~ 127826" s.Netlist.comb_gates)
    true
    (within ~pct:5.0 s.Netlist.comb_gates 127_826)

let test_generator_valid_for_all_cus () =
  List.iter
    (fun cus ->
      let nl = Generate.generate_cus ~num_cus:cus in
      match Netlist.validate nl with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%d CU invalid: %s" cus (String.concat "; " es))
    [ 1; 3; 5; 8 ]

let test_generator_rejects_bad_cus () =
  match Generate.generate_cus ~num_cus:9 with
  | _ -> Alcotest.fail "expected Bad_params"
  | exception Arch_params.Bad_params _ -> ()

let test_base_fmax_near_500 () =
  let nl = Generate.generate_cus ~num_cus:1 in
  let report = analyse nl in
  Alcotest.(check bool)
    (Printf.sprintf "fmax %.0f in [495, 520]" report.Timing.fmax_mhz)
    true
    (report.Timing.fmax_mhz >= 495.0 && report.Timing.fmax_mhz <= 520.0)

let test_critical_path_starts_at_memory () =
  (* the paper: "the critical path for the version without any
     optimization has its starting point at a memory block ... inside
     the CU partition" *)
  let nl = Generate.generate_cus ~num_cus:2 in
  let report = analyse nl in
  let launch = report.Timing.worst.Timing.launch in
  Alcotest.(check bool) "launch is macro" true (Cell.is_macro launch);
  let region = Cell.region launch in
  Alcotest.(check bool)
    (Printf.sprintf "launch region %s is a CU" region)
    true
    (String.length region >= 2 && String.sub region 0 2 = "cu")

(* STA on a hand-built netlist with a known longest path. *)
let test_sta_hand_computed () =
  let nl = Netlist.create ~name:"sta" in
  let d = Netlist.add_net nl ~name:"d" ~width:32 in
  let q = Netlist.add_net nl ~name:"q" ~width:32 in
  let s1 = Netlist.add_net nl ~name:"s1" ~width:32 in
  let s2 = Netlist.add_net nl ~name:"s2" ~width:32 in
  let _ff1 =
    Netlist.add_cell nl ~name:"ff1" ~region:"top" ~kind:Cell.Dff ~inputs:[ d ]
      ~outputs:[ q ] ()
  in
  let _add =
    Netlist.add_cell nl ~name:"add" ~region:"top" ~kind:(Cell.Comb Op.Add)
      ~inputs:[ q; q ] ~outputs:[ s1 ] ()
  in
  let _xor =
    Netlist.add_cell nl ~name:"xor" ~region:"top" ~kind:(Cell.Comb Op.Xor)
      ~inputs:[ s1; q ] ~outputs:[ s2 ] ()
  in
  let _ff2 =
    Netlist.add_cell nl ~name:"ff2" ~region:"top" ~kind:Cell.Dff ~inputs:[ s2 ]
      ~outputs:[ d ] ()
  in
  let report = analyse nl in
  let s = tech.Tech.stdcell in
  let expect =
    s.Stdcell.dff_clk_to_q_ns
    +. Stdcell.comb_delay_ns s Op.Add ~width:32
    +. Stdcell.comb_delay_ns s Op.Xor ~width:32
    +. s.Stdcell.dff_setup_ns +. s.Stdcell.clock_skew_ns
  in
  Alcotest.(check (float 1e-9)) "hand-computed delay" expect
    report.Timing.max_delay_ns;
  Alcotest.(check string) "launch" "ff1"
    (Cell.name report.Timing.worst.Timing.launch);
  Alcotest.(check string) "capture" "ff2"
    (Cell.name report.Timing.worst.Timing.capture)

let test_sta_macro_launch_dominates () =
  (* a macro's clk-to-q must beat a dff's on an equal-logic path *)
  let nl = Netlist.create ~name:"sta2" in
  let addr = Netlist.add_net nl ~name:"addr" ~width:11 in
  let rdata = Netlist.add_net nl ~name:"rdata" ~width:32 in
  let cap = Netlist.add_net nl ~name:"cap" ~width:32 in
  Netlist.set_inputs nl [ addr ];
  let spec = Macro_spec.make ~words:2048 ~bits:32 ~ports:Macro_spec.Dual_port in
  let macro =
    Netlist.add_cell nl ~name:"mem" ~region:"cu0" ~kind:(Cell.Macro spec)
      ~inputs:[ addr ] ~outputs:[ rdata ] ()
  in
  let _ff =
    Netlist.add_cell nl ~name:"capture" ~region:"cu0" ~kind:Cell.Dff
      ~inputs:[ rdata ] ~outputs:[ cap ] ()
  in
  let report = analyse nl in
  Alcotest.(check string) "macro launches" (Cell.name macro)
    (Cell.name report.Timing.worst.Timing.launch);
  let attrs = Memlib.query tech.Tech.memory spec in
  let expect =
    attrs.Memlib.clk_to_q_ns +. tech.Tech.stdcell.Stdcell.dff_setup_ns
    +. tech.Tech.stdcell.Stdcell.clock_skew_ns
  in
  Alcotest.(check (float 1e-9)) "macro path delay" expect
    report.Timing.max_delay_ns

let test_sta_endpoint_count_excludes_primary_inputs () =
  (* two sequential endpoints, but only one is reached from a register:
     the path from the primary input must not inflate endpoint_count *)
  let nl = Netlist.create ~name:"endpoints" in
  let d = Netlist.add_net nl ~name:"d" ~width:8 in
  let q = Netlist.add_net nl ~name:"q" ~width:8 in
  let n1 = Netlist.add_net nl ~name:"n1" ~width:8 in
  let q2 = Netlist.add_net nl ~name:"q2" ~width:8 in
  let pi = Netlist.add_net nl ~name:"pi" ~width:8 in
  let n2 = Netlist.add_net nl ~name:"n2" ~width:8 in
  let q3 = Netlist.add_net nl ~name:"q3" ~width:8 in
  Netlist.set_inputs nl [ pi ];
  let _ff1 =
    Netlist.add_cell nl ~name:"ff1" ~region:"top" ~kind:Cell.Dff ~inputs:[ d ]
      ~outputs:[ q ] ()
  in
  let _g1 =
    Netlist.add_cell nl ~name:"g1" ~region:"top" ~kind:(Cell.Comb Op.Not)
      ~inputs:[ q ] ~outputs:[ n1 ] ()
  in
  let _ff2 =
    Netlist.add_cell nl ~name:"ff2" ~region:"top" ~kind:Cell.Dff
      ~inputs:[ n1 ] ~outputs:[ q2 ] ()
  in
  (* primary-input-only cone into a third register *)
  let _g2 =
    Netlist.add_cell nl ~name:"g2" ~region:"top" ~kind:(Cell.Comb Op.Not)
      ~inputs:[ pi ] ~outputs:[ n2 ] ()
  in
  let _ff3 =
    Netlist.add_cell nl ~name:"ff3" ~region:"top" ~kind:Cell.Dff
      ~inputs:[ n2 ] ~outputs:[ q3 ] ()
  in
  let report = analyse nl in
  Alcotest.(check int)
    "only the register-launched endpoint counts" 1
    report.Timing.endpoint_count;
  Alcotest.(check string) "launch" "ff1"
    (Cell.name report.Timing.worst.Timing.launch);
  Alcotest.(check string) "capture" "ff2"
    (Cell.name report.Timing.worst.Timing.capture)

let test_sta_deterministic () =
  (* two consecutive analyses of the same netlist must report the same
     worst path, delay and endpoint count *)
  let nl = Generate.generate_cus ~num_cus:2 in
  let r1 = analyse nl and r2 = analyse nl in
  Alcotest.(check (float 0.0)) "same delay" r1.Timing.max_delay_ns
    r2.Timing.max_delay_ns;
  Alcotest.(check int) "same endpoints" r1.Timing.endpoint_count
    r2.Timing.endpoint_count;
  Alcotest.(check string) "same launch"
    (Cell.name r1.Timing.worst.Timing.launch)
    (Cell.name r2.Timing.worst.Timing.launch);
  Alcotest.(check string) "same capture"
    (Cell.name r1.Timing.worst.Timing.capture)
    (Cell.name r2.Timing.worst.Timing.capture);
  Alcotest.(check (list string)) "same through cells"
    (List.map Cell.name r1.Timing.worst.Timing.through)
    (List.map Cell.name r2.Timing.worst.Timing.through)

let test_area_scales_with_cus () =
  let area cus =
    (Area.of_netlist tech (Generate.generate_cus ~num_cus:cus)).Area.total_mm2
  in
  let a1 = area 1 and a2 = area 2 and a4 = area 4 in
  Alcotest.(check bool) "2cu ~ 2x of increment" true (a2 > a1 *. 1.5);
  Alcotest.(check bool) "4cu > 2cu" true (a4 > a2 *. 1.5);
  (* Table I: "the G-GPU size grows linearly with the number of CUs" *)
  let increment12 = a2 -. a1 and increment24 = (a4 -. a2) /. 2.0 in
  Alcotest.(check bool) "linear growth" true
    (abs_float (increment12 -. increment24) /. increment12 < 0.1)

let test_power_scales_with_frequency () =
  let nl = Generate.generate_cus ~num_cus:1 in
  let p500 = Power.of_netlist tech nl ~freq_mhz:500.0 in
  let p667 = Power.of_netlist tech nl ~freq_mhz:667.0 in
  Alcotest.(check bool) "dynamic grows" true
    (p667.Power.dynamic_w > p500.Power.dynamic_w *. 1.3);
  Alcotest.(check (float 1e-9)) "leakage unchanged" p500.Power.leakage_mw
    p667.Power.leakage_mw

let test_splitting_regfile_improves_fmax () =
  let nl = Generate.generate_cus ~num_cus:1 in
  let before = (analyse nl).Timing.fmax_mhz in
  (match Netlist.find_cell_by_name nl "cu0/regfile" with
  | Some cell -> Netlist.split_macro_words nl cell ~banks:8
  | None -> Alcotest.fail "no cu0/regfile");
  let after = (analyse nl).Timing.fmax_mhz in
  Alcotest.(check bool)
    (Printf.sprintf "fmax improved: %.0f -> %.0f" before after)
    true (after > before +. 20.0)

(* Property: STA delay never decreases when a chain is lengthened. *)
let prop_sta_monotone_in_depth =
  QCheck.Test.make ~name:"sta monotone in chain depth" ~count:30
    QCheck.(int_range 1 20)
    (fun depth ->
      let build levels =
        let nl = Netlist.create ~name:"prop" in
        let d = Netlist.add_net nl ~name:"d" ~width:8 in
        let q = Netlist.add_net nl ~name:"q" ~width:8 in
        let _ =
          Netlist.add_cell nl ~name:"ff" ~region:"top" ~kind:Cell.Dff
            ~inputs:[ d ] ~outputs:[ q ] ()
        in
        let last =
          List.fold_left
            (fun prev i ->
              let out =
                Netlist.add_net nl ~name:(Printf.sprintf "n%d" i) ~width:8
              in
              let _ =
                Netlist.add_cell nl
                  ~name:(Printf.sprintf "g%d" i)
                  ~region:"top" ~kind:(Cell.Comb Op.Not) ~inputs:[ prev ]
                  ~outputs:[ out ] ()
              in
              out)
            q
            (List.init levels (fun i -> i))
        in
        let sink = Netlist.add_net nl ~name:"sink" ~width:8 in
        let _ =
          Netlist.add_cell nl ~name:"cap" ~region:"top" ~kind:Cell.Dff
            ~inputs:[ last ] ~outputs:[ sink ] ()
        in
        (* close ff input so validation passes *)
        let _ =
          Netlist.add_cell nl ~name:"loop" ~region:"top" ~kind:(Cell.Comb Op.Buf)
            ~inputs:[ sink ] ~outputs:[ d ] ()
        in
        (analyse nl).Timing.max_delay_ns
      in
      build (depth + 1) > build depth)

let suite =
  [
    ( "synth",
      [
        Alcotest.test_case "generator macro counts" `Quick
          test_generator_macro_counts;
        Alcotest.test_case "generator published scale" `Quick
          test_generator_published_scale;
        Alcotest.test_case "generator valid netlists" `Quick
          test_generator_valid_for_all_cus;
        Alcotest.test_case "generator rejects bad cus" `Quick
          test_generator_rejects_bad_cus;
        Alcotest.test_case "base fmax near 500" `Quick test_base_fmax_near_500;
        Alcotest.test_case "critical path starts at memory" `Quick
          test_critical_path_starts_at_memory;
        Alcotest.test_case "sta hand computed" `Quick test_sta_hand_computed;
        Alcotest.test_case "sta macro launch" `Quick
          test_sta_macro_launch_dominates;
        Alcotest.test_case "sta endpoint count" `Quick
          test_sta_endpoint_count_excludes_primary_inputs;
        Alcotest.test_case "sta deterministic" `Quick test_sta_deterministic;
        Alcotest.test_case "area scales with cus" `Quick
          test_area_scales_with_cus;
        Alcotest.test_case "power scales with frequency" `Quick
          test_power_scales_with_frequency;
        Alcotest.test_case "splitting regfile improves fmax" `Quick
          test_splitting_regfile_improves_fmax;
        QCheck_alcotest.to_alcotest prop_sta_monotone_in_depth;
      ] );
  ]
