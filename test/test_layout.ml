(* Tests for physical synthesis: floorplan geometry, routing estimates,
   post-route timing, and the simulator's internal event heap and cache
   timing model. *)

open Ggpu_tech
open Ggpu_layout
open Ggpu_fgpu

let tech = Tech.default_65nm

let floorplan_of ~num_cus =
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
  (nl, Floorplan.build tech nl ~num_cus)

(* --- Floorplan ---------------------------------------------------------- *)

let test_partitions_inside_die () =
  List.iter
    (fun num_cus ->
      let _, fp = floorplan_of ~num_cus in
      let die = fp.Floorplan.die in
      List.iter
        (fun p ->
          let r = p.Floorplan.rect in
          let inside =
            r.Floorplan.x >= -.1e-6
            && r.Floorplan.y >= -.1e-6
            && r.Floorplan.x +. r.Floorplan.w
               <= die.Floorplan.w +. 1e-6
            && r.Floorplan.y +. r.Floorplan.h
               <= die.Floorplan.h +. 1e-6
          in
          Alcotest.(check bool)
            (Printf.sprintf "%dcu %s inside die" num_cus p.Floorplan.part_name)
            true inside)
        fp.Floorplan.partitions)
    [ 1; 2; 4; 8 ]

let test_cu_partitions_disjoint () =
  let _, fp = floorplan_of ~num_cus:8 in
  let cus =
    List.filter
      (fun p -> String.length p.Floorplan.part_name >= 2
                && String.sub p.Floorplan.part_name 0 2 = "cu")
      fp.Floorplan.partitions
  in
  Alcotest.(check int) "eight CUs" 8 (List.length cus);
  let overlap a b =
    let ra = a.Floorplan.rect and rb = b.Floorplan.rect in
    let eps = 1e-6 in
    ra.Floorplan.x +. ra.Floorplan.w > rb.Floorplan.x +. eps
    && rb.Floorplan.x +. rb.Floorplan.w > ra.Floorplan.x +. eps
    && ra.Floorplan.y +. ra.Floorplan.h > rb.Floorplan.y +. eps
    && rb.Floorplan.y +. rb.Floorplan.h > ra.Floorplan.y +. eps
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s disjoint" a.Floorplan.part_name
                 b.Floorplan.part_name)
              false (overlap a b))
        cus)
    cus

let test_die_grows_with_cus () =
  let area n =
    let _, fp = floorplan_of ~num_cus:n in
    Floorplan.die_area_mm2 fp
  in
  Alcotest.(check bool) "8cu > 4cu > 1cu" true
    (area 8 > area 4 && area 4 > area 1)

let test_worst_distance_grows_with_cus () =
  let d n =
    let _, fp = floorplan_of ~num_cus:n in
    Floorplan.worst_cu_gmc_distance_mm fp
  in
  Alcotest.(check bool)
    (Printf.sprintf "8cu (%.2f) > 1cu (%.2f)" (d 8) (d 1))
    true
    (d 8 > 2.0 *. d 1)

let test_distance_symmetry () =
  let _, fp = floorplan_of ~num_cus:4 in
  let ab = Floorplan.distance fp ~from_:"cu0" ~to_:"gmc" in
  let ba = Floorplan.distance fp ~from_:"gmc" ~to_:"cu0" in
  Alcotest.(check (float 1e-9)) "symmetric" ab ba

(* --- Route --------------------------------------------------------------- *)

let test_route_totals_consistent () =
  let nl, fp = floorplan_of ~num_cus:1 in
  let route = Route.estimate tech nl fp ~period_ns:2.0 ~base_macros:51 in
  let layer_sum =
    List.fold_left (fun acc (_, um) -> acc +. um) 0.0 route.Route.per_layer_um
  in
  Alcotest.(check bool)
    (Printf.sprintf "layers (%.3e) ~ total (%.3e)" layer_sum route.Route.total_um)
    true
    (abs_float (layer_sum -. route.Route.total_um) /. route.Route.total_um < 0.05);
  Alcotest.(check (float 1e-9)) "intra + inter = total"
    route.Route.total_um
    (route.Route.intra_um +. route.Route.inter_um)

let test_congestion_grows_with_pressure_and_fragmentation () =
  let base = Route.congestion_factor ~period_ns:2.0 ~macros:51 ~base_macros:51 in
  let fast = Route.congestion_factor ~period_ns:1.5 ~macros:51 ~base_macros:51 in
  let frag = Route.congestion_factor ~period_ns:2.0 ~macros:71 ~base_macros:51 in
  Alcotest.(check (float 1e-9)) "baseline is 1" 1.0 base;
  Alcotest.(check bool) "pressure" true (fast > base);
  Alcotest.(check bool) "fragmentation" true (frag > base)

let test_optimised_routes_more_wire () =
  (* the Table II phenomenon: tighter target -> much more wire *)
  let wl ~freq =
    let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
    let _ =
      Ggpu_core.Dse.explore tech nl ~num_cus:1
        ~period_ns:(1000.0 /. float_of_int freq)
    in
    let fp = Floorplan.build tech nl ~num_cus:1 in
    (Route.estimate tech nl fp
       ~period_ns:(1000.0 /. float_of_int freq)
       ~base_macros:51)
      .Route.total_um
  in
  let relaxed = wl ~freq:500 and tight = wl ~freq:667 in
  let ratio = tight /. relaxed in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.1f in [2.5, 7]" ratio)
    true
    (ratio > 2.5 && ratio < 7.0)

(* --- Post-route timing --------------------------------------------------- *)

let test_wire_delay_quadratic () =
  let d1 = Timing_post.unbuffered_rc_ns tech ~length_mm:1.0 in
  let d2 = Timing_post.unbuffered_rc_ns tech ~length_mm:2.0 in
  Alcotest.(check (float 1e-9)) "quadratic" (4.0 *. d1) d2

let test_quantised_frequency () =
  let nl, fp = floorplan_of ~num_cus:1 in
  let t = Timing_post.analyse tech nl fp in
  let q = Timing_post.quantised_mhz t in
  Alcotest.(check bool) "multiple of 10" true
    (Float.rem q 10.0 < 1e-9);
  Alcotest.(check bool) "not above raw" true (q <= t.Timing_post.achieved_mhz)

(* --- One pass per implementation ----------------------------------------- *)

(* A region's area, macro instances and planner-divided macros, each
   folded over that region's cells alone: what a partition recorded
   before one pass over the cells served every region. *)
let region_fold netlist region =
  let open Ggpu_hw in
  let contains name sub =
    let n = String.length name and k = String.length sub in
    let rec at i = i + k <= n && (String.sub name i k = sub || at (i + 1)) in
    at 0
  in
  let memory_um2 = ref 0.0 and cell_um2 = ref 0.0 in
  let macros = ref 0 and divided = ref 0 in
  Netlist.iter_cells netlist (fun cell ->
      if String.equal (Cell.region cell) region then
        match Cell.kind cell with
        | Cell.Macro spec ->
            let count = Cell.count cell in
            memory_um2 :=
              !memory_um2
              +. (Memlib.query tech.Tech.memory spec).Memlib.area_um2
                 *. float_of_int count;
            macros := !macros + count;
            if contains (Cell.name cell) "/bank"
               || contains (Cell.name cell) "/slice"
            then divided := !divided + count
        | Cell.Dff ->
            cell_um2 :=
              !cell_um2
              +. float_of_int (Cell.ff_bits cell)
                 *. tech.Tech.stdcell.Stdcell.dff_area_um2
        | Cell.Comb _ ->
            cell_um2 :=
              !cell_um2
              +. float_of_int (Cell.comb_gates cell)
                 *. tech.Tech.stdcell.Stdcell.gate_area_um2);
  let logic_um2 = !cell_um2 /. 0.70 in
  ( {
      Ggpu_synth.Area.total_mm2 = (!memory_um2 +. logic_um2) /. 1.0e6;
      memory_mm2 = !memory_um2 /. 1.0e6;
      logic_mm2 = logic_um2 /. 1.0e6;
    },
    !macros,
    !divided )

(* The flow hands DSE's engine to post-route timing and builds every
   partition from one pass over the cells: both must read exactly as a
   fresh engine and a per-region fold do. *)
let test_flow_one_pass_differential () =
  List.iter
    (fun (num_cus, freq_mhz, place, placer) ->
      let spec = Ggpu_core.Spec.make ~num_cus ~freq_mhz () in
      let impl = Ggpu_core.Flow.implement ~tech ~place spec in
      let label = Printf.sprintf "%s %s" (Ggpu_core.Spec.to_string spec) placer in
      let nl = impl.Ggpu_core.Flow.netlist in
      let fp = impl.Ggpu_core.Flow.floorplan in
      Alcotest.(check bool)
        (label ^ ": post-route timing equals a fresh engine's")
        true
        (impl.Ggpu_core.Flow.post_timing = Timing_post.analyse tech nl fp);
      List.iter
        (fun (p : Floorplan.partition) ->
          let area, macros, divided = region_fold nl p.part_name in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s area" label p.part_name)
            true (p.area = area);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: %s macros, divided" label p.part_name)
            (macros, divided)
            (p.macro_count, p.divided_macros))
        fp.Floorplan.partitions)
    (List.concat_map
       (fun num_cus ->
         List.concat_map
           (fun freq_mhz ->
             [
               (num_cus, freq_mhz, Ggpu_core.Flow.Columns, "columns");
               (num_cus, freq_mhz, Ggpu_core.Flow.Analytic, "analytic");
             ])
           [ 500; 667 ])
       [ 1; 4; 8; 16 ])

(* DSE's engine after one more edit: a pipeline register on a
   cross-partition net.  Every arrival it reports, and the post-route
   analysis it serves, must equal the full sweep's and a fresh
   engine's. *)
let test_stale_engine_resyncs () =
  let open Ggpu_hw in
  List.iter
    (fun num_cus ->
      let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
      let dse =
        Ggpu_core.Dse.explore tech nl ~num_cus ~period_ns:(1000.0 /. 667.0)
      in
      let engine = dse.Ggpu_core.Dse.engine in
      let fp = Floorplan.build tech nl ~num_cus in
      let net = Option.get (Netlist.find_net_by_name nl "gmc/resp_to_cu0") in
      ignore (Netlist.insert_pipeline nl net);
      let sweep = Sta_oracle.compute_arrivals tech nl in
      let stale =
        Netlist.fold_nets nl ~init:[] ~f:(fun acc net ->
            let expected =
              Option.value ~default:0.0
                (Hashtbl.find_opt sweep.Ggpu_synth.Timing.net_arrival
                   (Net.id net))
            in
            if Float.equal (Ggpu_synth.Timing.engine_net_arrival engine net)
                 expected
            then acc
            else Net.name net :: acc)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%d CUs: arrivals after the edit" num_cus)
        [] stale;
      Alcotest.(check bool)
        (Printf.sprintf "%d CUs: post-route timing after the edit" num_cus)
        true
        (Timing_post.analyse ~engine tech nl fp = Timing_post.analyse tech nl fp))
    [ 1; 4; 8 ]

(* --- Event heap ---------------------------------------------------------- *)

let test_event_heap_ordering () =
  let h = Event_heap.create () in
  List.iter (Event_heap.push h) [ 5; 1; 3; 1; 4; 2 ];
  let rec drain acc =
    if Event_heap.is_empty h then List.rev acc
    else drain (Event_heap.pop_time h :: acc)
  in
  Alcotest.(check (list int)) "sorted keys" [ 1; 1; 2; 3; 4; 5 ] (drain [])

let prop_event_heap_sorted =
  QCheck.Test.make ~name:"event heap pops sorted" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_range 0 1000))
    (fun keys ->
      let h = Event_heap.create () in
      List.iter (Event_heap.push h) keys;
      let rec drain acc =
        if Event_heap.is_empty h then List.rev acc
        else drain (Event_heap.pop_time h :: acc)
      in
      drain [] = List.sort Int.compare keys)

let test_event_heap_empty_pop () =
  let h = Event_heap.create () in
  match Event_heap.pop_time h with
  | _ -> Alcotest.fail "expected Empty"
  | exception Event_heap.Empty -> ()

(* --- Cache timing model --------------------------------------------------- *)

let mk_cache () =
  let stats = Stats.create () in
  (Cache.create Config.default ~stats, stats)

let test_cache_hit_after_miss () =
  let cache, stats = mk_cache () in
  let t1 = Cache.access cache ~now:0 ~addr:0x1000 ~write:false in
  let t2 = Cache.access cache ~now:t1 ~addr:0x1000 ~write:false in
  Alcotest.(check int) "one miss" 1 stats.Stats.cache_misses;
  Alcotest.(check int) "one hit" 1 stats.Stats.cache_hits;
  Alcotest.(check bool) "hit faster than miss" true (t2 - t1 < t1)

let test_cache_dirty_eviction_costs () =
  let cache, stats = mk_cache () in
  let line_bytes = Config.default.Config.cache.Config.line_words * 4 in
  let sets =
    Config.default.Config.cache.Config.size_bytes / line_bytes
  in
  (* write a line, then map a conflicting line to the same set *)
  let _ = Cache.access cache ~now:0 ~addr:0x0 ~write:true in
  let conflicting = sets * line_bytes in
  let _ = Cache.access cache ~now:1000 ~addr:conflicting ~write:false in
  Alcotest.(check int) "eviction recorded" 1 stats.Stats.evictions;
  (* the write-back moved a line plus the new fill *)
  Alcotest.(check int) "axi words = 3 lines (wb + 2 fills)"
    (3 * Config.default.Config.cache.Config.line_words)
    stats.Stats.axi_words

let test_cache_port_serialisation () =
  let cache, _ = mk_cache () in
  let ports = Array.length (Array.make Config.default.Config.cache.Config.ports 0) in
  (* issue 3x ports requests at the same cycle to distinct lines: later
     ones must start later *)
  let times =
    List.init (3 * ports) (fun i ->
        Cache.access cache ~now:0 ~addr:(0x4000 + (i * 64)) ~write:false)
  in
  let first = List.nth times 0 and last = List.nth times (List.length times - 1) in
  Alcotest.(check bool) "later requests finish later" true (last > first)

let suite =
  [
    ( "layout",
      [
        Alcotest.test_case "partitions inside die" `Quick
          test_partitions_inside_die;
        Alcotest.test_case "cu partitions disjoint" `Quick
          test_cu_partitions_disjoint;
        Alcotest.test_case "die grows with cus" `Quick test_die_grows_with_cus;
        Alcotest.test_case "worst distance grows" `Quick
          test_worst_distance_grows_with_cus;
        Alcotest.test_case "distance symmetry" `Quick test_distance_symmetry;
        Alcotest.test_case "route totals consistent" `Quick
          test_route_totals_consistent;
        Alcotest.test_case "congestion factors" `Quick
          test_congestion_grows_with_pressure_and_fragmentation;
        Alcotest.test_case "optimised routes more wire" `Quick
          test_optimised_routes_more_wire;
        Alcotest.test_case "wire delay quadratic" `Quick
          test_wire_delay_quadratic;
        Alcotest.test_case "quantised frequency" `Quick test_quantised_frequency;
        Alcotest.test_case "flow reuses DSE's engine, one region pass" `Quick
          test_flow_one_pass_differential;
        Alcotest.test_case "reused engine resyncs after an edit" `Quick
          test_stale_engine_resyncs;
        Alcotest.test_case "event heap ordering" `Quick test_event_heap_ordering;
        Alcotest.test_case "event heap empty pop" `Quick
          test_event_heap_empty_pop;
        Alcotest.test_case "cache hit after miss" `Quick
          test_cache_hit_after_miss;
        Alcotest.test_case "cache dirty eviction" `Quick
          test_cache_dirty_eviction_costs;
        Alcotest.test_case "cache port serialisation" `Quick
          test_cache_port_serialisation;
        QCheck_alcotest.to_alcotest prop_event_heap_sorted;
      ] );
  ]
