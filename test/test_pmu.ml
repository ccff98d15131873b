(* PMU collector: pure-observer property, the buckets-sum-to-cycles
   invariant, the occupancy/span trace stream, and the PERF_REPORT
   validator + regression diff.

   The pure-observer property is the load-bearing one: attaching a
   collector must leave every Stats counter bit-identical, for every
   kernel and CU count, or the PMU is perturbing the timing model it
   claims to observe. *)

open Ggpu_kernels
open Ggpu_fgpu
module Pmu = Ggpu_pmu.Pmu
module Report = Ggpu_pmu.Report

(* reduced sizes: the golden table already pins full-size cycles; here
   we want many (kernel x cus) points cheaply *)
let test_size w = w.Suite.round_size (min 1024 w.Suite.ggpu_size)

let run_one ?pmu w ~cus ~size =
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let collector =
    match pmu with
    | Some true ->
        Some
          (Pmu.create ~num_cus:cus
             ~prog_len:(Array.length compiled.Codegen_fgpu.code)
             ())
    | _ -> None
  in
  let config = Config.with_cus Config.default cus in
  let result =
    Run_fgpu.run ~config ?pmu:collector compiled
      ~args:(w.Suite.mk_args ~size)
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  (result, collector, compiled)

(* --- PMU on/off leaves Stats bit-identical ------------------------------ *)

let prop_pmu_pure_observer =
  QCheck.Test.make ~name:"pmu attach leaves every Stats counter unchanged"
    ~count:28
    QCheck.(
      pair
        (int_range 0 (List.length Suite.all - 1))
        (oneofl [ 1; 4 ]))
    (fun (ki, cus) ->
      let w = List.nth Suite.all ki in
      let size = test_size w in
      let bare, _, _ = run_one w ~cus ~size in
      let inst, _, _ = run_one ~pmu:true w ~cus ~size in
      Stats.to_assoc bare.Run_fgpu.stats = Stats.to_assoc inst.Run_fgpu.stats)

(* --- buckets sum to cycles, per CU and in aggregate --------------------- *)

let test_bucket_sums () =
  List.iter
    (fun w ->
      List.iter
        (fun cus ->
          let size = test_size w in
          let result, collector, compiled = run_one ~pmu:true w ~cus ~size in
          let p = Option.get collector in
          let s = Pmu.summarize p ~program:compiled.Codegen_fgpu.code in
          let cycles = result.Run_fgpu.stats.Stats.cycles in
          Alcotest.(check int)
            (Printf.sprintf "%s/%dcu summary cycles" w.Suite.name cus)
            cycles s.Pmu.s_cycles;
          Array.iteri
            (fun cu row ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%dcu cu%d bucket sum" w.Suite.name cus cu)
                cycles
                (Array.fold_left ( + ) 0 row))
            s.Pmu.s_buckets;
          let grand =
            Array.fold_left
              (fun acc row -> acc + Array.fold_left ( + ) 0 row)
              0 s.Pmu.s_buckets
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%dcu grand total" w.Suite.name cus)
            (cycles * cus) grand)
        [ 1; 4 ])
    Suite.all

(* --- hot-PC histogram samples real program counters --------------------- *)

let test_hot_pcs () =
  let w = Suite.find "mat_mul" in
  let _, collector, compiled = run_one ~pmu:true w ~cus:4 ~size:(test_size w) in
  let s =
    Pmu.summarize (Option.get collector) ~program:compiled.Codegen_fgpu.code
  in
  Alcotest.(check bool) "took samples" true (s.Pmu.s_samples > 0);
  Alcotest.(check bool) "has hot pcs" true (s.Pmu.s_hot <> []);
  let prog_len = Array.length compiled.Codegen_fgpu.code in
  List.iter
    (fun (pc, insn, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "pc %d in range" pc)
        true
        (pc >= 0 && pc < prog_len);
      Alcotest.(check bool) "symbolized" true (String.length insn > 0);
      Alcotest.(check bool) "positive samples" true (n > 0))
    s.Pmu.s_hot;
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 s.Pmu.s_hot in
  Alcotest.(check int) "histogram sums to sample count" s.Pmu.s_samples total

(* --- occupancy timeline: counter + span events validate ----------------- *)

let test_timeline_events () =
  let module T = Ggpu_obs.Trace in
  T.enable ();
  T.reset ();
  let w = Suite.find "copy" in
  let _ = run_one ~pmu:true w ~cus:2 ~size:(test_size w) in
  let evs = T.events () in
  T.disable ();
  let counters =
    List.filter (fun (e : T.event) -> e.T.ph = T.Counter) evs
  in
  let spans =
    List.filter (fun (e : T.event) -> e.T.ph = T.Complete) evs
  in
  Alcotest.(check bool) "occupancy counters emitted" true (counters <> []);
  Alcotest.(check bool) "wavefront spans emitted" true (spans <> []);
  (* counters carry resident/active on the per-CU track *)
  List.iter
    (fun (e : T.event) ->
      Alcotest.(check bool)
        "counter on a CU track" true
        (e.T.tid >= Pmu.timeline_tid ~cu:0);
      Alcotest.(check bool)
        "counter has resident+active" true
        (List.mem_assoc "resident" e.T.values
        && List.mem_assoc "active" e.T.values))
    counters;
  List.iter
    (fun (e : T.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s has duration" e.T.name)
        true (e.T.dur_ns > 0))
    spans;
  (* the whole stream passes the trace-check validator *)
  match T.validate_json (T.to_json ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "timeline stream invalid: %s" msg

(* --- PERF_REPORT: validator accepts real reports, rejects broken ones --- *)

let mk_entries () =
  List.map
    (fun name ->
      let w = Suite.find name in
      let size = test_size w in
      let result, collector, compiled = run_one ~pmu:true w ~cus:2 ~size in
      {
        Report.e_kernel = name;
        e_cus = 2;
        e_size = size;
        e_correct = true;
        e_stats = Stats.to_assoc result.Run_fgpu.stats;
        e_hit_rate = Stats.hit_rate result.Run_fgpu.stats;
        e_summary =
          Pmu.summarize (Option.get collector)
            ~program:compiled.Codegen_fgpu.code;
      })
    [ "copy"; "vec_mul" ]

let test_report_validate () =
  let entries = mk_entries () in
  let doc = Report.to_json entries in
  (match Report.validate_json doc with
  | Ok n -> Alcotest.(check int) "entry count" 2 n
  | Error msg -> Alcotest.failf "real report rejected: %s" msg);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        "known classification" true
        (List.mem (Report.classify e.Report.e_summary) Report.classifications))
    entries;
  (* doctoring any cycle count must break the sum invariant *)
  let module J = Ggpu_obs.Json in
  let doctored =
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "kernels", J.List (J.Obj e0 :: rest) ->
                   ( "kernels",
                     J.List
                       (J.Obj
                          (List.map
                             (function
                               | "cycles", J.Int c -> ("cycles", J.Int (c + 1))
                               | kv -> kv)
                             e0)
                       :: rest) )
               | kv -> kv)
             fields)
    | _ -> assert false
  in
  match Report.validate_json doctored with
  | Ok _ -> Alcotest.fail "validator accepted broken bucket sums"
  | Error _ -> ()

let test_report_diff () =
  let entries = mk_entries () in
  let doc = Report.to_json entries in
  (* identical reports: no regression *)
  (match Report.diff ~baseline:doc ~current:doc ~max_regress_pct:5.0 with
  | Error msg -> Alcotest.failf "self diff failed: %s" msg
  | Ok rows ->
      Alcotest.(check int) "row per config" 2 (List.length rows);
      List.iter
        (fun r ->
          Alcotest.(check bool) "no self regression" false r.Report.d_regressed)
        rows);
  (* halve one baseline cycle count: current is now 100% slower *)
  let module J = Ggpu_obs.Json in
  let doctored =
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "kernels", J.List (J.Obj e0 :: rest) ->
                   ( "kernels",
                     J.List
                       (J.Obj
                          (List.map
                             (function
                               | "cycles", J.Int c -> ("cycles", J.Int (c / 2))
                               | kv -> kv)
                             e0)
                       :: rest) )
               | kv -> kv)
             fields)
    | _ -> assert false
  in
  (match Report.diff ~baseline:doctored ~current:doc ~max_regress_pct:5.0 with
  | Error msg -> Alcotest.failf "doctored diff failed: %s" msg
  | Ok rows ->
      Alcotest.(check int) "one regression flagged" 1
        (List.length (List.filter (fun r -> r.Report.d_regressed) rows)));
  (* a config missing from current regresses by definition *)
  let shrunk =
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "kernels", J.List (_ :: rest) -> ("kernels", J.List rest)
               | kv -> kv)
             fields)
    | _ -> assert false
  in
  match Report.diff ~baseline:doc ~current:shrunk ~max_regress_pct:5.0 with
  | Error msg -> Alcotest.failf "shrunk diff failed: %s" msg
  | Ok rows ->
      let missing = List.filter (fun r -> Float.is_nan r.Report.d_pct) rows in
      Alcotest.(check int) "missing config flagged" 1 (List.length missing);
      List.iter
        (fun r ->
          Alcotest.(check bool) "missing is regressed" true r.Report.d_regressed)
        missing

(* --- a PMU-attached replay charges what an in-place run charges -------- *)

(* At [~domains:2] a launch is a record pass plus one replay that the
   collector watches; at 1 it runs in place.  At the sizes perf-report
   runs, every bucket, hot pc and stats field must agree, and the
   replay must not have fallen back to an in-place run. *)
let test_replay_charges_as_in_place () =
  let module M = Ggpu_obs.Metrics in
  let run w ~cus ~domains =
    let size = Suite_runner.default_size w in
    let compiled = Codegen_fgpu.compile w.Suite.kernel in
    let pmu =
      Pmu.create ~num_cus:cus
        ~prog_len:(Array.length compiled.Codegen_fgpu.code)
        ()
    in
    let result =
      Run_fgpu.run ~config:(Config.with_cus Config.default cus) ~pmu ~domains
        compiled ~args:(w.Suite.mk_args ~size)
        ~global_size:(w.Suite.global_size ~size)
        ~local_size:(min w.Suite.local_size size)
        ()
    in
    ( Pmu.summarize pmu ~program:compiled.Codegen_fgpu.code,
      Stats.to_assoc result.Run_fgpu.stats )
  in
  M.set_ambient_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_ambient_enabled false;
      M.ambient_reset ())
  @@ fun () ->
  List.iter
    (fun w ->
      List.iter
        (fun cus ->
          let name = Printf.sprintf "%s/%dcu" w.Suite.name cus in
          let in_place_summary, in_place_stats = run w ~cus ~domains:1 in
          M.ambient_reset ();
          let summary, stats = run w ~cus ~domains:2 in
          let snap = M.ambient_snapshot () in
          Alcotest.(check (pair (option int) (option int)))
            (name ^ " record passes, fallbacks")
            (Some 1, Some 0)
            ( M.find_counter snap "sim.fgpu.record_passes",
              M.find_counter snap "sim.fgpu.split_fallbacks" );
          Alcotest.(check bool) (name ^ " stats") true (stats = in_place_stats);
          Alcotest.(check bool)
            (name ^ " pmu summary")
            true
            (summary = in_place_summary))
        [ 1; 4 ])
    Suite.all

let suite =
  [
    ( "pmu",
      [
        QCheck_alcotest.to_alcotest ~long:true prop_pmu_pure_observer;
        Alcotest.test_case "per-CU buckets sum to cycles" `Slow test_bucket_sums;
        Alcotest.test_case "hot-PC histogram" `Quick test_hot_pcs;
        Alcotest.test_case "occupancy timeline events" `Quick
          test_timeline_events;
        Alcotest.test_case "perf-report validator" `Quick test_report_validate;
        Alcotest.test_case "perf-report regression diff" `Quick
          test_report_diff;
        Alcotest.test_case "replay charges the PMU as in place" `Slow
          test_replay_charges_as_in_place;
      ] );
  ]
