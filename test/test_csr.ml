(* Differential tests for the CSR levelized timing engine: on random
   netlists and on generated designs, the CSR sweep must be
   bit-identical to the legacy hashtable walker — same arrival table
   net by net, same worst path, same fmax, same endpoint census — both
   on full analysis and while replaying edits through the incremental
   path. *)

open Ggpu_hw
open Ggpu_tech
open Ggpu_synth
open Ggpu_core

let tech = Tech.default_65nm

(* --- random netlists ----------------------------------------------------- *)

(* A random sequential design: [ffs] launch registers, [gates] comb
   cells each reading 1-3 already-created nets (acyclic by
   construction), then every sink net gets a capture register.  The
   integer list drives all structural choices, so QCheck shrinks to
   small netlists. *)
let comb_ops =
  [| Op.Buf; Op.Not; Op.And; Op.Or; Op.Xor; Op.Add; Op.Sub; Op.Mul;
     Op.Shl; Op.Eq |]

let build_random ~ffs ~gates (choices : int list) =
  let nl = Netlist.create ~name:"random" in
  let choices = Array.of_list choices in
  let n_choices = max 1 (Array.length choices) in
  let cursor = ref 0 in
  let pick bound =
    let c = if Array.length choices = 0 then 0 else choices.(!cursor mod n_choices) in
    incr cursor;
    abs c mod bound
  in
  let nets = ref [] in
  let net_array () = Array.of_list (List.rev !nets) in
  for i = 0 to ffs - 1 do
    let d = Netlist.add_net nl ~name:(Printf.sprintf "d%d" i) ~width:8 in
    let q = Netlist.add_net nl ~name:(Printf.sprintf "q%d" i) ~width:8 in
    let _ =
      Netlist.add_cell nl
        ~name:(Printf.sprintf "ff%d" i)
        ~region:"top" ~kind:Cell.Dff ~inputs:[ d ] ~outputs:[ q ] ()
    in
    nets := q :: !nets
  done;
  for i = 0 to gates - 1 do
    let avail = net_array () in
    let fanin = 1 + pick 3 in
    let inputs =
      List.init fanin (fun _ -> avail.(pick (Array.length avail)))
    in
    let out = Netlist.add_net nl ~name:(Printf.sprintf "n%d" i) ~width:8 in
    let op = comb_ops.(pick (Array.length comb_ops)) in
    let _ =
      Netlist.add_cell nl
        ~name:(Printf.sprintf "g%d" i)
        ~region:"top" ~kind:(Cell.Comb op) ~inputs ~outputs:[ out ] ()
    in
    nets := out :: !nets
  done;
  (* capture every net nothing reads, so worst paths end at real
     endpoints; a net may stay unread if shrinking empties the gate
     list, which is fine (arrival 0 everywhere is still compared) *)
  let idx = ref 0 in
  List.iter
    (fun net ->
      if Netlist.readers_of nl net = [] then begin
        let q =
          Netlist.add_net nl ~name:(Printf.sprintf "capq%d" !idx) ~width:8
        in
        let _ =
          Netlist.add_cell nl
            ~name:(Printf.sprintf "cap%d" !idx)
            ~region:"top" ~kind:Cell.Dff ~inputs:[ net ] ~outputs:[ q ] ()
        in
        incr idx
      end)
    (List.rev !nets);
  nl

(* --- bit-identity checks ------------------------------------------------- *)

let check_reports msg (a : Timing.report) (b : Timing.report) =
  Alcotest.(check (float 0.0))
    (msg ^ ": max_delay_ns") a.Timing.max_delay_ns b.Timing.max_delay_ns;
  Alcotest.(check (float 0.0))
    (msg ^ ": fmax_mhz") a.Timing.fmax_mhz b.Timing.fmax_mhz;
  Alcotest.(check int)
    (msg ^ ": endpoint_count") a.Timing.endpoint_count b.Timing.endpoint_count;
  let name c = Cell.name c in
  Alcotest.(check string)
    (msg ^ ": launch")
    (name a.Timing.worst.Timing.launch)
    (name b.Timing.worst.Timing.launch);
  Alcotest.(check string)
    (msg ^ ": capture")
    (name a.Timing.worst.Timing.capture)
    (name b.Timing.worst.Timing.capture);
  Alcotest.(check (list string))
    (msg ^ ": through")
    (List.map name a.Timing.worst.Timing.through)
    (List.map name b.Timing.worst.Timing.through);
  Alcotest.(check (float 0.0))
    (msg ^ ": path delay")
    a.Timing.worst.Timing.delay_ns b.Timing.worst.Timing.delay_ns

(* The arrival tables, net by net: every net of the netlist must carry
   the same float in both engines (absence counts as 0, matching the
   report scan), and agree on whether a launch register reaches it. *)
let check_arrivals msg nl (legacy : Timing.arrivals) (csr : Timing.arrivals) =
  Netlist.iter_nets nl (fun net ->
      let look tbl =
        match Hashtbl.find_opt tbl (Net.id net) with
        | Some t -> t
        | None -> 0.0
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: arrival of net %d" msg (Net.id net))
        (look legacy.Timing.net_arrival)
        (look csr.Timing.net_arrival);
      Alcotest.(check bool)
        (Printf.sprintf "%s: launch presence on net %d" msg (Net.id net))
        (Hashtbl.mem legacy.Timing.net_launch (Net.id net))
        (Hashtbl.mem csr.Timing.net_launch (Net.id net)))

let engines_identical msg nl =
  let legacy = Timing.make_engine ~impl:Timing.Legacy tech nl in
  let csr = Timing.make_engine ~impl:Timing.Csr tech nl in
  check_reports msg (Timing.engine_analyse legacy) (Timing.engine_analyse csr);
  check_arrivals msg nl
    (Timing.engine_arrivals legacy)
    (Timing.engine_arrivals csr)

(* --- properties ---------------------------------------------------------- *)

let prop_random_full_identity =
  QCheck.Test.make ~name:"csr full analysis == legacy on random netlists"
    ~count:60
    QCheck.(
      triple (int_range 1 6) (int_range 0 40) (small_list small_int))
    (fun (ffs, gates, choices) ->
      let nl = build_random ~ffs ~gates choices in
      engines_identical "random" nl;
      true)

(* Replay: both engines attached to one netlist, pipeline registers
   inserted one at a time on driven nets; after every edit the CSR
   incremental re-sweep must match the legacy incremental walker AND a
   from-scratch analysis. *)
let prop_random_replay_identity =
  QCheck.Test.make
    ~name:"csr incremental replay == legacy == full on random netlists"
    ~count:30
    QCheck.(
      triple (int_range 2 5) (int_range 4 25) (small_list small_int))
    (fun (ffs, gates, choices) ->
      let nl = build_random ~ffs ~gates choices in
      let legacy = Timing.make_engine ~impl:Timing.Legacy tech nl in
      let csr = Timing.make_engine ~impl:Timing.Csr tech nl in
      check_reports "initial"
        (Timing.engine_analyse legacy)
        (Timing.engine_analyse csr);
      (* pipeline the first few comb-driven nets, one edit per step *)
      let targets =
        List.filteri
          (fun i _ -> i < 4)
          (List.filter
             (fun net ->
               match Netlist.driver_of nl net with
               | Some c -> Cell.is_comb c && Netlist.readers_of nl net <> []
               | None -> false)
             (Netlist.nets nl))
      in
      List.iteri
        (fun i net ->
          ignore (Netlist.insert_pipeline nl net);
          let msg = Printf.sprintf "after pipeline %d" i in
          let fresh = Timing.analyse tech nl in
          check_reports (msg ^ " (legacy vs csr)")
            (Timing.engine_analyse legacy)
            (Timing.engine_analyse csr);
          check_reports (msg ^ " (csr vs fresh)") fresh
            (Timing.engine_analyse csr);
          check_arrivals msg nl
            (Timing.engine_arrivals legacy)
            (Timing.engine_arrivals csr))
        targets;
      let stats = Timing.engine_stats csr in
      if targets <> [] && stats.Timing.incremental_updates = 0 then
        QCheck.Test.fail_report "csr engine never took the incremental path";
      true)

(* --- generated designs --------------------------------------------------- *)

let test_generated_identity () =
  List.iter
    (fun num_cus ->
      let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
      engines_identical (Printf.sprintf "%d CU" num_cus) nl;
      (* cone-parallel sweep is bit-identical to the serial one *)
      check_reports
        (Printf.sprintf "%d CU domains" num_cus)
        (Timing.analyse_csr tech nl)
        (Timing.analyse_csr ~domains:4 tech nl))
    [ 1; 2 ]

(* The planner must converge identically on either engine: same edit
   list, same final report, same iteration count. *)
let test_dse_csr_matches_legacy () =
  let run sta =
    let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:2 in
    Dse.explore ~sta tech nl ~num_cus:2 ~period_ns:(1000.0 /. 667.0)
  in
  let csr = run Timing.Csr and legacy = run Timing.Legacy in
  Alcotest.(check int) "iterations" legacy.Dse.iterations csr.Dse.iterations;
  Alcotest.(check (list string))
    "same edits"
    (List.map Map.edit_to_string legacy.Dse.map.Map.edits)
    (List.map Map.edit_to_string csr.Dse.map.Map.edits);
  check_reports "final report" legacy.Dse.final csr.Dse.final

(* An incremental analysis costs what the edit touches, not what the
   design holds: after one pipeline on the same CU-0 net, the next
   analysis allocates about as much at 32 CUs as at 8. *)
let test_incremental_cost_flat () =
  let words num_cus =
    let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
    let engine = Timing.make_engine tech nl in
    ignore (Timing.engine_analyse engine);
    (match Netlist.find_net_by_name nl "cu0/regfile/addr/d" with
    | Some net -> ignore (Netlist.insert_pipeline nl net)
    | None -> Alcotest.fail "no net cu0/regfile/addr/d");
    let before = Gc.minor_words () in
    ignore (Timing.engine_analyse engine);
    Gc.minor_words () -. before
  in
  let w8 = words 8 and w32 = words 32 in
  if w32 > 1.5 *. w8 then
    Alcotest.failf "32 CUs allocate %.0f words, over 1.5x the %.0f at 8 CUs"
      w32 w8

let test_engine_impl_dispatch () =
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  Alcotest.(check bool) "default engine is CSR" true
    (Timing.engine_impl (Timing.make_engine tech nl) = Timing.Csr);
  Alcotest.(check bool) "legacy engine selectable" true
    (Timing.engine_impl (Timing.make_engine ~impl:Timing.Legacy tech nl)
    = Timing.Legacy)

let suite =
  [
    ( "csr-sta",
      [
        QCheck_alcotest.to_alcotest prop_random_full_identity;
        QCheck_alcotest.to_alcotest prop_random_replay_identity;
        Alcotest.test_case "generated designs bit-identical" `Quick
          test_generated_identity;
        Alcotest.test_case "dse converges identically on both engines" `Quick
          test_dse_csr_matches_legacy;
        Alcotest.test_case "engine impl dispatch" `Quick
          test_engine_impl_dispatch;
        Alcotest.test_case "incremental cost flat in CU count" `Quick
          test_incremental_cost_flat;
      ] );
  ]
