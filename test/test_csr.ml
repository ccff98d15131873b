(* Differential tests for the CSR levelized timing engine: on random
   netlists and on generated designs, the engine must be bit-identical
   to the full sweep ({!Sta_oracle.analyse},
   {!Sta_oracle.compute_arrivals}) — same arrival, predecessor and launch net by net, same worst path,
   same fmax, same endpoint census — both on the initial build and
   while replaying edits through the incremental path. *)

open Ggpu_hw
open Ggpu_tech
open Ggpu_synth

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
   the same arrival (absent = 0, as the report scans it), the same
   worst predecessor (driving cell and input net) and the same launch
   register. *)
let check_arrivals msg nl (full : Timing.arrivals) (eng : Timing.arrivals) =
  let arrival tbl nid = Option.value ~default:0.0 (Hashtbl.find_opt tbl nid) in
  let pred tbl nid =
    Option.map
      (fun (cell, prev) -> (Cell.id cell, Option.map Net.id prev))
      (Hashtbl.find_opt tbl nid)
  in
  let launch tbl nid = Option.map Cell.id (Hashtbl.find_opt tbl nid) in
  Netlist.iter_nets nl (fun net ->
      let nid = Net.id net in
      let what field = Printf.sprintf "%s: %s of net %d" msg field nid in
      Alcotest.(check (float 0.0))
        (what "arrival")
        (arrival full.Timing.net_arrival nid)
        (arrival eng.Timing.net_arrival nid);
      Alcotest.(check (option (pair int (option int))))
        (what "predecessor")
        (pred full.Timing.net_pred nid)
        (pred eng.Timing.net_pred nid);
      Alcotest.(check (option int))
        (what "launch")
        (launch full.Timing.net_launch nid)
        (launch eng.Timing.net_launch nid))

(* The engine against the full sweep on the netlist as it stands. *)
let check_engine msg nl engine =
  check_reports msg (Sta_oracle.analyse tech nl) (Timing.engine_analyse engine);
  check_arrivals msg nl
    (Sta_oracle.compute_arrivals tech nl)
    (Timing.engine_arrivals engine)

(* --- properties ---------------------------------------------------------- *)

let prop_random_full_identity =
  QCheck.Test.make ~name:"csr full analysis == full sweep on random netlists"
    ~count:60
    QCheck.(
      triple (int_range 1 6) (int_range 0 40) (small_list small_int))
    (fun (ffs, gates, choices) ->
      let nl = build_random ~ffs ~gates choices in
      check_engine "random" nl (Timing.make_engine tech nl);
      true)

(* Replay: an engine attached to one netlist, pipeline registers
   inserted one at a time on driven nets; after every edit the CSR
   incremental re-sweep must match a from-scratch analysis and sweep. *)
let prop_random_replay_identity =
  QCheck.Test.make
    ~name:"csr incremental replay == full sweep on random netlists"
    ~count:30
    QCheck.(
      triple (int_range 2 5) (int_range 4 25) (small_list small_int))
    (fun (ffs, gates, choices) ->
      let nl = build_random ~ffs ~gates choices in
      let csr = Timing.make_engine tech nl in
      check_engine "initial" nl csr;
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
          check_engine (Printf.sprintf "after pipeline %d" i) nl csr)
        targets;
      let stats = Timing.engine_stats csr in
      if targets <> [] && stats.Timing.incremental_updates = 0 then
        QCheck.Test.fail_report "csr engine never took the incremental path";
      true)

(* An engine that falls behind the netlist's bounded change journal
   cannot replay what it missed and must rebuild from scratch: a
   pipeline edit followed by enough no-op mutations to truncate the
   journal past the engine's revision still shows up in the next
   analysis, which counts as a second full recompute; the engine then
   returns to the incremental path. *)
let test_journal_truncation_rebuilds () =
  let nl = build_random ~ffs:3 ~gates:20 (List.init 40 (fun i -> (i * 7) + 3)) in
  let engine = Timing.make_engine tech nl in
  let since = Netlist.revision nl in
  let comb_nets =
    List.filter
      (fun net ->
        match Netlist.driver_of nl net with
        | Some c -> Cell.is_comb c && Netlist.readers_of nl net <> []
        | None -> false)
      (Netlist.nets nl)
  in
  let first, second =
    match comb_nets with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "random netlist has under two comb-driven nets"
  in
  ignore (Netlist.insert_pipeline nl first);
  for _ = 1 to 70_000 do
    Netlist.set_outputs nl (Netlist.outputs nl)
  done;
  Alcotest.(check bool)
    "journal truncated past the engine" true
    (Netlist.changes_since nl since = None);
  check_engine "after truncation" nl engine;
  let stats = Timing.engine_stats engine in
  Alcotest.(check (pair int int))
    "full, incremental after truncation" (2, 0)
    (stats.Timing.full_recomputes, stats.Timing.incremental_updates);
  ignore (Netlist.insert_pipeline nl second);
  check_engine "pipeline after rebuild" nl engine;
  let stats = Timing.engine_stats engine in
  Alcotest.(check (pair int int))
    "full, incremental after one more edit" (2, 1)
    (stats.Timing.full_recomputes, stats.Timing.incremental_updates)

(* An edit that closes a combinational loop on an existing engine: two
   comb cells that read each other's output.  The next incremental sync
   must raise what a fresh engine on the edited netlist raises, naming
   both cells, instead of iterating its level fixpoint forever. *)
let test_loop_edit_raises () =
  let nl = build_random ~ffs:3 ~gates:20 (List.init 40 (fun i -> (i * 5) + 1)) in
  let engine = Timing.make_engine tech nl in
  ignore (Timing.engine_analyse engine : Timing.report);
  let seed =
    match Netlist.nets nl with
    | net :: _ -> net
    | [] -> Alcotest.fail "random netlist has no net"
  in
  let la = Netlist.add_net nl ~name:"loop_a_out" ~width:8 in
  let lb = Netlist.add_net nl ~name:"loop_b_out" ~width:8 in
  let add name inputs out =
    ignore
      (Netlist.add_cell nl ~name ~region:"top" ~kind:(Cell.Comb Op.Add)
         ~inputs ~outputs:[ out ] ()
        : Cell.t)
  in
  add "loop_a" [ seed; lb ] la;
  add "loop_b" [ la ] lb;
  let raised what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Combinational_loop" what
    | exception Topo.Combinational_loop cells -> cells
  in
  let fresh = raised "make_engine" (fun () -> ignore (Timing.make_engine tech nl)) in
  let synced =
    raised "engine_analyse" (fun () -> ignore (Timing.engine_analyse engine))
  in
  Alcotest.(check (list string)) "fresh engine names the loop"
    [ "loop_a"; "loop_b" ] fresh;
  Alcotest.(check (list string)) "incremental sync names the same cells" fresh
    synced

(* --- generated designs --------------------------------------------------- *)

let test_generated_identity () =
  List.iter
    (fun num_cus ->
      let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
      check_engine
        (Printf.sprintf "%d CU" num_cus)
        nl
        (Timing.make_engine tech nl))
    [ 1; 2 ]

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

let suite =
  [
    ( "csr-sta",
      [
        QCheck_alcotest.to_alcotest prop_random_full_identity;
        QCheck_alcotest.to_alcotest prop_random_replay_identity;
        Alcotest.test_case "journal truncation rebuilds" `Quick
          test_journal_truncation_rebuilds;
        Alcotest.test_case "loop edit raises" `Quick test_loop_edit_raises;
        Alcotest.test_case "generated designs bit-identical" `Quick
          test_generated_identity;
        Alcotest.test_case "incremental cost flat in CU count" `Quick
          test_incremental_cost_flat;
      ] );
  ]
