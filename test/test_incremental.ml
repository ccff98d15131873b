(* Property tests for the incremental timing engine: after every DSE
   edit the engine report must be bit-identical to a full recomputation
   by the reference in [sta_oracle.ml] (same floats, same endpoint
   census, same worst path cell by cell), and its arrival tables to the
   full sweep's, net by net.  The edits come from a real [Dse.explore]
   run, replayed one at a time on a fresh netlist with an engine
   attached. *)

open Ggpu_tech
open Ggpu_synth
open Ggpu_core

let tech = Tech.default_65nm

(* Replay each edit of a converged 667 MHz map one at a time on a fresh
   netlist with an engine attached.  After every edit the engine's
   report must equal the full sweep's; so must its arrival tables, net
   by net, after every edit with [~every_net:true] and at the final
   netlist otherwise.  DSE picks each edit from the report, the netlist
   and the period alone, so a DSE driven by the full sweep makes the
   same edits this replay checks. *)
let check_bit_identity ?(every_net = true) ~num_cus () =
  let edits =
    let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
    let result =
      Dse.explore tech nl ~num_cus ~period_ns:(1000.0 /. 667.0)
    in
    result.Dse.map.Map.edits
  in
  Alcotest.(check bool) "map has edits" true (List.length edits > 0);
  let nl = Ggpu_rtlgen.Generate.generate_cus ~num_cus in
  let engine = Timing.make_engine tech nl in
  Test_csr.check_engine "initial" nl engine;
  List.iteri
    (fun i edit ->
      Map.apply_edit nl edit;
      let msg =
        Printf.sprintf "after edit %d (%s)" i (Map.edit_to_string edit)
      in
      if every_net then Test_csr.check_engine msg nl engine
      else
        Test_csr.check_reports msg
          (Sta_oracle.analyse tech nl)
          (Timing.engine_analyse engine))
    edits;
  if not every_net then Test_csr.check_engine "final netlist" nl engine;
  let stats = Timing.engine_stats engine in
  Alcotest.(check int) "one full recompute" 1 stats.Timing.full_recomputes;
  Alcotest.(check bool) "incremental updates happened" true
    (stats.Timing.incremental_updates > 0)

let test_bit_identity_1cu () = check_bit_identity ~num_cus:1 ()
let test_bit_identity_2cu () = check_bit_identity ~num_cus:2 ()
let test_bit_identity_4cu () = check_bit_identity ~num_cus:4 ()
let test_bit_identity_8cu () = check_bit_identity ~num_cus:8 ()
let test_bit_identity_16cu () = check_bit_identity ~num_cus:16 ()

(* Beyond 16 CUs a per-net check after every edit costs seconds, so the
   32-CU replay checks the report at every edit and the tables once. *)
let test_bit_identity_32cu () =
  check_bit_identity ~every_net:false ~num_cus:32 ()

(* [Netlist.copy] must hand the flow an independent netlist: editing the
   copy leaves the base untouched, and DSE on a copy converges exactly
   as on a fresh elaboration. *)
let test_netlist_copy_independent () =
  let base = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  let before = Ggpu_hw.Netlist.stats base in
  let copy = Ggpu_hw.Netlist.copy base in
  let result =
    Dse.explore tech copy ~num_cus:1 ~period_ns:(1000.0 /. 667.0)
  in
  Alcotest.(check bool) "dse edited the copy" true
    (List.length result.Dse.map.Map.edits > 0);
  let after = Ggpu_hw.Netlist.stats base in
  Alcotest.(check int) "base macros untouched"
    before.Ggpu_hw.Netlist.macro_count after.Ggpu_hw.Netlist.macro_count;
  Alcotest.(check int) "base ffs untouched" before.Ggpu_hw.Netlist.ff_bits
    after.Ggpu_hw.Netlist.ff_bits;
  let fresh = Ggpu_rtlgen.Generate.generate_cus ~num_cus:1 in
  let fresh_result =
    Dse.explore tech fresh ~num_cus:1 ~period_ns:(1000.0 /. 667.0)
  in
  Alcotest.(check (list string))
    "copy and fresh converge identically"
    (List.map Map.edit_to_string fresh_result.Dse.map.Map.edits)
    (List.map Map.edit_to_string result.Dse.map.Map.edits)

let suite =
  [
    ( "incremental",
      [
        Alcotest.test_case "engine bit-identical, 1 CU" `Quick
          test_bit_identity_1cu;
        Alcotest.test_case "engine bit-identical, 2 CU" `Quick
          test_bit_identity_2cu;
        Alcotest.test_case "engine bit-identical, 4 CU" `Quick
          test_bit_identity_4cu;
        Alcotest.test_case "engine bit-identical, 8 CU" `Slow
          test_bit_identity_8cu;
        Alcotest.test_case "engine bit-identical, 16 CU" `Slow
          test_bit_identity_16cu;
        Alcotest.test_case "engine report at every edit, 32 CU" `Slow
          test_bit_identity_32cu;
        Alcotest.test_case "netlist copy is independent" `Quick
          test_netlist_copy_independent;
      ] );
  ]
