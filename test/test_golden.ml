(* Golden per-kernel cycle counts for the G-GPU simulator.

   Runs the full 7-kernel suite at 1 CU and 4 CU and asserts the exact
   [Stats.to_assoc] of every run against values recorded from the
   pre-optimisation scheduler (PR 3 tree), re-pinned once in PR 6 when
   the event heap adopted a value-deterministic (time, cu_id) tie-break
   (only the 4-CU `cycles` entries moved; every other counter is
   unchanged), and re-pinned once more when accumulator updates
   stopped going through a copy ([s = s op x] lowers to one instruction
   that writes s; see Lower): that deletes one 8-beat instruction from
   the inner loop of mat_mul/fir/xcorr/parallel_sel, so cycles, wf/lane
   instruction counts and vu_busy dropped 5.5-7.7% on those four
   kernels, while every memory-system counter (loads, stores,
   line_requests, cache hits/misses, axi_words) stayed bit-identical.
   copy/vec_mul/div_int have no such update and kept their exact rows.
   The simulator hot path is free to
   change shape, but any drift in cycle counts or counters — i.e. any
   observable timing-model change — fails this test.  Sizes match
   `gpuplanner run --kernel K --size S` after [round_size].
   Regenerate rows with `dune exec bench/golden_dump.exe`.

   Every case runs under a matrix of (engine x domains) execution
   combinations — the reference engine, the lane engine and the
   CU-parallel split must hit the same table, bit for bit. *)

open Ggpu_kernels
open Ggpu_fgpu
open Fgpu_oracle

(* (kernel, size, cus, stats in Stats.to_assoc order:
   cycles; wf_instructions; lane_instructions; divergent_issues; loads;
   stores; line_requests; cache_hits; cache_misses; evictions;
   axi_words; barriers; workgroups; vu_busy_cycles) *)
let golden =
  [
    ( "mat_mul", 1024, 1,
      [ 34700; 4336; 277504; 0; 512; 16; 1344; 1200; 144; 0; 2304; 0; 16; 34688 ] );
    ( "mat_mul", 1024, 4,
      [ 8768; 4336; 277504; 0; 512; 16; 1344; 1200; 144; 0; 2304; 0; 16; 34688 ] );
    ( "copy", 2048, 1,
      [ 3072; 384; 24576; 0; 32; 32; 256; 0; 256; 0; 4096; 0; 8; 3072 ] );
    ( "copy", 2048, 4,
      [ 1004; 384; 24576; 0; 32; 32; 256; 0; 256; 0; 4096; 0; 8; 3072 ] );
    ( "vec_mul", 2048, 1,
      [ 4096; 512; 32768; 0; 64; 32; 384; 0; 384; 0; 6144; 0; 8; 4096 ] );
    ( "vec_mul", 2048, 4,
      [ 1260; 512; 32768; 0; 64; 32; 384; 0; 384; 0; 6144; 0; 8; 4096 ] );
    ( "fir", 1024, 1,
      [ 26252; 3280; 209920; 0; 512; 16; 1584; 1454; 130; 0; 2080; 0; 8; 26240 ] );
    ( "fir", 1024, 4,
      [ 6634; 3280; 209920; 0; 512; 16; 1584; 1454; 130; 0; 2080; 0; 8; 26240 ] );
    ( "div_int", 1024, 1,
      [ 67584; 256; 16384; 0; 32; 16; 192; 0; 192; 0; 3072; 0; 4; 67584 ] );
    ( "div_int", 1024, 4,
      [ 17048; 256; 16384; 0; 32; 16; 192; 0; 192; 0; 3072; 0; 4; 67584 ] );
    ( "xcorr", 512, 1,
      [ 394048; 49256; 3152384; 0; 8192; 8; 24352; 24224; 128; 0; 2048; 0; 4; 394048 ] );
    ( "xcorr", 512, 4,
      [ 98868; 49256; 3152384; 0; 8192; 8; 24352; 24224; 128; 0; 2048; 0; 4; 394048 ] );
    ( "parallel_sel", 512, 1,
      [ 459298; 57411; 3546368; 3963; 4104; 8; 4350; 4286; 64; 0; 1024; 0; 4; 459288 ] );
    ( "parallel_sel", 512, 4,
      [ 114919; 57411; 3546368; 3963; 4104; 8; 4350; 4286; 64; 0; 1024; 0; 4; 459288 ] );
  ]

let stat_names =
  [
    "cycles"; "wf_instructions"; "lane_instructions"; "divergent_issues";
    "loads"; "stores"; "line_requests"; "cache_hits"; "cache_misses";
    "evictions"; "axi_words"; "barriers"; "workgroups"; "vu_busy_cycles";
  ]

let run_golden ~engine ~domains (name, size, cus, expected) () =
  let w = Suite.find name in
  let size = w.Suite.round_size size in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let args = w.Suite.mk_args ~size in
  let global_size = w.Suite.global_size ~size in
  let local_size = min w.Suite.local_size size in
  let config = Config.with_cus Config.default cus in
  let result =
    with_engine engine (fun () ->
        Run_fgpu.run ~config ~domains compiled ~args ~global_size ~local_size
          ())
  in
  (* results must still be correct, not just timed identically *)
  let got = Run_fgpu.output result w.Suite.output_buffer in
  let want = w.Suite.expected ~size args in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%dcu output" name cus)
    true
    (got = want);
  let assoc = Stats.to_assoc result.Run_fgpu.stats in
  let expected_assoc = List.combine stat_names expected in
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%dcu field order" name cus)
        k' k;
      Alcotest.(check int) (Printf.sprintf "%s/%dcu %s" name cus k) v' v)
    assoc expected_assoc

let combos = [ (Oracle, 1); (Threaded, 1); (Threaded, 4) ]

let suite =
  [
    ( "golden-cycles",
      List.concat_map
        (fun (engine, domains) ->
          List.map
            (fun ((name, size, cus, _) as case) ->
              Alcotest.test_case
                (Printf.sprintf "%s size=%d cus=%d [%s/%dd]" name size cus
                   (engine_name engine) domains)
                `Slow
                (run_golden ~engine ~domains case))
            golden)
        combos );
  ]
