(* G-GPU simulator tests: functional equivalence with the reference
   interpreter on all seven paper benchmarks, divergence handling,
   scaling behaviour with CU count, cache/AXI contention, and barrier
   semantics. *)

open Ggpu_kernels
open Ggpu_fgpu

let i32_array = Alcotest.(array int)
let cus_label cus = String.concat "," (List.map string_of_int cus)

let run_workload ?(config = Config.default) w ~size =
  let args = w.Suite.mk_args ~size in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let result =
    Run_fgpu.run ~config compiled ~args
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  (args, result)

let test_gpu_matches_reference () =
  List.iter
    (fun w ->
      let size = w.Suite.round_size (min 128 w.Suite.riscv_size) in
      let args, result = run_workload w ~size in
      Alcotest.check i32_array
        (Printf.sprintf "%s gpu vs reference" w.Suite.name)
        (w.Suite.expected ~size args)
        (Run_fgpu.output result w.Suite.output_buffer))
    Suite.all

let test_gpu_multi_cu_matches_reference () =
  List.iter
    (fun cus ->
      let config = Config.with_cus Config.default cus in
      List.iter
        (fun w ->
          let size = w.Suite.round_size (min 256 w.Suite.ggpu_size) in
          let args, result = run_workload ~config w ~size in
          Alcotest.check i32_array
            (Printf.sprintf "%s gpu(%dcu) vs reference" w.Suite.name cus)
            (w.Suite.expected ~size args)
            (Run_fgpu.output result w.Suite.output_buffer))
        Suite.all)
    [ 2; 4; 8 ]

let test_more_cus_not_slower () =
  (* a parallel kernel must not slow down when CUs are added *)
  let cycles cus =
    let config = Config.with_cus Config.default cus in
    let _, result = run_workload ~config Suite.vec_mul ~size:4096 in
    result.Run_fgpu.stats.Stats.cycles
  in
  let c1 = cycles 1 and c2 = cycles 2 and c8 = cycles 8 in
  Alcotest.(check bool)
    (Printf.sprintf "2 CU faster (%d vs %d)" c2 c1)
    true (c2 < c1);
  Alcotest.(check bool)
    (Printf.sprintf "8 CU fastest (%d vs %d)" c8 c2)
    true (c8 <= c2)

let test_scaling_sublinear_for_memory_bound () =
  (* copy is memory bound: speedup from 1 to 8 CUs is limited by the
     shared cache/AXI, the effect behind the paper's Fig. 5 shape *)
  let cycles cus =
    let config = Config.with_cus Config.default cus in
    let _, result = run_workload ~config Suite.copy ~size:8192 in
    result.Run_fgpu.stats.Stats.cycles
  in
  let c1 = cycles 1 and c8 = cycles 8 in
  let speedup = float_of_int c1 /. float_of_int c8 in
  Alcotest.(check bool)
    (Printf.sprintf "memory-bound speedup %.2f below 6x" speedup)
    true (speedup < 6.0);
  Alcotest.(check bool)
    (Printf.sprintf "still some speedup %.2f" speedup)
    true (speedup > 1.05)

let test_divergence_counted () =
  (* a kernel whose branches depend on the work-item id must produce
     divergent issues *)
  let kernel =
    {
      Ast.name = "diverge";
      params = [ Ast.Buffer "out"; Ast.Scalar "n" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.If
            ( Ast.(var "i" <: var "n"),
              [
                Ast.If
                  ( Ast.(Binop (And, var "i", const 1) ==: const 0),
                    [ Ast.Store ("out", Ast.var "i", Ast.(var "i" *: const 2)) ],
                    [ Ast.Store ("out", Ast.var "i", Ast.(const 0 -: var "i")) ]
                  );
              ],
              [] );
        ];
    }
  in
  let n = 128 in
  let args =
    {
      Interp.buffers = [ ("out", Array.make n 0) ];
      scalars = [ ("n", n) ];
    }
  in
  let compiled = Codegen_fgpu.compile kernel in
  let result =
    Run_fgpu.run compiled ~args ~global_size:n ~local_size:64 ()
  in
  let expected =
    Array.init n (fun i -> if i land 1 = 0 then 2 * i else -i)
  in
  Alcotest.check i32_array "divergent kernel output" expected
    (Run_fgpu.output result "out");
  Alcotest.(check bool) "divergent issues > 0" true
    (result.Run_fgpu.stats.Stats.divergent_issues > 0)

let test_barrier_releases () =
  (* one wavefront per workgroup still passes its barrier; with several
     wavefronts all must arrive first - the run simply completing
     exercises the release logic *)
  let kernel =
    {
      Ast.name = "barrier";
      params = [ Ast.Buffer "out" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.Store ("out", Ast.var "i", Ast.var "i");
          Ast.Barrier;
          (* after the barrier, read a neighbour within the workgroup *)
          Ast.Let ("lid", Ast.Local_id);
          Ast.Let ("base", Ast.(var "i" -: var "lid"));
          Ast.Let
            ("peer", Ast.(var "base" +: Binop (Rem, var "lid" +: const 1, Local_size)));
          Ast.Store ("out", Ast.var "i", Ast.load "out" (Ast.var "peer"));
        ];
    }
  in
  let n = 256 in
  let args = { Interp.buffers = [ ("out", Array.make n 0) ]; scalars = [] } in
  let compiled = Codegen_fgpu.compile kernel in
  let result = Run_fgpu.run compiled ~args ~global_size:n ~local_size:128 () in
  let out = Run_fgpu.output result "out" in
  Alcotest.(check bool) "barriers seen" true
    (result.Run_fgpu.stats.Stats.barriers > 0);
  (* each item must hold its workgroup neighbour's id *)
  let ok = ref true in
  for i = 0 to n - 1 do
    let lid = i mod 128 in
    let base = i - lid in
    let peer = base + ((lid + 1) mod 128) in
    if out.(i) <> peer then ok := false
  done;
  Alcotest.(check bool) "neighbour exchange" true !ok

let test_cache_stats_consistent () =
  let _, result = run_workload Suite.copy ~size:4096 in
  let s = result.Run_fgpu.stats in
  Alcotest.(check int) "requests = hits + misses"
    s.Stats.line_requests
    (s.Stats.cache_hits + s.Stats.cache_misses);
  Alcotest.(check bool) "some misses (cold cache)" true (s.Stats.cache_misses > 0);
  Alcotest.(check bool) "axi words moved" true (s.Stats.axi_words > 0)

let test_axi_bandwidth_matters () =
  (* fewer AXI ports must not make a streaming kernel faster *)
  let cycles ports =
    let config =
      Config.validate
        {
          Config.default with
          Config.num_cus = 4;
          axi = { Config.default.Config.axi with Config.data_ports = ports };
        }
    in
    let _, result = run_workload ~config Suite.copy ~size:8192 in
    result.Run_fgpu.stats.Stats.cycles
  in
  Alcotest.(check bool) "1 port slower than 4" true (cycles 1 > cycles 4)

let test_empty_grid () =
  let compiled = Codegen_fgpu.compile Suite.copy.Suite.kernel in
  let args = Suite.copy.Suite.mk_args ~size:16 in
  let result = Run_fgpu.run compiled ~args ~global_size:0 ~local_size:64 () in
  Alcotest.(check int) "no cycles" 0 result.Run_fgpu.stats.Stats.cycles

let test_bad_config_rejected () =
  match Config.with_cus Config.default 9 with
  | _ -> Alcotest.fail "expected Bad_config"
  | exception Config.Bad_config _ -> ()

let test_workgroup_accounting () =
  let _, result = run_workload Suite.copy ~size:1024 in
  (* 1024 items / local 256 = 4 workgroups *)
  Alcotest.(check int) "workgroups" 4 result.Run_fgpu.stats.Stats.workgroups

(* The issue loop allocates nothing: a longer loop at the same launch
   geometry adds wavefront-instructions but no minor-heap words.  The
   loop body mixes a wavefront-uniform load (interactive: heap pop,
   cache charge) with per-lane ALU work (burst issue).  Measured as the
   difference of two launches, so per-launch and per-workgroup
   allocations cancel. *)
let test_issue_loop_allocation_free () =
  let open Ast in
  let kernel =
    {
      name = "loop_alloc";
      params = [ Buffer "a"; Buffer "out"; Scalar "iters" ];
      body =
        [
          Let ("i", Global_id);
          Let ("acc", const 0);
          For
            ( "k",
              const 0,
              var "iters",
              [
                Assign
                  ( "acc",
                    var "acc" +: load "a" (Binop (And, var "k", const 63))
                    +: var "i" );
              ] );
          Store ("out", var "i", var "acc");
        ];
    }
  in
  let compiled = Codegen_fgpu.compile kernel in
  (* one launch, timed at every count of [cus]: with two, a record pass
     executes each wavefront-instruction once and a replay per count
     issues it again.  The record pass's per-wavefront trace buffers
     double as they grow, and only those under the minor heap's size
     limit count here, so its figure sits above zero but is bounded
     per wavefront, not per instruction (0.054 at this geometry). *)
  let launch ~cus iters =
    let args =
      {
        Interp.buffers =
          [ ("a", Array.init 64 Fun.id); ("out", Array.make 256 0) ];
        scalars = [ ("iters", iters) ];
      }
    in
    let before = Gc.minor_words () in
    let r =
      Run_fgpu.run_cus compiled ~args ~global_size:256 ~local_size:128 ~cus ()
    in
    ( Gc.minor_words () -. before,
      (List.hd r).Run_fgpu.stats.Stats.wf_instructions )
  in
  List.iter
    (fun cus ->
      ignore (launch ~cus 1);
      let words_lo, wfi_lo = launch ~cus 16 in
      let words_hi, wfi_hi = launch ~cus 256 in
      let per_wfi = (words_hi -. words_lo) /. float_of_int (wfi_hi - wfi_lo) in
      Alcotest.(check bool)
        (Printf.sprintf
           "cus %s: %.3f minor words per extra wavefront-instruction"
           (cus_label cus) per_wfi)
        true (per_wfi < 0.1))
    [ [ 2 ]; [ 1; 2 ] ]

(* Registers start at zero in every wavefront, including one that takes
   over the register file of a workgroup retired earlier in the launch.
   Each work-item stores r20, then sets it to 7.  On one CU only eight
   64-item workgroups are resident at a time, so most of the 64 run in
   recycled register files, and must still store zero.  A launch timed
   at two counts runs its workgroups one after another in the record
   pass, each in the register files of the one before. *)
let test_recycled_registers_start_at_zero () =
  let open Ggpu_isa.Fgpu_isa in
  let program =
    [|
      Special (Lid, 5);
      Special (Wgoff, 6);
      Alu (Add, 7, 5, 6);
      Alui (Sll, 7, 7, 2l);
      Alu (Add, 7, 7, 1);
      Sw (20, 7, 0);
      Li (20, 7l);
      Ret;
    |]
  in
  let n = 4096 in
  List.iter
    (fun (engine, cus) ->
      let mem = Array.make n 1 in
      let stats =
        Fgpu_oracle.with_engine engine (fun () ->
            Gpu.run_cus Config.default ~cus ~program ~params:[ 0 ]
              ~global_size:n ~local_size:64 ~mem)
      in
      List.iter
        (fun s -> Alcotest.(check int) "workgroups" 64 s.Stats.workgroups)
        stats;
      Alcotest.(check bool)
        (Printf.sprintf "%s, cus %s: every item stored zero"
           (Fgpu_oracle.engine_name engine) (cus_label cus))
        true
        (Array.for_all (fun v -> v = 0) mem))
    Fgpu_oracle.[ (Threaded, [ 1 ]); (Oracle, [ 1 ]); (Threaded, [ 1; 2 ]) ]

(* Property: GPU result equals interpreter result for random sizes on a
   divergent kernel (div_int exercises the iterative divider too). *)
let prop_gpu_div_random =
  QCheck.Test.make ~name:"gpu div_int correct on random sizes" ~count:10
    QCheck.(int_range 1 500)
    (fun size ->
      let args, result = run_workload Suite.div_int ~size in
      Run_fgpu.output result "out" = Suite.div_int.Suite.expected ~size args)

let suite =
  [
    ( "fgpu",
      [
        Alcotest.test_case "gpu matches reference" `Quick
          test_gpu_matches_reference;
        Alcotest.test_case "multi-CU matches reference" `Quick
          test_gpu_multi_cu_matches_reference;
        Alcotest.test_case "more CUs not slower" `Quick test_more_cus_not_slower;
        Alcotest.test_case "memory-bound scaling sublinear" `Quick
          test_scaling_sublinear_for_memory_bound;
        Alcotest.test_case "divergence counted" `Quick test_divergence_counted;
        Alcotest.test_case "barrier releases" `Quick test_barrier_releases;
        Alcotest.test_case "cache stats consistent" `Quick
          test_cache_stats_consistent;
        Alcotest.test_case "axi bandwidth matters" `Quick
          test_axi_bandwidth_matters;
        Alcotest.test_case "empty grid" `Quick test_empty_grid;
        Alcotest.test_case "bad config rejected" `Quick test_bad_config_rejected;
        Alcotest.test_case "workgroup accounting" `Quick
          test_workgroup_accounting;
        Alcotest.test_case "issue loop allocation-free" `Quick
          test_issue_loop_allocation_free;
        Alcotest.test_case "recycled registers start at zero" `Quick
          test_recycled_registers_start_at_zero;
        QCheck_alcotest.to_alcotest prop_gpu_div_random;
      ] );
  ]
