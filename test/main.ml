let () =
  Alcotest.run "ggpu"
    (Test_hw.suite @ Test_tech.suite @ Test_isa.suite @ Test_riscv.suite
   @ Test_kernels.suite @ Test_fgpu.suite @ Test_synth.suite
   @ Test_planner.suite @ Test_incremental.suite @ Test_compiler.suite
   @ Test_layout.suite @ Test_misc.suite @ Test_event_heap.suite
   @ Test_fi.suite @ Test_obs.suite @ Test_pmu.suite @ Test_backend.suite
   @ Test_golden.suite @ Test_serve.suite @ Test_fuzz.suite
   @ Test_csr.suite @ Test_place.suite)
