(* Parallel execution of the kernel suite over a (workload x CU-count)
   grid.

   Each job compiles its kernel, runs it on the G-GPU simulator and
   checks the output buffer against the workload's OCaml reference —
   the same work the comparison harness and the benchmark driver do
   sequentially.  Jobs are independent (fresh memory image, fresh
   simulator state per job), so they spread over a
   {!Ggpu_par.Parallel} domain pool.

   Determinism: the simulator is deterministic, so every per-job
   number except wall time is independent of the domain count.  The
   merged metrics snapshot contains only such deterministic values
   (cycle counts, instruction counts, job/failure tallies) and
   therefore folds bit-identically for any [?domains], including 1 —
   the property {!Ggpu_par.Parallel.map_collect} guarantees for
   integral metrics.  Wall time lives in the per-job result record
   instead, where it is understood to vary. *)

type job = { workload : Suite.t; cus : int; size : int }

type result = {
  job : job;
  stats : Ggpu_fgpu.Stats.t;
  correct : bool; (* output buffer matches the OCaml reference *)
  wall_ns : int; (* this job alone, on whichever domain ran it *)
  pmu : Ggpu_pmu.Pmu.summary option; (* present on instrumented runs *)
}

let job_name j = Printf.sprintf "%s/%dcu" j.workload.Suite.name j.cus

(* The benchmark driver's sizing convention: the paper's G-GPU input
   size, capped so a single job stays interactive, rounded to the
   workload's legal-size grid. *)
let default_size (w : Suite.t) =
  w.Suite.round_size (min 8192 w.Suite.ggpu_size)

let grid ?(workloads = Suite.all) ~cu_counts () =
  List.concat_map
    (fun w ->
      List.map (fun cus -> { workload = w; cus; size = default_size w }) cu_counts)
    workloads

let run_job ?pmu_stride ~pmu reg (j : job) =
  let w = j.workload in
  let t0 = Ggpu_obs.Metrics.now_ns () in
  let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default j.cus in
  let args = w.Suite.mk_args ~size:j.size in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let collector =
    if pmu then
      Some
        (Ggpu_pmu.Pmu.create ?stride:pmu_stride ~num_cus:j.cus
           ~prog_len:(Array.length compiled.Codegen_fgpu.code)
           ())
    else None
  in
  let r =
    Run_fgpu.run ~config ?pmu:collector compiled ~args
      ~global_size:(w.Suite.global_size ~size:j.size)
      ~local_size:(min w.Suite.local_size j.size)
      ()
  in
  let got = Run_fgpu.output r w.Suite.output_buffer in
  let expected = w.Suite.expected ~size:j.size args in
  let correct = got = expected in
  let wall_ns = Ggpu_obs.Metrics.now_ns () - t0 in
  let stats = r.Run_fgpu.stats in
  (* deterministic values only: the merge must not depend on domains *)
  let open Ggpu_obs.Metrics in
  add (counter reg "suite.jobs") 1;
  (* register unconditionally so a clean run carries an explicit zero:
     consumers can tell "no failures" from "metric missing" *)
  add (counter reg "suite.failures") (if correct then 0 else 1);
  add (counter reg "suite.cycles") stats.Ggpu_fgpu.Stats.cycles;
  add (counter reg "suite.wf_instructions")
    stats.Ggpu_fgpu.Stats.wf_instructions;
  add (counter reg "suite.lane_instructions")
    stats.Ggpu_fgpu.Stats.lane_instructions;
  gauge_max (gauge reg "suite.max_cycles") stats.Ggpu_fgpu.Stats.cycles;
  let pmu =
    Option.map
      (fun c -> Ggpu_pmu.Pmu.summarize c ~program:compiled.Codegen_fgpu.code)
      collector
  in
  { job = j; stats; correct; wall_ns; pmu }

let run ?domains ?(pmu = false) ?pmu_stride jobs =
  Ggpu_par.Parallel.map_collect ?domains (run_job ?pmu_stride ~pmu) jobs
