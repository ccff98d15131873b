(** Parallel execution of the kernel suite over a (workload x CU-count)
    grid on a {!Ggpu_par.Parallel} domain pool.

    Every merged metric is deterministic (the simulator is; wall time
    is kept out of the registry), so the returned snapshot is
    bit-identical for any [?domains]. *)

type job = { workload : Suite.t; cus : int; size : int }

type result = {
  job : job;
  stats : Ggpu_fgpu.Stats.t;
  correct : bool;  (** output buffer matches the OCaml reference *)
  wall_ns : int;  (** this job alone, on whichever domain ran it *)
  pmu : Ggpu_pmu.Pmu.summary option;
      (** PMU bucket/hot-PC summary; [Some] iff [run ~pmu:true] *)
}

val job_name : job -> string
(** ["<kernel>/<n>cu"]. *)

val default_size : Suite.t -> int
(** The benchmark driver's convention: the paper's G-GPU input size
    capped at 8192, rounded to the workload's legal-size grid. *)

val grid : ?workloads:Suite.t list -> cu_counts:int list -> unit -> job list
(** Cartesian product in suite order (default {!Suite.all}). *)

val run :
  ?domains:int ->
  ?pmu:bool ->
  ?pmu_stride:int ->
  job list ->
  result list * Ggpu_obs.Metrics.snapshot
(** Run all jobs (order-preserving) and merge their per-job metric
    registries deterministically.  [pmu] (default false) attaches a
    {!Ggpu_pmu.Pmu} collector per job — simulated results stay
    bit-identical; only the per-job [pmu] summaries appear.
    [pmu_stride] sets the hot-PC sampling period in cycles.  [domains]
    spreads whole jobs; each job's launch runs on one domain, since
    the pool already keeps every domain busy.  Merged metrics —
    including the always-present ["suite.failures"] counter, explicitly
    zero on a clean run — are bit-identical for any [domains]. *)
