(** Analytical global placement of the partition grid.

    An eplace-style formulation over the partitions the estimator
    floorplan defines: quadratic wirelength (pair weights extracted from
    the netlist's cross-partition wire demand) plus a geometrically
    escalating pairwise density penalty, driven by Nesterov's
    accelerated descent and finished by a deterministic abutment
    legalizer.  The GMC column is anchored; CU partitions and the top
    glue are movable.  The result is an ordinary {!Floorplan.t}, so
    {!Route.estimate} and {!Timing_post.analyse} consume placed
    centroids unchanged.

    The placement is bit-identical at any [domains]: per-block gradients
    are summed in fixed partner order by exactly one task and every
    tie-break is index-based. *)

type t = {
  floorplan : Floorplan.t;  (** placed partitions, die = bounding box *)
  iterations : int;
  wirelength_init_mm : float;
      (** weighted Manhattan wirelength of the clustered initial state *)
  wirelength_mm : float;  (** after descent and legalization *)
  overflow : float;
      (** residual overlap fraction before legalization (diagnostic) *)
  domains : int;
}

val default_iterations : int

val place :
  ?domains:int ->
  ?iterations:int ->
  Ggpu_tech.Tech.t ->
  Ggpu_hw.Netlist.t ->
  num_cus:int ->
  t
(** Place the partition grid.  [domains] (default 1) fans the gradient
    evaluation over a {!Ggpu_par.Parallel.Pool} without affecting the result;
    [iterations] (default {!default_iterations}) bounds the descent. *)
