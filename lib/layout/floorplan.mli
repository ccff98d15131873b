(** Partitioned floorplans: compute-unit partitions flanking a central
    general-memory-controller column, top-level glue at low density —
    the paper's Figs. 3/4 organisation. *)

type rect = { x : float; y : float; w : float; h : float }  (** mm *)

type partition = {
  part_name : string;  (** "cu0".."cu7", "gmc", "top" *)
  rect : rect;
  area : Ggpu_synth.Area.t;
  macro_count : int;
  divided_macros : int;  (** banks/slices created by the planner *)
}

type t = {
  design : string;
  die : rect;
  partitions : partition list;
  num_cus : int;
}

val cu_density : float
(** 0.70, the paper's CU/GMC placement density. *)

val top_density : float
(** 0.30, the paper's sparse top partition. *)

val distance : t -> from_:string -> to_:string -> float
(** Manhattan distance between two regions' centres in mm; 0 when
    either has no partition. *)

val build : Ggpu_tech.Tech.t -> Ggpu_hw.Netlist.t -> num_cus:int -> t

val die_area_mm2 : t -> float
val worst_cu_gmc_distance_mm : t -> float
