(** The RISC-V comparison: Table III cycle counts, Fig. 5 raw speed-ups
    and Fig. 6 area-derated speed-ups, following the paper's
    methodology (input-ratio scaling of RISC-V cycles; areas from logic
    synthesis at 667 MHz). *)

type row = {
  kernel : string;
  riscv_size : int;
  ggpu_size : int;
  riscv_kcycles : float;
  ggpu_kcycles : (int * float) list;  (** per CU count *)
}

type speedups = {
  kernel : string;
  raw : (int * float) list;  (** CU count -> Fig. 5 value *)
  derated : (int * float) list;  (** CU count -> Fig. 6 value *)
}

val cu_counts : int list
(** The paper's comparison grid, [1; 2; 4; 8]. *)

val check_cu_counts : int list -> unit
(** Validate an explicit CU grid against the generator's supported
    counts (the paper grid plus 16/32/64).
    @raise Invalid_argument naming the offending count — nothing is
    silently clamped. *)

val riscv_area_mm2 : Ggpu_tech.Tech.t -> float
(** Area of the CV32E40P-class baseline plus its 32 kB SRAM under the
    same technology models. *)

val run_riscv : Ggpu_kernels.Suite.t -> int
(** Cycle count at the workload's RISC-V size. *)

val table3 :
  ?workloads:Ggpu_kernels.Suite.t list ->
  ?domains:int ->
  ?cu_counts:int list ->
  unit ->
  row list
(** Measure Table III over [cu_counts] (default {!cu_counts}; extended
    grids may include 16/32/64 — see {!check_cu_counts}).  Each
    kernel's G-GPU cycle counts come from one launch at its G-GPU size
    ({!Ggpu_kernels.Run_fgpu.run_cus}: compiled, given inputs and
    executed once, timed at every count).  [domains] sets the
    functional fan-out; cycle counts are bit-identical at any count. *)

val ggpu_areas_mm2 :
  ?tech:Ggpu_tech.Tech.t -> ?cu_counts:int list -> unit -> (int * float) list

val speedups : ?tech:Ggpu_tech.Tech.t -> row list -> speedups list
(** Figs. 5/6 values; the CU grid is read off the rows, so extended
    Table III measurements derate all their columns. *)

val pp_table3 : Format.formatter -> row list -> unit
(** Headers follow the rows' CU grid. *)

val pp_speedups : Format.formatter -> label:string -> speedups list -> unit
(** Headers follow the rows' CU grid. *)
