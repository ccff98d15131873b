(** Area accounting: memory area from the SRAM compiler model, logic
    area from cell footprints at the paper's 70% placement density. *)

type t = { total_mm2 : float; memory_mm2 : float; logic_mm2 : float }

val of_netlist : Ggpu_tech.Tech.t -> Ggpu_hw.Netlist.t -> t

val by_region : Ggpu_tech.Tech.t -> Ggpu_hw.Netlist.t -> string -> t
(** [by_region tech netlist] walks the cells once; the function it
    returns gives a region's area (zero for a region with no cells),
    bit-identical to summing that region's cells alone. *)
