(** Power estimation: leakage plus dynamic power at a clock frequency,
    from per-cell energies and default activity factors. *)

type t = { leakage_mw : float; dynamic_w : float; total_w : float }

val macro_activity : float
(** Accesses per cycle charged to each macro (1.0: a busy GPU). *)

val leakage_mw : Ggpu_tech.Tech.t -> Ggpu_hw.Netlist.t -> float
val of_netlist : Ggpu_tech.Tech.t -> Ggpu_hw.Netlist.t -> freq_mhz:float -> t
