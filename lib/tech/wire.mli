(** Global-wire delay model: buffered wires are linear in length.
    [local_detour_factor] is the ratio of routed length to a net's
    half-perimeter estimate. *)

type t = { buffered_delay_ns_per_mm : float; local_detour_factor : float }

val default_65nm : t
val delay_ns : t -> length_mm:float -> float
