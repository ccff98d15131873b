(** Metal stack model: nine layers as in the paper's 65 nm technology;
    M1/M8/M9 are power-only, signal routing uses M2-M7. *)

type layer = {
  name : string;
  pitch_um : float;
  signal : bool;
  preference : float;  (** relative share of routing demand attracted *)
  r_ohm_per_mm : float;
  c_ff_per_mm : float;
}

type t = { layers : layer list }

val default_9layer : t
val signal_layers : t -> layer list

val find : t -> string -> layer
(** @raise Invalid_argument on an unknown layer name. *)

val capacity_mm_per_mm2 : layer -> float
(** Track capacity (mm of wire per mm² of die); 0 for power layers. *)
