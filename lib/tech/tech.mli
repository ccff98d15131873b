(** A complete technology: standard cells, memory compiler, wires and
    metal stack. The planner only consumes these models — as the paper
    puts it, its optimisation map "is agnostic of the technology used". *)

type t = {
  name : string;
  stdcell : Stdcell.t;
  memory : Memlib.t;
  wire : Wire.t;
  metal : Metal.t;
  supply_v : float;
}

val default_65nm : t
(** Calibrated so the non-optimised G-GPU closes at ~500 MHz and PPA
    lands on the paper's Table I. *)

val scaled_28nm : t
(** A coarse 28 nm-class scaling, for retargeting demonstrations. *)

val by_name : (string * t) list
(** The technologies a user names, on the command line or in a serve
    request: ["65nm"] ({!default_65nm}) and ["28nm"] ({!scaled_28nm}). *)

val pp : Format.formatter -> t -> unit
