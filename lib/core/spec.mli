(** Designer specifications and the post-implementation PPA check (the
    "under the initial specification?" decision of the paper's Fig. 2). *)

type t = {
  num_cus : int;
  freq_mhz : int;
  max_area_mm2 : float option;
  max_power_w : float option;
}

exception Invalid_spec of string

val make :
  ?max_area_mm2:float option ->
  ?max_power_w:float option ->
  num_cus:int ->
  freq_mhz:int ->
  unit ->
  t
(** @raise Invalid_spec if [num_cus] is not in
    {!Ggpu_rtlgen.Arch_params.supported_cu_counts} (1..8 plus the
    16/32/64 scaling grid) or the frequency is not positive. *)

val period_ns : t -> float

val contention_derate : t -> float
(** Shared L2/AXI contention derate applied after physical synthesis:
    [1.0] for the paper's 1..8-CU range, then [1 / (1 + 0.12 lg(n/8))]
    per doubling beyond 8 (16 CUs ~0.89, 32 ~0.81, 64 ~0.74). *)

type violation =
  | Area_exceeded of { limit : float; actual : float }
  | Power_exceeded of { limit : float; actual : float }
  | Frequency_missed of { target_mhz : int; achieved_mhz : float }

val violation_to_string : violation -> string

val check :
  t ->
  area_mm2:float ->
  power_w:float ->
  achieved_mhz:float ->
  (unit, violation list) result

val to_string : t -> string

val canonical : Buffer.t -> t -> unit
(** Append an injective rendering of every result-affecting field
    (floats as lossless hex), stable across runs — the spec fragment of
    {!Ggpu_serve} memo-cache keys.  Two specs share a canonical string
    iff they are equal. *)
