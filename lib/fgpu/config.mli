(** G-GPU execution configuration, mirroring the FGPU architecture of
    the paper's Fig. 1: 1-8 compute units of 8 processing elements,
    64-work-item wavefronts, up to 512 resident work-items per CU, a
    central multi-port write-back cache and up to four AXI data ports. *)

type cache = {
  size_bytes : int;
  line_words : int;
  ports : int;  (** coalesced line requests accepted per cycle *)
  hit_latency : int;
}

type axi = {
  data_ports : int;  (** 1..4, as in FGPU *)
  latency : int;  (** memory round-trip, cycles *)
  words_per_beat : int;  (** bus width per port *)
}

type t = {
  num_cus : int;
  pes_per_cu : int;
  wavefront_size : int;
  max_workitems_per_cu : int;
  cache : cache;
  axi : axi;
  div_latency : int;
      (** cycles per active lane on the CU's shared iterative divider *)
  mul_latency : int;
  branch_penalty : int;
  issue_overhead : int;
}

exception Bad_config of string

val validate : t -> t
(** @raise Bad_config on out-of-range fields (e.g. more than 8 CUs). *)

val default : t
(** 1 CU, FGPU-like geometry, calibrated timing (see source). *)

val with_cus : t -> int -> t

(** Append an injective, order-fixed rendering of every field — the
    config fragment of {!Ggpu_serve} memo-cache keys.  Execution engine
    and domain fan-out are excluded by design: simulated results are
    bit-identical across both. *)
val canonical : Buffer.t -> t -> unit
val beats : t -> int
(** Vector-pipeline occupancy per wavefront instruction. *)

val wavefronts_per_workgroup : t -> local_size:int -> int
