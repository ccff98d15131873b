(** SRAM memory-compiler model: timing, area and power attributes per
    macro geometry, as a commercial 65 nm compiler's datasheets provide.

    Two properties hold by construction, because the paper's DSE relies
    on them: access delay grows superlinearly with word count (so word
    division buys timing), and per-bit area carries periphery overhead
    that grows as macros shrink (so division costs area and leakage). *)

type attrs = {
  clk_to_q_ns : float;
  setup_ns : float;
  area_um2 : float;
  leak_nw : float;
  read_energy_pj : float;
  write_energy_pj : float;
}

type t = {
  name : string;
  delay_base_ns : float;
  delay_log2w_ns : float;  (** coefficient of (log2 words)^2 *)
  delay_bits_ns : float;
  delay_dual_penalty_ns : float;
  setup_base_ns : float;
  bit_area_um2 : float;
  dual_port_area_factor : float;
  periphery_um2 : float;
  periphery_per_row_um2 : float;
  bit_leak_nw : float;
  periphery_leak_nw : float;
  read_energy_base_pj : float;
  read_energy_per_bit_pj : float;
  supports_single_port : bool;
      (** false for the default compiler, as in the paper (future work) *)
}

val default_65nm : t

exception Unsupported of string

val query : t -> Ggpu_hw.Macro_spec.t -> attrs
(** @raise Unsupported for single-port macros when the compiler lacks
    them. *)

val legal_word_splits : Ggpu_hw.Macro_spec.t -> int list
(** Bank counts (powers of two) keeping banks within compiler limits. *)

val legal_bit_splits : Ggpu_hw.Macro_spec.t -> int list
