(** Cycle-cost model of the baseline RISC-V CPU, calibrated on the
    CV32E40P with external-SRAM wait states (the paper's synthesised
    comparison point). *)

type t = {
  base : int;  (** ALU, not-taken branch, [ecall] *)
  load : int;  (** [lw] *)
  store : int;  (** [sw] *)
  branch_taken : int;
  jump : int;  (** [jal], [jalr] *)
  mul : int;  (** [mul], [mulh] *)
  div : int;  (** [div], [divu], [rem], [remu] *)
}
(** Cycles per instruction class; {!Cpu.step} charges them. *)

val cv32e40p : t
