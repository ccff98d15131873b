(* Cycle-cost model of the baseline RISC-V CPU.

   Calibrated on the CV32E40P (the 4-stage in-order core the paper
   synthesises as its RISC-V comparison point): single-issue, most
   instructions complete in one cycle, taken branches flush the front
   end, division is iterative.  Loads/stores pay wait states to the external
   32 kB SRAM, as in the paper's synthesised CV32E40P system. *)

type t = {
  base : int; (* cycles for simple ALU / not-taken branch *)
  load : int;
  store : int;
  branch_taken : int;
  jump : int;
  mul : int;
  div : int; (* iterative divider latency *)
}

let cv32e40p =
  { base = 1; load = 8; store = 3; branch_taken = 3; jump = 2; mul = 1; div = 22 }
