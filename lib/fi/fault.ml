(* Fault models and the outcome taxonomy of the injection campaigns.

   Every fault is a single-bit upset (SEU) in one architectural
   structure, the standard model of radiation-induced soft errors that
   motivates the FGPU reliability line of work (Gonçalves/Azambuja).  A
   fault names only (cycle, structure, salt): the concrete target - which
   wavefront, lane, register, cache index, bit - is resolved from the
   machine state live at the injection cycle, by a generator seeded with
   [salt], because structures such as resident wavefronts or valid cache
   lines only exist once the machine is running. *)

type structure =
  (* G-GPU structures *)
  | Wf_reg  (** a wavefront register file bit (32 regs x 64 lanes) *)
  | Wf_pc  (** one live lane's program counter (16-bit register) *)
  | Wf_mask
      (** the active/divergence mask: a live lane drops dead or a
          retired lane revives at the reconvergence pc *)
  | Cache_tag  (** central cache tag array (timing-only in this model) *)
  | Cache_data  (** a word of a valid cached line *)
  (* RISC-V structures *)
  | Rv_reg  (** architectural register x1..x31 *)
  | Rv_pc  (** the program counter *)
  | Rv_mem  (** a data-memory word *)

let structure_name = function
  | Wf_reg -> "wf_reg"
  | Wf_pc -> "wf_pc"
  | Wf_mask -> "wf_mask"
  | Cache_tag -> "cache_tag"
  | Cache_data -> "cache_data"
  | Rv_reg -> "rv_reg"
  | Rv_pc -> "rv_pc"
  | Rv_mem -> "rv_mem"

let gpu_structures = [ Wf_reg; Wf_pc; Wf_mask; Cache_tag; Cache_data ]
let rv32_structures = [ Rv_reg; Rv_pc; Rv_mem ]

type t = {
  cycle : int;  (** injection time (simulated cycles) *)
  structure : structure;
  salt : int;  (** seeds the target-resolution generator *)
}

(* Standard radiation-test taxonomy. *)
type outcome =
  | Masked  (** output identical to the golden run *)
  | Sdc  (** silent data corruption: wrong output memory *)
  | Due of string
      (** detected unrecoverable error: a trap or launch error *)
  | Hang  (** the watchdog fired *)

let outcome_name = function
  | Masked -> "masked"
  | Sdc -> "sdc"
  | Due _ -> "due"
  | Hang -> "hang"

let pp fmt t =
  Format.fprintf fmt "%s@%d" (structure_name t.structure) t.cycle
