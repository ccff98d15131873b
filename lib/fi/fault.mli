(** Fault models (single-bit SEUs in named architectural structures)
    and the Masked / SDC / DUE / Hang outcome taxonomy. The concrete
    target of a fault is resolved from live machine state at the
    injection cycle by a generator seeded with [salt]. *)

type structure =
  | Wf_reg  (** a wavefront register-file bit *)
  | Wf_pc  (** one live lane's program counter *)
  | Wf_mask  (** active/divergence mask: kill a live lane or revive one *)
  | Cache_tag  (** central cache tag array (timing-only in this model) *)
  | Cache_data  (** a word of a valid cached line *)
  | Rv_reg  (** RISC-V architectural register x1..x31 *)
  | Rv_pc  (** RISC-V program counter *)
  | Rv_mem  (** RISC-V data-memory word *)

val structure_name : structure -> string

val gpu_structures : structure list
val rv32_structures : structure list

type t = { cycle : int; structure : structure; salt : int }

type outcome =
  | Masked
  | Sdc
  | Due of string
  | Hang

val outcome_name : outcome -> string
val pp : Format.formatter -> t -> unit
