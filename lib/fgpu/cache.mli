(** Timing model of the central data cache and its AXI data movers:
    direct-mapped, write-back, write-allocate, multi-port, as the paper
    describes FGPU's cache. Models timing and traffic only; data lives
    in the global memory array. Completion times are computed
    analytically so the GPU runs as a discrete-event simulation. *)

type t

val create : Config.t -> stats:Stats.t -> t

(** {2 Introspection} — architectural-state view for fault injection. *)

val num_lines : t -> int
val line_words : t -> int

val tag : t -> int -> int
(** Stored tag of cache index [i]; [-1] when the line is invalid. *)

val set_tag : t -> int -> int -> unit
(** Overwrite the tag of index [i] (models an SEU in the tag array:
    subsequent accesses may miss spuriously or alias-hit). *)

val line_addr : t -> int -> int
(** Base byte address of the line cached at index [i] (meaningless when
    the line is invalid). *)

val access : t -> now:int -> addr:int -> write:bool -> int
(** One coalesced line access starting no earlier than [now]; returns
    the completion cycle. Updates tags, port/AXI occupancy and [stats].
    [now] must be non-decreasing across calls (guaranteed by the
    event-ordered scheduler). *)

val take_access_class : t -> int
(** Worst access class recorded since the previous call, then reset:
    0 = every line hit, 1 = a line missed, 2 = a miss also queued
    behind a busy AXI data port.  The PMU reads this after each
    wavefront memory instruction to split stall attribution; purely
    observational, never affects timing. *)
