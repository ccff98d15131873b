(** Minimal binary min-heap of int keys for the discrete-event
    scheduler, which packs an event's time and CU into one key.
    Entries may be stale; the scheduler revalidates on pop.  Push and
    pop allocate nothing (growing the backing array aside). *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int
val push : t -> int -> unit

exception Empty

val pop_time : t -> int
(** Remove the smallest key and return it.  Equal keys are
    indistinguishable, so the sequence of popped keys is a function of
    the pushed keys alone, never of the heap's layout.
    @raise Empty on an empty heap. *)
