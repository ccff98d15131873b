(** Minimal binary min-heap of (time, payload) pairs for the
    discrete-event scheduler. Entries may be stale; the scheduler
    revalidates on pop. *)

type 'a t

val create : dummy:'a -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> int -> 'a -> unit

val clear : 'a t -> unit
(** Drop every entry, releasing payload references; capacity is kept,
    so a cleared heap can be reused without reallocation. *)

exception Empty

val pop : 'a t -> int * 'a
(** Smallest time first. @raise Empty on an empty heap. *)

val pop_time : 'a t -> int
(** [pop] without the payload: removes the smallest entry and returns
    its time, allocating nothing.  @raise Empty on an empty heap. *)
