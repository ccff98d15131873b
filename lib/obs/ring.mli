(** Bounded ring buffer: O(1) push that overwrites the oldest entry at
    capacity.  Backs the serve daemon's always-on flight recorder, so
    keeping the last N request span groups costs fixed memory no matter
    how long the daemon runs. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Append, overwriting the oldest entry once full. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Live entries, at most [capacity]. *)

val total : 'a t -> int
(** Pushes since creation (or {!clear}); [total - length] entries have
    been overwritten. *)

val to_list : 'a t -> 'a list
(** Live entries, oldest first. *)

val clear : 'a t -> unit
