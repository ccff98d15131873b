(** Flat structural netlists.

    The central mutable object of the generator: the RTL generator builds
    a netlist, synthesis analyses it, and the planner rewrites it through
    {!split_macro_words}, {!split_macro_bits} and {!insert_pipeline}.
    Driver and fanout indices are maintained incrementally. *)

type t

exception Invalid of string

val create : name:string -> t
val name : t -> string
val net_count : t -> int
val cell_count : t -> int

val copy : t -> t
(** An independent copy sharing the immutable nets and cells; much
    cheaper than re-elaborating, so one base design can be explored
    against several targets. *)

val pipeline_regs : t -> int
(** Number of pipeline stages inserted by {!insert_pipeline}. *)

(** {1 Revisioning}

    Every mutation bumps a revision counter and appends the set of
    touched cells and driver-changed nets to a bounded change journal.
    Incremental consumers (the {!Ggpu_synth.Timing} engine) use it to
    recompute only the affected fan-out cone. *)

type change = {
  cells : int list;  (** cell ids added, removed or rewired *)
  nets : int list;  (** net ids whose driver changed *)
}

val revision : t -> int
(** Monotonically increasing; bumped on every mutation. *)

val changes_since : t -> int -> change option
(** Union of all changes after the given revision, deduplicated.
    [None] when the journal has been truncated past that revision, in
    which case the consumer must recompute from scratch. *)

(** {1 Construction} *)

val add_net : t -> name:string -> width:int -> Net.t

val add_cell :
  t ->
  name:string ->
  region:string ->
  kind:Cell.kind ->
  inputs:Net.t list ->
  outputs:Net.t list ->
  ?count:int ->
  unit ->
  Cell.t
(** @raise Invalid if an output net is already driven or a net is unknown. *)

val rewire_inputs : t -> Cell.t -> inputs:Net.t list -> Cell.t
val set_inputs : t -> Net.t list -> unit
val set_outputs : t -> Net.t list -> unit

(** {1 Queries} *)

val inputs : t -> Net.t list
val outputs : t -> Net.t list
val find_net : t -> int -> Net.t
val find_cell : t -> int -> Cell.t
val mem_cell : t -> int -> bool
val driver_of : t -> Net.t -> Cell.t option
val readers_of : t -> Net.t -> Cell.t list
val iter_cells : t -> (Cell.t -> unit) -> unit
val fold_cells : t -> init:'a -> f:('a -> Cell.t -> 'a) -> 'a
val iter_nets : t -> (Net.t -> unit) -> unit
val fold_nets : t -> init:'a -> f:('a -> Net.t -> 'a) -> 'a
val cells : t -> Cell.t list
val nets : t -> Net.t list
val macros : t -> Cell.t list

val find_cell_by_name : t -> string -> Cell.t option
(** Linear scan; names are unique by construction. *)

val find_net_by_name : t -> string -> Net.t option

val validate : t -> (unit, string list) result
(** Structural sanity: read nets are driven or primary inputs, primary
    inputs are not internally driven, indices are consistent. *)

(** {1 Statistics} *)

type stats = {
  ff_bits : int;  (** total flip-flop bits (Table I "#FF") *)
  comb_gates : int;  (** equivalent 2-input gates (Table I "#Comb.") *)
  macro_count : int;  (** SRAM macro instances (Table I "#Memory") *)
  macro_bits : int;
  cell_instances : int;
}

val stats : t -> stats

(** {1 Planner transforms} *)

val split_macro_words : t -> Cell.t -> banks:int -> unit
(** Replace a macro with [banks] banks selected by address MSBs, plus a
    decoder and per-output multiplexers (the paper's word division). *)

val split_macro_bits : t -> Cell.t -> slices:int -> unit
(** Replace a macro with [slices] parallel bit-slice macros concatenated
    through a buffer (the paper's word-size division). *)

val insert_pipeline : t -> Net.t -> Net.t
(** Register [net]; all readers and primary-output roles move to the
    returned staged net (the paper's on-demand pipeline insertion). *)
