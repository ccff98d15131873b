(** The paper's version grid: the 12 logic-synthesis versions of
    Table I and the four physically implemented extremes of Table II /
    Figs. 3-4. *)

val scaling_cu_counts : int list
(** [8; 16; 32; 64] — the beyond-paper grid behind the scaling study. *)

val table1_specs : unit -> Spec.t list
val physical_specs : unit -> Spec.t list

val scaling_specs : ?freq_mhz:int -> ?cu_counts:int list -> unit -> Spec.t list
(** One spec per [cu_counts] entry (default {!scaling_cu_counts}) at
    [freq_mhz] (default 667).  The list is validated up front via
    {!Compare.check_cu_counts} — unsupported counts raise instead of
    being clamped. *)

val table1 :
  ?tech:Ggpu_tech.Tech.t -> ?parallel:bool -> unit -> Ggpu_synth.Report.row list
(** Regenerate Table I (1/2/4/8 CUs at 500/590/667 MHz, frequency-major
    order, as published).  [parallel] (default [true]) spreads versions
    across a {!Ggpu_par.Parallel} domain pool; every frequency target of
    a CU count starts from a copy of one base netlist. *)

val physical :
  ?tech:Ggpu_tech.Tech.t -> ?parallel:bool -> unit -> Flow.implementation list
(** Implement 1CU@500, 1CU@667, 8CU@500 and 8CU@667; the last derates
    after routing, as in the paper. *)

val scaling :
  ?tech:Ggpu_tech.Tech.t ->
  ?parallel:bool ->
  ?place:Flow.placer ->
  ?place_domains:int ->
  ?freq_mhz:int ->
  ?cu_counts:int list ->
  unit ->
  Flow.implementation list
(** Implement the {!scaling_specs} grid (default 667 MHz at 8/16/32/64
    CUs) with the selected floorplan engine.  Beyond 8 CUs each
    implementation's [achieved_mhz] carries the
    {!Spec.contention_derate}. *)
