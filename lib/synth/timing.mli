(** Static timing analysis over a netlist: worst register-to-register
    paths between flip-flops and SRAM macros, with launch/setup numbers
    drawn from the technology models. Macro geometry on the critical
    path is the pivot of the paper's design-space exploration. *)

type path = {
  launch : Ggpu_hw.Cell.t;  (** sequential cell the path starts at *)
  capture : Ggpu_hw.Cell.t;
  through : Ggpu_hw.Cell.t list;  (** combinational cells, in order *)
  delay_ns : float;  (** clk-to-q + logic + setup + skew *)
}

type report = {
  worst : path;
  max_delay_ns : float;
  fmax_mhz : float;
  endpoint_count : int;
}

exception No_paths

val launch_delay : Ggpu_tech.Tech.t -> Ggpu_hw.Cell.t -> float
(** Clock-to-q of a sequential cell.
    @raise Invalid_argument on a combinational cell. *)

val setup_time : Ggpu_tech.Tech.t -> Ggpu_hw.Cell.t -> float
val cell_delay : Ggpu_tech.Tech.t -> Ggpu_hw.Cell.t -> float

type arrivals = {
  net_arrival : (int, float) Hashtbl.t;  (** net id -> worst arrival *)
  net_pred : (int, Ggpu_hw.Cell.t * Ggpu_hw.Net.t option) Hashtbl.t;
  net_launch : (int, Ggpu_hw.Cell.t) Hashtbl.t;
      (** net id -> sequential cell the worst path launches from; absent
          when the worst cone is rooted at a primary input *)
}
(** The engine's tables as hashtables ({!engine_arrivals}): what the
    tests compare, net by net, against the full-sweep reference in
    [test/sta_oracle.ml]. *)

(** {1 Incremental engine}

    Caches levelized arrival state in int-indexed arrays across repeated
    analyses of the same mutating netlist (the planner's analyse-edit
    loop).  After an edit, only the fan-out cone of the touched cells is
    re-swept, using the netlist's change journal
    ({!Ggpu_hw.Netlist.changes_since}).  The engine also keeps an
    endpoint summary per sequential cell (endpoint count, worst delay,
    that endpoint's net) and refreshes only those of the journal's cells
    and of the sequential readers of nets whose arrival, predecessor or
    launch changed; the report is the first maximum over the summaries
    in ascending cell id, each summary holding its cell's first maximum
    in pin order.  Reports and arrival tables are bit-identical to the
    plain full sweep in [test/sta_oracle.ml]: hashtable arrivals filled
    in topological order, then one endpoint scan in ascending cell id.
    Endpoints are counted only where a register path reaches them
    (paths from primary inputs are excluded). *)

type engine

type engine_stats = {
  full_recomputes : int;  (** whole-graph recomputations (>= 1) *)
  incremental_updates : int;  (** journal-driven cone updates *)
}

val make_engine : Ggpu_tech.Tech.t -> Ggpu_hw.Netlist.t -> engine
(** Performs the initial full computation.
    @raise Ggpu_hw.Topo.Combinational_loop on a combinational cycle. *)

val engine_analyse : engine -> report
(** Synchronise with the netlist's current revision and report.
    @raise No_paths if the netlist has no register-to-register path.
    @raise Ggpu_hw.Topo.Combinational_loop if an edit since the last
    synchronisation closed a combinational cycle, naming the cells
    {!make_engine} would name. *)

val engine_arrivals : engine -> arrivals
(** Synchronised arrival tables of the current netlist. *)

val engine_net_arrival : engine -> Ggpu_hw.Net.t -> float
(** Synchronise, then the worst arrival of a net of the netlist: what
    [(engine_arrivals engine).net_arrival] holds for it, or 0.0 where
    that has no entry (an undriven net).  Read by post-route analysis
    ({!Ggpu_layout.Timing_post}). *)

val engine_stats : engine -> engine_stats

val meets : report -> period_ns:float -> bool
val pp_path : Format.formatter -> path -> unit
