(** Metrics registry: named counters, gauges and fixed-bucket
    histograms with a deterministic merge.

    Every stored value is integral — counters and histogram cell counts
    are ints, timings are integer nanoseconds, gauges merge by [max] —
    so {!merge} is associative and commutative and a set of per-domain
    or per-item snapshots folds to a bit-identical result no matter how
    work was partitioned over a {!Ggpu_par.Parallel} domain pool.

    Two usage styles:
    - {b explicit registries} ({!create}/{!snapshot}/{!merge}) for
      scoped measurements (one registry per DSE run, per trial, …);
    - the {b ambient} per-domain registry ({!count}, {!record_gauge},
      {!observe_named}), off by default and gated on a single atomic flag so
      instrumented hot paths cost one load-and-branch when disabled.
      Each domain owns its registry, so recording never contends;
      {!ambient_snapshot} merges them all. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Find or create. @raise Invalid_argument if [name] is already a
    metric of another kind. *)

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotone). *)

val incr : counter -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge

val gauge_max : gauge -> int -> unit
(** Record an observation; the gauge keeps the maximum (which is what
    makes its merge order-free). *)

val gauge_value : gauge -> int option

(** {1 Histograms} *)

val default_buckets : int list

val histogram : ?buckets:int list -> t -> string -> histogram
(** [buckets] are strictly ascending inclusive upper bounds; an
    implicit overflow bucket catches the rest.  All registries must
    agree on a histogram's buckets for snapshots to merge. *)

val observe : histogram -> int -> unit

(** {1 Time} *)

val now_ns : unit -> int
(** Monotonic-clock nanoseconds.  The origin is arbitrary but shared by
    every process on the host, so only differences (and spans of
    different processes on one host) are meaningful. *)

val time_counter : counter -> (unit -> 'a) -> 'a
(** Run the thunk and add its elapsed nanoseconds to the counter, also
    on exceptional exit. *)

(** {1 Snapshots and merging} *)

type hist_snapshot = {
  bounds : int list;  (** ascending upper bounds *)
  counts : int list;  (** length [bounds]+1; last cell is overflow *)
  sum : int;
  min_v : int;  (** [max_int] when empty *)
  max_v : int;  (** [min_int] when empty *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted; unset gauges omitted *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : t -> snapshot
val empty_snapshot : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Counters add, gauges max, histogram cells add pointwise.
    Associative and commutative with {!empty_snapshot} as identity.
    @raise Invalid_argument when a histogram name carries different
    buckets on the two sides. *)

val merge_all : snapshot list -> snapshot
val equal_snapshot : snapshot -> snapshot -> bool
val hist_total : hist_snapshot -> int

val hist_percentile : hist_snapshot -> float -> int
(** [hist_percentile h q] (with [q] in [[0, 1]]) is the upper bound of
    the smallest bucket whose cumulative count covers rank
    [ceil (q * total)], capped at the observed maximum; the overflow
    cell reports the observed maximum.  [0] on an empty histogram.
    Integer-exact on the cells, so every consumer of one snapshot
    derives identical p50/p99/p999 values. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histogram : snapshot -> string -> hist_snapshot option
val snapshot_to_json : snapshot -> Json.t

val expose : snapshot -> string
(** Stable text exposition of a snapshot: [counter <name> <v>] /
    [gauge <name> <v>] lines, then per histogram a
    [histogram <name> count .. sum .. min .. max ..] header followed by
    cumulative [bucket <name> le <bound> <cum>] lines (the overflow
    bucket prints [le inf]).  Names appear in the snapshot's sorted
    order, so equal snapshots expose byte-identical text — the format
    the daemon's [Telemetry] control serves to scrapers. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

(** {1 Ambient per-domain registries} *)

val set_ambient_enabled : bool -> unit
val ambient_enabled : unit -> bool

val ambient : unit -> t
(** The calling domain's registry (created and registered on first
    use; it outlives the domain so fan-out results are not lost). *)

val ambient_snapshot : unit -> snapshot
(** Merge of every domain's registry.  Call after fan-outs have joined;
    recording domains still running may contribute torn-in-time (but
    never torn-in-value) observations. *)

val ambient_reset : unit -> unit
(** Clear all registered registries (tests, repeated workloads). *)

val count : string -> int -> unit
(** Ambient counter add; no-op unless {!ambient_enabled}. *)

val record_gauge : string -> int -> unit
val observe_named : ?buckets:int list -> string -> int -> unit
