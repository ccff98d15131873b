(** Domain pool for the embarrassingly parallel parts of the flow
    (version-grid exploration).  Callers must only pass functions free
    of shared mutable state. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type timing = {
  t_start_ns : int;  (** wall clock at application start *)
  t_dur_ns : int;  (** elapsed, clamped non-negative *)
  t_domain : int;  (** the worker domain that ran the item *)
}
(** Per-item execution capture for {!Pool.map_timed}: since work
    stealing makes item placement a race, only the application itself
    can say which domain ran it and when — the serve engine renders
    these as per-worker execution spans. *)

val timed_apply : ('a -> 'b) -> 'a -> 'b * timing
(** Apply [f] on the calling domain, capturing its {!timing} — the
    sequential counterpart of {!Pool.map_timed}, so a poolless engine
    produces the same execution spans. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over a work-stealing domain pool of
    [min domains (length xs)] domains (default
    {!default_domains}).  [~domains:1] degrades to [List.map].  If any
    application raises, the first failure in input order is re-raised
    after all domains have drained.
    @raise Invalid_argument if [domains < 1]. *)

val map_collect :
  ?domains:int ->
  (Ggpu_obs.Metrics.t -> 'a -> 'b) ->
  'a list ->
  'b list * Ggpu_obs.Metrics.snapshot
(** Like {!map}, but hands each item a fresh metrics registry and
    returns the per-item snapshots merged in input order.  Because all
    metric values are integral, the merged snapshot is bit-identical
    for any [?domains], including 1.
    @raise Invalid_argument if [domains < 1]. *)

(** {1 Persistent pool}

    {!map} spawns and joins its domains on every call, which is fine
    for one-shot grids but wasteful for a long-lived service issuing
    many small fan-outs.  A {!Pool.t} spawns its worker domains once;
    each {!Pool.map} hands them one job and reuses them.  Results are
    identical to {!map} — order-preserving, first failure in input
    order re-raised — only the domain lifetime differs. *)

module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** A pool of [domains] (default {!default_domains}) workers: the
      calling domain plus [domains - 1] spawned ones.  [~domains:1]
      spawns nothing and {!map} degrades to [List.map].
      @raise Invalid_argument if [domains < 1]. *)

  val size : t -> int
  (** Number of domains a {!map} call runs on (callers use this to size
      batches). *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** As {!Parallel.map} on the pool's domains.  The caller participates,
      so all [size t] domains work the job.  Not reentrant: one [map]
      at a time per pool.
      @raise Invalid_argument after {!shutdown}. *)

  val map_timed : t -> ('a -> 'b) -> 'a list -> ('b * timing) list
  (** As {!map}, additionally capturing each item's wall-clock window
      and worker domain.  Results (and failure semantics) are identical
      to {!map}; only the {!timing} rides along. *)

  val map_collect :
    t ->
    (Ggpu_obs.Metrics.t -> 'a -> 'b) ->
    'a list ->
    'b list * Ggpu_obs.Metrics.snapshot
  (** As {!Parallel.map_collect} on the pool's domains. *)

  val shutdown : t -> unit
  (** Join the worker domains.  Idempotent; subsequent {!map} calls
      raise. *)
end
