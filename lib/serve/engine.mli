(** The serving core, socket-free: a bounded request queue with
    backpressure and deadlines, a sharded content-hash memo cache of
    serialised results, and batched execution over a persistent
    {!Ggpu_par.Parallel.Pool}.

    The engine is deliberately synchronous and single-owner (the daemon
    loop or a bench driver drives it); parallelism happens inside
    {!step}, which fans one batch of cache misses out over the pool.

    Determinism contract: a payload is a pure function of its memo key,
    so a cache hit returns the exact bytes the cold computation
    produced — enforced by tests across pool sizes and against the
    reference lane engine. *)

type config = {
  cache_capacity : int;  (** result entries, across all shards *)
  shards : int;  (** cache shards (chosen by key hash) *)
  queue_capacity : int;  (** pending requests before backpressure *)
  retry_after_ms : int;  (** hint sent with [Rejected] *)
  pmu_stride : int;  (** hot-PC sampling period of [Perf] requests *)
}

val default_config : config
(** 4096 entries over 8 shards, queue of 256, retry hint 50 ms,
    stride 64. *)

type t

val create : ?config:config -> ?pool:Ggpu_par.Parallel.Pool.t -> unit -> t
(** [pool] is the shared domain pool batches fan out on; absent, misses
    run sequentially on the caller.  The engine never shuts the pool
    down — its owner does. *)

val pool_size : t -> int
(** Domains a batch runs on (1 without a pool) — the scheduler's
    batch-sizing input. *)

val tech_of_name : string -> Ggpu_tech.Tech.t option
(** A name of {!Ggpu_tech.Tech.by_name}. *)

val key_of_request : ?pmu_stride:int -> Proto.request -> (string, string) result
(** The full memo key a request resolves to (after size normalisation),
    or a deterministic error for an unknown kernel/technology.
    [pmu_stride] (default as in {!default_config}) enters [Perf] keys.
    Exposed for key-property tests and for clients that want to reason
    about cache identity. *)

val submit : t -> Proto.request -> [ `Queued | `Rejected of int ]
(** Enqueue, or reject with a retry-after hint (ms) when the queue is
    at capacity. *)

val pending : t -> int

val step : t -> Proto.response list
(** Drain everything queued as one batch: answer hits from the cache,
    expire overdue requests, coalesce duplicate keys, prefetch shared
    base netlists / kernel compilations, fan the remaining unique
    misses out over the pool, fill the cache, and return responses in
    arrival order. *)

type telemetry = {
  resp : Proto.response;
  spans : Ggpu_obs.Trace.event list;
      (** the request's engine-side span group: pre-measured [Complete]
          events for its queue wait ([serve.queue]), cache probe
          ([serve.probe], with an [outcome] arg), coalescing
          ([serve.coalesce]), batch formation ([serve.batch], shared by
          the batch) and execution ([serve.execute], on the worker
          domain that ran it; shared by coalesced duplicates).  Events
          of a wire-traced request carry its [trace_id]/[span_id]
          args. *)
}

val step_traced : t -> telemetry list
(** {!step}, returning each response with its span group.  Groups are
    captured unconditionally (the daemon's flight recorder depends on
    them) and mirrored into the global {!Ggpu_obs.Trace} buffers when
    tracing is enabled.  [step] is [step_traced] minus the spans. *)

val latency_buckets : int list
(** Bucket bounds of the [serve.latency.*] histograms: log-spaced
    integer microseconds (powers of two, 1 µs to ~16.8 s). *)

val process : t -> Proto.request list -> Proto.response list
(** Convenience driver: submit each request ([Rejected] responses are
    synthesised inline for overflow) and {!step} until drained;
    responses come back in input order. *)

val metrics : t -> Ggpu_obs.Metrics.snapshot
(** The engine's own registry: [serve.requests], [serve.batches],
    [serve.cache.hit]/[miss]/[eviction]/[coalesced],
    [serve.netlist.build]/[reuse], [serve.kernel.compile]/[reuse],
    [serve.rejected], [serve.expired], [serve.failed], the
    [serve.queue.high_water] / [serve.pool.domains] gauges, and the
    per-kind submit-to-response latency histograms
    [serve.latency.sim]/[synth]/[perf] (integer microseconds in
    {!latency_buckets}) that `bench serve` and the daemon's stats both
    derive their p50/p99/p999 from. *)

val hit_rate : t -> float option
(** (hits + coalesced) / (hits + coalesced + misses); [None] before any
    keyed request. *)
