(** Blocking NDJSON client for the planning daemon, plus the replay
    driver used by the CLI smoke and the load bench. *)

type t

val connect : socket:string -> t
(** @raise Unix.Unix_error when the daemon is not listening. *)

val close : t -> unit

val call : t -> Proto.request -> (Proto.response, string) result
(** One request, one response (responses arrive in request order per
    connection).  The request leaves with a trace context, and the
    round trip is recorded as a [client.request] span (carrying the
    same [trace_id]) when the process tracer is enabled. *)

val ping : t -> bool
val stats : t -> (Ggpu_obs.Json.t, string) result

val shutdown : t -> bool
(** Ask the daemon to drain and exit; [true] once it acknowledges. *)

val dump : t -> (Ggpu_obs.Json.t, string) result
(** The daemon's flight-recorder dump: an object whose ["trace"] member
    is a complete Chrome-trace document of the retained span groups
    (plus [recorded]/[kept]/[dropped] counts and a [slow] summary). *)

val scrape : t -> (string, string) result
(** The daemon's metrics registry in text exposition format (one
    [counter]/[gauge]/[histogram]/[bucket] line each). *)

type replay_summary = {
  sent : int;
  ok : int;
  cached : int;  (** [Done] responses served from cache or coalesced *)
  rejected : int;
  expired : int;
  failed : int;
  wall_s : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  throughput_rps : float;
}

val replay : ?batch:int -> t -> Proto.request list -> replay_summary
(** Pipeline the requests in write-then-read windows of [batch]
    (default 64; clamped to at least 1) and record per-request
    round-trip latency.  [Rejected] responses are counted, not
    retried. *)

val summary_json : replay_summary -> Ggpu_obs.Json.t
