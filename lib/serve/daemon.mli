(** The planning daemon: a single-threaded [Unix.select] loop speaking
    newline-delimited JSON ({!Proto}) over a Unix-domain socket, driving
    one {!Engine} whose batches fan out over a persistent
    {!Ggpu_par.Parallel.Pool} created once at startup.

    Each select round drains every complete line from every ready
    connection into the engine queue, then runs one {!Engine.step} — so
    requests that arrive together are batched together, sharing base
    netlists and kernel compilations — and writes each connection once,
    carrying all of that round's replies to it.  A write that fails
    with EPIPE or ECONNRESET marks only its own connection.

    Every request leaves a span group (the daemon's [serve.read] and
    [serve.reply] spans around the engine's per-stage spans, see
    {!Engine.step_traced}; the reply span ends at the write that carried
    it) in an always-on bounded flight recorder;
    requests slower than the slow threshold additionally land in a
    separate slow ring and the log.  A [dump] control returns the
    retained groups as one Chrome-trace document, and a [telemetry]
    control returns the engine registry in text exposition format —
    both without the daemon having been started with tracing armed.

    A line longer than {!max_line_bytes} gets the [failed] reply a
    malformed line gets, and its connection is closed.

    Shutdown (a [shutdown] control line, SIGTERM or SIGINT) is graceful:
    the listener closes, queued work drains through the engine, replies
    flush, and the socket path is unlinked. *)

val max_line_bytes : int
(** The longest line a connection may send: 64 KiB, far above any
    request or control. *)

val run :
  ?engine_config:Engine.config ->
  ?domains:int ->
  ?recorder_capacity:int ->
  ?slow_ms:int ->
  ?log:(string -> unit) ->
  socket:string ->
  unit ->
  unit
(** Serve on [socket] (an existing path is replaced) until asked to shut
    down.  [domains] sizes the shared pool (default
    {!Ggpu_par.Parallel.default_domains}); [recorder_capacity] bounds
    the flight recorder (default 256 span groups; the slow ring keeps a
    quarter of that); [slow_ms] is the slow-request threshold (default
    500 ms); [log] receives one-line lifecycle and slow-request
    messages (default: silent). *)
