(** Span tracer: nested timed spans with string attributes, exported as
    Chrome trace-event JSON ([chrome://tracing] / Perfetto loadable).

    Tracing is a process-wide switch, off by default; a disabled
    {!with_span} costs one atomic load and a branch, so hot paths can
    stay instrumented unconditionally.  When enabled, each domain
    appends begin/end events to its own buffer (no contention); buffers
    are registered globally so spans recorded inside a joined
    {!Ggpu_par.Parallel} fan-out survive their domain.

    Besides wall-clock spans the tracer records Chrome counter tracks
    ({!counter}, phase ["C"]) and pre-measured complete spans
    ({!complete}, phase ["X"]).  Both take explicit timestamps, so
    virtual-time timelines — e.g. the PMU's per-CU wavefront occupancy
    in simulated cycles — share the same buffers and viewer. *)

type phase = Begin | End | Instant | Counter | Complete

type event = {
  ph : phase;
  name : string;
  ts_ns : int;
  dur_ns : int;  (** [Complete] spans only; [0] otherwise *)
  tid : int;  (** recording domain's id, unless overridden *)
  args : (string * string) list;
  values : (string * int) list;  (** [Counter] series values *)
}

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all buffered events and forget the buffers of joined domains,
    so repeated traced runs in one process don't concatenate stale
    events (or leak one buffer per completed worker domain).  Live
    domains transparently re-register on their next recorded event.
    Not safe to call concurrently with recording — reset between runs,
    not during one. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  The end event is recorded also
    on exceptional exit, so traces stay balanced. *)

val instant : ?args:(string * string) list -> string -> unit

val counter : ?ts_ns:int -> ?tid:int -> string -> (string * int) list -> unit
(** [counter name values] records one sample of a Chrome counter track:
    each [(series, value)] pair becomes a numeric arg, rendered by the
    viewer as a stacked area chart.  [ts_ns]/[tid] default to wall
    clock and the recording domain; pass both to build virtual-time
    tracks (one [tid] per track).  No-op when disabled. *)

val complete :
  ?args:(string * string) list ->
  ?tid:int ->
  ts_ns:int ->
  dur_ns:int ->
  string ->
  unit
(** [complete ~ts_ns ~dur_ns name] records a pre-measured span (phase
    ["X"]) — used when start and duration are computed after the fact,
    e.g. a wavefront's dispatch-to-retire lifetime in simulated cycles.
    No-op when disabled. *)

val emit : event -> unit
(** Append a pre-built event to the calling domain's buffer (no-op when
    disabled).  Lets code that assembles events for its own purposes —
    the serve flight recorder builds span groups whether or not tracing
    is armed — mirror them into the global trace without re-measuring. *)

val events : unit -> event list
(** All buffered events, stably sorted by timestamp (per-domain record
    order is preserved for equal timestamps). *)

(** {1 Trace context}

    Cross-process stitching: a client mints a trace id, the serve wire
    carries it, and every server-side span records it as a [trace_id]
    arg, so one Perfetto search follows a request end to end.  Ids are
    pid-and-counter based — unique among live requests, deterministic
    in tests, no randomness. *)

val new_trace_id : unit -> string
val new_span_id : unit -> string

val ctx_args : trace_id:string -> span_id:string -> (string * string) list
(** The two id args every span of a traced request carries. *)

val events_to_json : event list -> Json.t
(** Render an explicit event list as a complete Chrome trace document
    (used by the flight-recorder dump, which owns its own events rather
    than the global buffers). *)

val to_json : unit -> Json.t

val export : path:string -> unit
(** Write the buffered events as a Chrome trace-event JSON object
    ([{"traceEvents": [...]}]). *)

(** {1 Validation}

    A structural checker for trace files — used by the CI smoke job and
    the test suite, so the emitter cannot silently drift away from the
    format Chrome accepts. *)

type summary = {
  event_count : int;
  span_count : int;  (** matched begin/end pairs *)
  max_depth : int;
  thread_count : int;
}

val validate_json : Json.t -> (summary, string) result
(** Check a parsed document: a top-level [traceEvents] array (or bare
    array) whose elements carry [name]/[ph]/[ts]/[pid]/[tid], with
    begin/end events properly nested (LIFO, matching names) per
    (pid, tid), complete events carrying a non-negative numeric [dur],
    and counter events carrying at least one numeric series in [args].
    Counter and complete events are legal anywhere — they never enter
    the begin/end nesting. *)

val validate_file : string -> (summary, string) result
val pp_summary : Format.formatter -> summary -> unit
