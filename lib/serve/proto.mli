(** Wire types of the planning service: newline-delimited JSON, one
    request or response object per line, encoded with the dependency-free
    {!Ggpu_obs.Json}.

    A response's [result] field carries the exact cached payload bytes:
    the engine memoizes the serialised string, so a cache hit is
    byte-identical to the cold computation by construction. *)

type kind =
  | Synth of { cus : int; freq_mhz : int }
      (** netlist generation + DSE + STA: one Table-I row *)
  | Sim of { kernel : string; cus : int; size : int }
      (** simulate one suite kernel; [size] is rounded to the
          workload's legal-size grid before execution and keying *)
  | Perf of { kernel : string; cus : int; size : int }
      (** simulate with the PMU attached: stall buckets, hot PCs,
          bottleneck classification *)

type trace_ctx = {
  trace_id : string;  (** client-minted; tags every server-side span *)
  span_id : string;  (** the client's root span for this request *)
}
(** Wire-propagated trace context ({!Ggpu_obs.Trace.new_trace_id}):
    present on a request, it stitches the daemon's queue/probe/execute/
    reply child spans to the client's root span in one Perfetto view.
    Purely observational — it never enters a memo key or a payload. *)

type request = {
  id : int;  (** caller-chosen; echoed on the response *)
  tech : string;  (** technology model name: ["65nm"] or ["28nm"] *)
  kind : kind;
  deadline_ms : int option;
      (** drop the request (status [Expired]) if it has waited in the
          queue longer than this before execution starts *)
  trace : trace_ctx option;
}

type status =
  | Done
  | Rejected of { retry_after_ms : int }
      (** bounded-queue backpressure: resubmit after the hint *)
  | Expired  (** queued past its [deadline_ms] *)
  | Failed of string  (** deterministic error, e.g. unreachable target *)

type response = {
  id : int;
  status : status;
  cached : bool;  (** served from the memo cache (or batch-coalesced) *)
  key : string;  (** 16-hex digest of the memo key; [""] when unkeyed *)
  result : string;  (** serialised payload JSON; [""] unless [Done] *)
}

type control =
  | Ping
  | Stats  (** counters + histograms + uptime/queue depth *)
  | Shutdown
  | Dump  (** flight-recorder contents as a Chrome trace document *)
  | Telemetry  (** full registry snapshot in text exposition format *)

type incoming = Req of request | Control of control
(** One parsed client line. *)

val mk_request :
  ?deadline_ms:int -> ?tech:string -> ?trace:trace_ctx -> id:int -> kind ->
  request
(** [tech] defaults to ["65nm"]; [trace] to none (untraced). *)

val request_to_line : request -> string
(** One line, no trailing newline. *)

val control_to_line : control -> string

val incoming_of_line : string -> (incoming, string) result
(** A line with a [control] member is that control.  Otherwise it is a
    request, its fields checked in the order [id], [kind], [tech],
    [deadline_ms], then the kind's own fields: the first that is
    missing or of the wrong type is the error, for example
    [field "tech" must be a string].  An absent [tech] or [deadline_ms]
    takes its default; a lone or mistyped trace id reads as no trace
    context.  When a name repeats, its first occurrence counts. *)

val response_to_line : response -> string
(** One line, no trailing newline; [result] is spliced in verbatim as
    the last member. *)

val response_of_line : string -> (response, string) result

val result_json : response -> Ggpu_obs.Json.t option
(** Parse a [Done] response's payload. *)

