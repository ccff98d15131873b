(* Single-threaded select loop; all parallelism lives behind
   [Engine.step]'s pool fan-out.  Connections are independent NDJSON
   streams: requests keep their caller-chosen ids on the wire, and are
   renumbered onto a private sequence internally so concurrent clients
   cannot collide inside the engine.

   Observability: every request leaves one span group — the daemon's
   socket-read and reply spans wrapped around the engine's
   queue/probe/batch/execute spans — kept in an always-on bounded
   flight recorder (plus a separate ring for slow requests), so a
   [dump] control can reconstruct a Perfetto-loadable trace of the
   recent past without the daemon having been started with tracing
   armed.  All of it is observer-only: payload bytes and responses are
   untouched. *)

module Json = Ggpu_obs.Json
module Metrics = Ggpu_obs.Metrics
module Trace = Ggpu_obs.Trace
module Ring = Ggpu_obs.Ring
module Pool = Ggpu_par.Parallel.Pool

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes of a not-yet-terminated incoming line *)
  mutable out : Bytes.t;  (* [out_len] bytes of replies not yet written *)
  mutable out_len : int;
  mutable written_ns : int;  (* when its last write returned *)
  mutable alive : bool;
}

(* Where a renumbered request came from, plus what the recorder needs
   to close its group: when it was read off the socket, how long the
   parse-and-submit took, and its wire trace context. *)
type route = {
  r_conn : conn;
  r_orig : int;  (* caller-chosen id *)
  r_read_ts : int;
  r_read_dur : int;
  r_trace : Proto.trace_ctx option;
}

(* One flight-recorder entry: a request's full span group with enough
   summary to render the slow log without replaying the events. *)
type group = {
  g_id : int;  (* caller-chosen id *)
  g_trace : Proto.trace_ctx option;
  g_latency_us : int;  (* socket read to reply flushed *)
  g_slow : bool;
  g_events : Trace.event list;
}

type state = {
  engine : Engine.t;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  (* engine-side sequence id -> route *)
  routes : (int, route) Hashtbl.t;
  mutable seq : int;
  mutable stopping : bool;
  log : string -> unit;
  started_ns : int;
  slow_threshold_us : int;
  recorder : group Ring.t;
  slow : group Ring.t;
  chunk : Bytes.t;  (* every socket read lands here *)
}

(* Replies wait in their connection's [out] until the end of the select
   round, then leave in one write.  [out] and the read chunk live as
   long as the connection and the daemon: a fresh buffer per batch is
   a major-heap block (over 2 KiB) every round. *)
let queue_line conn s =
  if conn.alive then begin
    let len = String.length s in
    let need = conn.out_len + len + 1 in
    if need > Bytes.length conn.out then begin
      let out = Bytes.create (max need (2 * Bytes.length conn.out)) in
      Bytes.blit conn.out 0 out 0 conn.out_len;
      conn.out <- out
    end;
    Bytes.blit_string s 0 conn.out conn.out_len len;
    Bytes.set conn.out (need - 1) '\n';
    conn.out_len <- need
  end

(* A failed write marks only its own connection. *)
let flush conn =
  if conn.out_len > 0 then begin
    (if conn.alive then
       let pos = ref 0 in
       try
         while !pos < conn.out_len do
           let n =
             try Unix.write conn.fd conn.out !pos (conn.out_len - !pos)
             with Unix.Unix_error (Unix.EINTR, _, _) -> 0
           in
           pos := !pos + n
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
         conn.alive <- false);
    conn.out_len <- 0;
    conn.written_ns <- Metrics.now_ns ()
  end

let unkeyed id status =
  { Proto.id; status; cached = false; key = ""; result = "" }

let mk_span ?(args = []) ~trace ~ts_ns ~dur_ns name =
  let targs =
    match trace with
    | Some { Proto.trace_id; span_id } -> Trace.ctx_args ~trace_id ~span_id
    | None -> []
  in
  {
    Trace.ph = Trace.Complete;
    name;
    ts_ns;
    dur_ns = max 0 dur_ns;
    tid = (Domain.self () :> int);
    args = targs @ args;
    values = [];
  }

let stats_line st =
  let now = Metrics.now_ns () in
  Json.to_string
    (Json.Obj
       [
         ("control", Json.String "stats");
         ("pool_domains", Json.Int (Engine.pool_size st.engine));
         ("pending", Json.Int (Engine.pending st.engine));
         ("queue_depth", Json.Int (Engine.pending st.engine));
         ( "uptime_s",
           Json.Float (float_of_int (now - st.started_ns) /. 1e9) );
         ( "hit_rate",
           match Engine.hit_rate st.engine with
           | Some r -> Json.Float r
           | None -> Json.Null );
         ( "recorder",
           Json.Obj
             [
               ("capacity", Json.Int (Ring.capacity st.recorder));
               ("recorded", Json.Int (Ring.total st.recorder));
               ("kept", Json.Int (Ring.length st.recorder));
               ("slow", Json.Int (Ring.total st.slow));
               ("slow_threshold_us", Json.Int st.slow_threshold_us);
             ] );
         ( "metrics",
           Ggpu_obs.Metrics.snapshot_to_json (Engine.metrics st.engine) );
       ])

(* The dump document: every event of every retained group (the main
   ring plus slow-log survivors that aged out of it), deduplicated —
   batch/execute spans are shared across a batch's groups — and
   time-ordered.  Rendering is a pure function of the retained groups,
   so two dumps with no traffic in between are byte-identical. *)
let dump_doc groups =
  let events =
    List.concat_map (fun g -> g.g_events) groups
    |> List.sort_uniq compare
    |> List.stable_sort (fun (a : Trace.event) b ->
           Int.compare a.Trace.ts_ns b.Trace.ts_ns)
  in
  Trace.events_to_json events

let dump_line st =
  let groups = Ring.to_list st.slow @ Ring.to_list st.recorder in
  let slow_summary =
    Ring.to_list st.slow
    |> List.map (fun g ->
           Json.Obj
             ([ ("id", Json.Int g.g_id) ]
             @ (match g.g_trace with
               | Some { Proto.trace_id; _ } ->
                   [ ("trace_id", Json.String trace_id) ]
               | None -> [])
             @ [ ("latency_us", Json.Int g.g_latency_us) ]))
  in
  Json.to_string
    (Json.Obj
       [
         ("control", Json.String "dump");
         ("recorded", Json.Int (Ring.total st.recorder));
         ("kept", Json.Int (Ring.length st.recorder));
         ( "dropped",
           Json.Int (Ring.total st.recorder - Ring.length st.recorder) );
         ("slow", Json.List slow_summary);
         ("trace", dump_doc groups);
       ])

let telemetry_line st =
  Json.to_string
    (Json.Obj
       [
         ("control", Json.String "telemetry");
         ( "exposition",
           Json.String (Metrics.expose (Engine.metrics st.engine)) );
       ])

let handle_line st conn ~read_ts line =
  match Proto.incoming_of_line line with
  | Error msg ->
      queue_line conn (Proto.response_to_line (unkeyed 0 (Proto.Failed msg)))
  | Ok (Proto.Control Proto.Ping) ->
      queue_line conn
        (Json.to_string
           (Json.Obj
              [ ("control", Json.String "ping"); ("ok", Json.Bool true) ]))
  | Ok (Proto.Control Proto.Stats) -> queue_line conn (stats_line st)
  | Ok (Proto.Control Proto.Dump) -> queue_line conn (dump_line st)
  | Ok (Proto.Control Proto.Telemetry) -> queue_line conn (telemetry_line st)
  | Ok (Proto.Control Proto.Shutdown) ->
      st.stopping <- true;
      queue_line conn
        (Json.to_string
           (Json.Obj
              [ ("control", Json.String "shutdown"); ("ok", Json.Bool true) ]))
  | Ok (Proto.Req req) -> (
      st.seq <- st.seq + 1;
      let seq = st.seq in
      match Engine.submit st.engine { req with Proto.id = seq } with
      | `Queued ->
          Hashtbl.replace st.routes seq
            {
              r_conn = conn;
              r_orig = req.Proto.id;
              r_read_ts = read_ts;
              r_read_dur = Metrics.now_ns () - read_ts;
              r_trace = req.Proto.trace;
            }
      | `Rejected retry_after_ms ->
          queue_line conn
            (Proto.response_to_line
               (unkeyed req.Proto.id (Proto.Rejected { retry_after_ms }))))

(* Close a replied request's span group — read + engine stages + reply,
   the reply ending at the write that carried it — and push it into the
   flight recorder. *)
let record st { r_conn; r_orig; r_read_ts; r_read_dur; r_trace } spans
    ~reply_start =
  (* a connection that went away has no write to end at *)
  let reply_end =
    if r_conn.alive then r_conn.written_ns else Metrics.now_ns ()
  in
  let read_ev =
    mk_span ~trace:r_trace ~ts_ns:r_read_ts ~dur_ns:r_read_dur "serve.read"
  in
  let reply_ev =
    mk_span ~trace:r_trace ~ts_ns:reply_start
      ~dur_ns:(reply_end - reply_start) "serve.reply"
  in
  if Trace.enabled () then begin
    Trace.emit read_ev;
    Trace.emit reply_ev
  end;
  let latency_us = max 0 ((reply_end - r_read_ts) / 1000) in
  let slow = latency_us > st.slow_threshold_us in
  let g =
    {
      g_id = r_orig;
      g_trace = r_trace;
      g_latency_us = latency_us;
      g_slow = slow;
      g_events = (read_ev :: spans) @ [ reply_ev ];
    }
  in
  Ring.push st.recorder g;
  if slow then begin
    Ring.push st.slow g;
    st.log
      (Printf.sprintf "slow request id=%d%s: %d us (threshold %d)" r_orig
         (match r_trace with
         | Some { Proto.trace_id; _ } -> " trace=" ^ trace_id
         | None -> "")
         latency_us st.slow_threshold_us)
  end

(* One engine batch; each reply goes into the buffer of the connection
   its request came in on, with its original id restored.  Then every
   connection is written once — the batch's replies together with the
   control, failed and rejected replies of this round — and only then
   are the batch's span groups recorded. *)
let pump st =
  let replied =
    if Engine.pending st.engine = 0 then []
    else
      List.filter_map
        (fun { Engine.resp; spans } ->
          match Hashtbl.find_opt st.routes resp.Proto.id with
          | None -> None
          | Some route ->
              Hashtbl.remove st.routes resp.Proto.id;
              let reply_start = Metrics.now_ns () in
              queue_line route.r_conn
                (Proto.response_to_line { resp with Proto.id = route.r_orig });
              Some (route, spans, reply_start))
        (Engine.step_traced st.engine)
  in
  List.iter flush st.conns;
  List.iter
    (fun (route, spans, reply_start) -> record st route spans ~reply_start)
    replied

let drop_conn st conn =
  conn.alive <- false;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  st.conns <- List.filter (fun c -> c != conn) st.conns

(* The longest line the daemon buffers: far above any request or
   control a client sends (a few hundred bytes), and a bound on what one
   connection can make the daemon hold. *)
let max_line_bytes = 65536

(* The first newline in [chunk] at or after [i], or [n]. *)
let rec line_end chunk i n =
  if i < n && Bytes.unsafe_get chunk i <> '\n' then line_end chunk (i + 1) n
  else i

(* Each newline is found by one scan of the chunk and each line's bytes
   are copied once: a line that lies inside one read, with nothing of it
   buffered, is one [Bytes.sub_string]; the tail of a read without its
   newline waits in [conn.buf]. *)
let read_ready st conn =
  let chunk = st.chunk in
  let read_ts = Metrics.now_ns () in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop_conn st conn
  | 0 -> drop_conn st conn
  | n ->
      let rec segments start =
        let stop = line_end chunk start n in
        if Buffer.length conn.buf + (stop - start) > max_line_bytes then begin
          (* the reply a malformed line gets, then the connection goes:
             the rest of the line is not worth reading *)
          queue_line conn
            (Proto.response_to_line
               (unkeyed 0
                  (Proto.Failed
                     (Printf.sprintf "line longer than %d bytes"
                        max_line_bytes))));
          flush conn;
          drop_conn st conn
        end
        else if stop = n then
          Buffer.add_subbytes conn.buf chunk start (n - start)
        else begin
          let line =
            if Buffer.length conn.buf = 0 then
              Bytes.sub_string chunk start (stop - start)
            else begin
              Buffer.add_subbytes conn.buf chunk start (stop - start);
              let line = Buffer.contents conn.buf in
              Buffer.clear conn.buf;
              line
            end
          in
          if String.trim line <> "" then handle_line st conn ~read_ts line;
          segments (stop + 1)
        end
      in
      segments 0

let accept_ready st =
  match Unix.accept st.listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | fd, _ ->
      st.conns <-
        {
          fd;
          buf = Buffer.create 256;
          out = Bytes.create 4096;
          out_len = 0;
          written_ns = 0;
          alive = true;
        }
        :: st.conns

let run ?(engine_config = Engine.default_config) ?domains
    ?(recorder_capacity = 256) ?(slow_ms = 500) ?(log = fun _ -> ()) ~socket
    () =
  (* broken client connections must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pool = Pool.create ?domains () in
  let engine = Engine.create ~config:engine_config ~pool () in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  let st =
    {
      engine;
      pool;
      listen_fd;
      conns = [];
      routes = Hashtbl.create 64;
      seq = 0;
      stopping = false;
      log;
      started_ns = Metrics.now_ns ();
      slow_threshold_us = max 1 slow_ms * 1000;
      recorder = Ring.create ~capacity:(max 1 recorder_capacity);
      slow = Ring.create ~capacity:(max 1 (recorder_capacity / 4));
      chunk = Bytes.create 4096;
    }
  in
  let request_stop _ = st.stopping <- true in
  let prev_term =
    try Some (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop))
    with Invalid_argument _ -> None
  in
  let prev_int =
    try Some (Sys.signal Sys.sigint (Sys.Signal_handle request_stop))
    with Invalid_argument _ -> None
  in
  log
    (Printf.sprintf "serving on %s (%d domains)" socket
       (Engine.pool_size engine));
  while not st.stopping do
    let fds = st.listen_fd :: List.map (fun c -> c.fd) st.conns in
    match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if List.memq st.listen_fd ready then accept_ready st;
        List.iter
          (fun conn -> if List.memq conn.fd ready then read_ready st conn)
          st.conns;
        pump st
  done;
  (* graceful drain: no new connections, finish queued work, flush *)
  log "shutting down: draining queued work";
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  while Engine.pending st.engine > 0 do
    pump st
  done;
  List.iter
    (fun conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ())
    st.conns;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Pool.shutdown pool;
  (match prev_term with Some b -> Sys.set_signal Sys.sigterm b | None -> ());
  (match prev_int with Some b -> Sys.set_signal Sys.sigint b | None -> ());
  log "stopped"
