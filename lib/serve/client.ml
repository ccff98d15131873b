module Json = Ggpu_obs.Json
module Trace = Ggpu_obs.Trace
module Metrics = Ggpu_obs.Metrics

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* The client is the trace originator: every request leaves with a
   trace context (unless the caller minted one), so the daemon's spans
   can be stitched to the client-side round-trip span by id. *)
let with_trace (req : Proto.request) =
  match req.Proto.trace with
  | Some _ -> req
  | None ->
      {
        req with
        Proto.trace =
          Some
            {
              Proto.trace_id = Trace.new_trace_id ();
              span_id = Trace.new_span_id ();
            };
      }

let root_span (req : Proto.request) ~ts_ns ~dur_ns =
  match req.Proto.trace with
  | None -> ()
  | Some { Proto.trace_id; span_id } ->
      Trace.complete
        ~args:(Trace.ctx_args ~trace_id ~span_id)
        ~ts_ns ~dur_ns:(max 0 dur_ns) "client.request"

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try close_out t.oc with Sys_error _ -> ()

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv_line t =
  match input_line t.ic with
  | line -> Ok line
  | exception End_of_file -> Error "connection closed by daemon"

let call t req =
  let req = with_trace req in
  let t0 = Metrics.now_ns () in
  send_line t (Proto.request_to_line req);
  let r = Result.bind (recv_line t) Proto.response_of_line in
  root_span req ~ts_ns:t0 ~dur_ns:(Metrics.now_ns () - t0);
  r

let control t c =
  send_line t (Proto.control_to_line c);
  Result.bind (recv_line t) Json.parse

let ping t =
  match control t Proto.Ping with
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

let stats t = control t Proto.Stats

let shutdown t =
  match control t Proto.Shutdown with
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

let dump t =
  match control t Proto.Dump with
  | Error _ as e -> e
  | Ok j ->
      if Json.member "trace" j = None then
        Error "dump reply carried no trace document"
      else Ok j

let scrape t =
  match control t Proto.Telemetry with
  | Error _ as e -> e
  | Ok j -> (
      match Json.member "exposition" j with
      | Some (Json.String s) -> Ok s
      | _ -> Error "telemetry reply carried no exposition text")

type replay_summary = {
  sent : int;
  ok : int;
  cached : int;
  rejected : int;
  expired : int;
  failed : int;
  wall_s : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  throughput_rps : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let replay ?(batch = 64) t reqs =
  let batch = max 1 batch in
  let lat_us = ref [] in
  let ok = ref 0 and cached = ref 0 and rejected = ref 0 in
  let expired = ref 0 and failed = ref 0 and sent = ref 0 in
  let t0 = Metrics.now_ns () in
  let rec window = function
    | [] -> ()
    | reqs ->
        let rec take n = function
          | x :: rest when n > 0 ->
              let chunk, rest = take (n - 1) rest in
              (x :: chunk, rest)
          | rest -> ([], rest)
        in
        let chunk, rest = take batch reqs in
        let chunk = List.map with_trace chunk in
        (* pipeline: write the whole window, then collect its replies;
           latency is measured from the window's send to each reply *)
        let sent_at_ns = Metrics.now_ns () in
        List.iter (fun r -> send_line t (Proto.request_to_line r)) chunk;
        incr_sent chunk sent_at_ns;
        window rest
  and incr_sent chunk sent_at_ns =
    List.iter
      (fun (req : Proto.request) ->
        incr sent;
        match Result.bind (recv_line t) Proto.response_of_line with
        | Error msg -> failwith ("replay: " ^ msg)
        | Ok resp ->
            if resp.Proto.id <> req.Proto.id then
              failwith
                (Printf.sprintf "replay: response %d for request %d"
                   resp.Proto.id req.Proto.id);
            let dur_ns = Metrics.now_ns () - sent_at_ns in
            root_span req ~ts_ns:sent_at_ns ~dur_ns;
            lat_us := (float_of_int dur_ns /. 1e3) :: !lat_us;
            (match resp.Proto.status with
            | Proto.Done ->
                incr ok;
                if resp.Proto.cached then incr cached
            | Proto.Rejected _ -> incr rejected
            | Proto.Expired -> incr expired
            | Proto.Failed _ -> incr failed))
      chunk
  in
  window reqs;
  let wall_s = float_of_int (Metrics.now_ns () - t0) /. 1e9 in
  let lats = Array.of_list !lat_us in
  Array.sort compare lats;
  let mean_us =
    if Array.length lats = 0 then 0.
    else Array.fold_left ( +. ) 0. lats /. float_of_int (Array.length lats)
  in
  {
    sent = !sent;
    ok = !ok;
    cached = !cached;
    rejected = !rejected;
    expired = !expired;
    failed = !failed;
    wall_s;
    mean_us;
    p50_us = percentile lats 0.50;
    p99_us = percentile lats 0.99;
    throughput_rps =
      (if wall_s > 0. then float_of_int !sent /. wall_s else 0.);
  }

let summary_json s =
  Json.Obj
    [
      ("sent", Json.Int s.sent);
      ("ok", Json.Int s.ok);
      ("cached", Json.Int s.cached);
      ("rejected", Json.Int s.rejected);
      ("expired", Json.Int s.expired);
      ("failed", Json.Int s.failed);
      ("wall_s", Json.Float s.wall_s);
      ("mean_us", Json.Float s.mean_us);
      ("p50_us", Json.Float s.p50_us);
      ("p99_us", Json.Float s.p99_us);
      ("throughput_rps", Json.Float s.throughput_rps);
    ]
