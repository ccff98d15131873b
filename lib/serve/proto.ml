(* Newline-delimited JSON wire format.  Requests parse strictly;
   responses embed the cached payload bytes verbatim (the payload is
   JSON the engine itself emitted, so splicing it into the response
   line keeps the line valid while preserving byte identity). *)

open Ggpu_obs

type kind =
  | Synth of { cus : int; freq_mhz : int }
  | Sim of { kernel : string; cus : int; size : int }
  | Perf of { kernel : string; cus : int; size : int }

type trace_ctx = { trace_id : string; span_id : string }

type request = {
  id : int;
  tech : string;
  kind : kind;
  deadline_ms : int option;
  trace : trace_ctx option;
}

type status =
  | Done
  | Rejected of { retry_after_ms : int }
  | Expired
  | Failed of string

type response = {
  id : int;
  status : status;
  cached : bool;
  key : string;
  result : string;
}

type control = Ping | Stats | Shutdown | Dump | Telemetry
type incoming = Req of request | Control of control

let mk_request ?deadline_ms ?(tech = "65nm") ?trace ~id kind =
  { id; tech; kind; deadline_ms; trace }

let kind_name = function Synth _ -> "synth" | Sim _ -> "sim" | Perf _ -> "perf"

let request_to_line r =
  let kind_fields =
    match r.kind with
    | Synth { cus; freq_mhz } ->
        [ ("cus", Json.Int cus); ("freq_mhz", Json.Int freq_mhz) ]
    | Sim { kernel; cus; size } | Perf { kernel; cus; size } ->
        [
          ("kernel", Json.String kernel);
          ("cus", Json.Int cus);
          ("size", Json.Int size);
        ]
  in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Int r.id); ("kind", Json.String (kind_name r.kind)) ]
       @ kind_fields
       @ [ ("tech", Json.String r.tech) ]
       @ (match r.deadline_ms with
         | Some d -> [ ("deadline_ms", Json.Int d) ]
         | None -> [])
       @
       match r.trace with
       | Some { trace_id; span_id } ->
           [
             ("trace_id", Json.String trace_id);
             ("span_id", Json.String span_id);
           ]
       | None -> []))

let control_to_line c =
  Json.to_string
    (Json.Obj
       [
         ( "control",
           Json.String
             (match c with
             | Ping -> "ping"
             | Stats -> "stats"
             | Shutdown -> "shutdown"
             | Dump -> "dump"
             | Telemetry -> "telemetry") );
       ])

exception Invalid of string

let int_field name = function
  | Some (Json.Int i) -> i
  | Some _ ->
      raise (Invalid (Printf.sprintf "field %S must be an integer" name))
  | None -> raise (Invalid (Printf.sprintf "missing field %S" name))

let string_field name = function
  | Some (Json.String s) -> s
  | Some _ -> raise (Invalid (Printf.sprintf "field %S must be a string" name))
  | None -> raise (Invalid (Printf.sprintf "missing field %S" name))

let int_member name j =
  match int_field name (Json.member name j) with
  | i -> Ok i
  | exception Invalid msg -> Error msg

let string_member name j =
  match string_field name (Json.member name j) with
  | s -> Ok s
  | exception Invalid msg -> Error msg

let ( let* ) = Result.bind

(* The members a client line may carry, each bound to its first
   occurrence (as [List.assoc_opt] would find it), filled in one pass
   over the object. *)
type fields = {
  mutable f_control : Json.t option;
  mutable f_id : Json.t option;
  mutable f_kind : Json.t option;
  mutable f_tech : Json.t option;
  mutable f_deadline_ms : Json.t option;
  mutable f_trace_id : Json.t option;
  mutable f_span_id : Json.t option;
  mutable f_kernel : Json.t option;
  mutable f_cus : Json.t option;
  mutable f_size : Json.t option;
  mutable f_freq_mhz : Json.t option;
}

let rec collect f = function
  | [] -> ()
  | (name, v) :: rest ->
      (match name with
      | "control" when Option.is_none f.f_control -> f.f_control <- Some v
      | "id" when Option.is_none f.f_id -> f.f_id <- Some v
      | "kind" when Option.is_none f.f_kind -> f.f_kind <- Some v
      | "tech" when Option.is_none f.f_tech -> f.f_tech <- Some v
      | "deadline_ms" when Option.is_none f.f_deadline_ms ->
          f.f_deadline_ms <- Some v
      | "trace_id" when Option.is_none f.f_trace_id -> f.f_trace_id <- Some v
      | "span_id" when Option.is_none f.f_span_id -> f.f_span_id <- Some v
      | "kernel" when Option.is_none f.f_kernel -> f.f_kernel <- Some v
      | "cus" when Option.is_none f.f_cus -> f.f_cus <- Some v
      | "size" when Option.is_none f.f_size -> f.f_size <- Some v
      | "freq_mhz" when Option.is_none f.f_freq_mhz -> f.f_freq_mhz <- Some v
      | _ -> ());
      collect f rest

(* Checked in this order: id, kind, tech, deadline_ms, then the kind's
   own fields.  An absent optional field takes its default; a present
   one of the wrong type is an error, as a required field's is.
   @raise Invalid on the first field that fails. *)
let request_of_fields f =
  let id = int_field "id" f.f_id in
  let kind_s = string_field "kind" f.f_kind in
  let tech =
    match f.f_tech with None -> "65nm" | v -> string_field "tech" v
  in
  let deadline_ms =
    match f.f_deadline_ms with
    | None -> None
    | v -> Some (int_field "deadline_ms" v)
  in
  let trace =
    (* both ids or neither: a lone or mistyped id is treated as absent
       rather than failing the request — trace context is advisory *)
    match (f.f_trace_id, f.f_span_id) with
    | Some (Json.String trace_id), Some (Json.String span_id) ->
        Some { trace_id; span_id }
    | _ -> None
  in
  let kind =
    match kind_s with
    | "synth" ->
        let cus = int_field "cus" f.f_cus in
        let freq_mhz = int_field "freq_mhz" f.f_freq_mhz in
        Synth { cus; freq_mhz }
    | "sim" | "perf" ->
        let kernel = string_field "kernel" f.f_kernel in
        let cus = int_field "cus" f.f_cus in
        let size = int_field "size" f.f_size in
        if kind_s = "sim" then Sim { kernel; cus; size }
        else Perf { kernel; cus; size }
    | other -> raise (Invalid (Printf.sprintf "unknown request kind %S" other))
  in
  { id; tech; kind; deadline_ms; trace }

let incoming_of_line line =
  let* j = Json.parse line in
  let f =
    {
      f_control = None;
      f_id = None;
      f_kind = None;
      f_tech = None;
      f_deadline_ms = None;
      f_trace_id = None;
      f_span_id = None;
      f_kernel = None;
      f_cus = None;
      f_size = None;
      f_freq_mhz = None;
    }
  in
  (match j with Json.Obj kvs -> collect f kvs | _ -> ());
  match f.f_control with
  | Some (Json.String "ping") -> Ok (Control Ping)
  | Some (Json.String "stats") -> Ok (Control Stats)
  | Some (Json.String "shutdown") -> Ok (Control Shutdown)
  | Some (Json.String "dump") -> Ok (Control Dump)
  | Some (Json.String "telemetry") -> Ok (Control Telemetry)
  | Some _ -> Error "unknown control message"
  | None ->
      match request_of_fields f with
      | r -> Ok (Req r)
      | exception Invalid msg -> Error msg

(* The reply line written straight into one buffer: the envelope, then
   the cached payload bytes verbatim as the last field, so a hit reaches
   the wire byte-identical to the cold computation. *)
let response_to_line r =
  let extra = match r.status with Failed msg -> String.length msg | _ -> 0 in
  let buf =
    Buffer.create (96 + String.length r.key + String.length r.result + extra)
  in
  Buffer.add_string buf "{\"id\":";
  Json.add_int buf r.id;
  (match r.status with
  | Done -> Buffer.add_string buf ",\"status\":\"ok\""
  | Rejected { retry_after_ms } ->
      Buffer.add_string buf ",\"status\":\"rejected\",\"retry_after_ms\":";
      Json.add_int buf retry_after_ms
  | Expired -> Buffer.add_string buf ",\"status\":\"expired\""
  | Failed msg ->
      Buffer.add_string buf ",\"status\":\"failed\",\"error\":\"";
      Json.escape buf msg;
      Buffer.add_char buf '"');
  Buffer.add_string buf
    (if r.cached then ",\"cached\":true" else ",\"cached\":false");
  if r.key <> "" then begin
    Buffer.add_string buf ",\"key\":\"";
    Json.escape buf r.key;
    Buffer.add_char buf '"'
  end;
  if r.result <> "" then begin
    Buffer.add_string buf ",\"result\":";
    Buffer.add_string buf r.result
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let response_of_line line =
  let* j = Json.parse line in
  let* id = int_member "id" j in
  let* status_s = string_member "status" j in
  let* status =
    match status_s with
    | "ok" -> Ok Done
    | "rejected" ->
        let retry =
          match Json.member "retry_after_ms" j with
          | Some (Json.Int d) -> d
          | _ -> 0
        in
        Ok (Rejected { retry_after_ms = retry })
    | "expired" -> Ok Expired
    | "failed" ->
        let msg =
          match Json.member "error" j with Some (Json.String m) -> m | _ -> ""
        in
        Ok (Failed msg)
    | other -> Error (Printf.sprintf "unknown status %S" other)
  in
  let cached =
    match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false
  in
  let key =
    match Json.member "key" j with Some (Json.String k) -> k | _ -> ""
  in
  let result =
    match Json.member "result" j with
    | Some (Json.Null) | None -> ""
    | Some payload -> Json.to_string payload
  in
  Ok { id; status; cached; key; result }

let result_json r =
  if r.status <> Done || r.result = "" then None
  else match Json.parse r.result with Ok j -> Some j | Error _ -> None
