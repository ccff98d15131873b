(* The wire codec as first written: the specification the production
   codec ({!Ggpu_obs.Json.parse}, {!Ggpu_serve.Proto}) is tested
   against.

   [parse] is a closure-per-call recursive descent that allocates an
   option per peek and a buffer per string, and checks number tokens
   and \u escapes against [Str] regexps rather than the production
   codec's hand-written scans; [incoming_of_line] looks
   every field up with [List.assoc_opt], so the first occurrence of a
   duplicated name wins; [response_to_line] renders the envelope as a
   {!Ggpu_obs.Json.t} object and splices the cached payload in as the
   last field.  Only the optional fields differ on purpose: here a
   [tech] that is not a string reads as ["65nm"] and a [deadline_ms]
   that is not an integer as no deadline, where the production codec
   rejects both. *)

module Json = Ggpu_obs.Json
module P = Ggpu_serve.Proto

exception Parse_error of string * int

(* JSON's number grammar (RFC 8259), and the four hex digits of a \u
   escape. *)
let number_re =
  Str.regexp "-?\\(0\\|[1-9][0-9]*\\)\\(\\.[0-9]+\\)?\\([eE][-+]?[0-9]+\\)?$"

let hex_re = Str.regexp "[0-9a-fA-F][0-9a-fA-F][0-9a-fA-F][0-9a-fA-F]$"

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else error (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else error "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents buf
      | '\\' ->
          incr pos;
          if !pos >= n then error "truncated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then error "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              if not (Str.string_match hex_re hex 0) then
                error "bad \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
              pos := !pos + 4
          | _ -> error "unknown escape");
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    let bad () = error (Printf.sprintf "bad number %S" tok) in
    if not (Str.string_match number_re tok 0) then bad ();
    match int_of_string_opt tok with
    | Some i -> Json.Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f when Float.is_finite f -> Json.Float f
        | Some _ | None -> bad ())
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Json.Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((key, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((key, v) :: acc)
            | _ -> error "expected ',' or '}'"
          in
          Json.Obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Json.List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> error "expected ',' or ']'"
          in
          Json.List (elems [])
        end
    | Some '"' -> Json.String (parse_string ())
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Parse_error (msg, p) ->
      Error (Printf.sprintf "%s at offset %d" msg p)

let member key = function Json.Obj kvs -> List.assoc_opt key kvs | _ -> None

let int_member name j =
  match member name j with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let string_member name j =
  match member name j with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let ( let* ) = Result.bind

let request_of_json j =
  let* id = int_member "id" j in
  let* kind_s = string_member "kind" j in
  let tech =
    match member "tech" j with Some (Json.String s) -> s | _ -> "65nm"
  in
  let deadline_ms =
    match member "deadline_ms" j with Some (Json.Int d) -> Some d | _ -> None
  in
  let trace =
    match (member "trace_id" j, member "span_id" j) with
    | Some (Json.String trace_id), Some (Json.String span_id) ->
        Some { P.trace_id; span_id }
    | _ -> None
  in
  let* kind =
    match kind_s with
    | "synth" ->
        let* cus = int_member "cus" j in
        let* freq_mhz = int_member "freq_mhz" j in
        Ok (P.Synth { cus; freq_mhz })
    | "sim" | "perf" ->
        let* kernel = string_member "kernel" j in
        let* cus = int_member "cus" j in
        let* size = int_member "size" j in
        Ok
          (if kind_s = "sim" then P.Sim { kernel; cus; size }
           else P.Perf { kernel; cus; size })
    | other -> Error (Printf.sprintf "unknown request kind %S" other)
  in
  Ok { P.id; tech; kind; deadline_ms; trace }

let incoming_of_line line =
  let* j = parse line in
  match member "control" j with
  | Some (Json.String "ping") -> Ok (P.Control P.Ping)
  | Some (Json.String "stats") -> Ok (P.Control P.Stats)
  | Some (Json.String "shutdown") -> Ok (P.Control P.Shutdown)
  | Some (Json.String "dump") -> Ok (P.Control P.Dump)
  | Some (Json.String "telemetry") -> Ok (P.Control P.Telemetry)
  | Some _ -> Error "unknown control message"
  | None ->
      let* r = request_of_json j in
      Ok (P.Req r)

let status_fields = function
  | P.Done -> [ ("status", Json.String "ok") ]
  | P.Rejected { retry_after_ms } ->
      [
        ("status", Json.String "rejected");
        ("retry_after_ms", Json.Int retry_after_ms);
      ]
  | P.Expired -> [ ("status", Json.String "expired") ]
  | P.Failed msg ->
      [ ("status", Json.String "failed"); ("error", Json.String msg) ]

let response_to_line (r : P.response) =
  let envelope =
    Json.Obj
      ([ ("id", Json.Int r.P.id) ]
      @ status_fields r.P.status
      @ [ ("cached", Json.Bool r.P.cached) ]
      @ if r.P.key = "" then [] else [ ("key", Json.String r.P.key) ])
  in
  let s = Json.to_string envelope in
  if r.P.result = "" then s
  else
    String.sub s 0 (String.length s - 1)
    ^ ",\"result\":" ^ r.P.result ^ "}"
