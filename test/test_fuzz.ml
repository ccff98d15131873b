(* The wire codec under fuzzing: on any line up to the daemon's cap,
   {!Ggpu_obs.Json.parse}, {!Ggpu_serve.Proto.incoming_of_line} and
   {!Ggpu_serve.Proto.response_of_line} return [Ok] or [Error] and never
   raise, and the production codec answers exactly as {!Proto_oracle},
   the codec as first written, does.

   Two input families.  Wire lines: every request of a 2,000-request
   mix, the five controls, a traced request and the four reply kinds,
   each given byte edits, a truncation, a spliced duplicate member or a
   run of filler up to the cap.  Generated documents: nested lists and
   objects with duplicate keys, string escapes including [\u], integers
   at the edges of the 63-bit range and of the parser's 18-digit fast
   path, finite floats in several spellings, and number spellings JSON
   rejects.

   And the kernel DSL front end: 1-4 byte edits of the suite's kernel
   sources, each of which {!Ggpu_kernels.Parse.parse} parses or rejects
   with [Parse_error] or [Check.Error], and each kernel that parses
   compiles on both targets or raises what the compilers document.

   Counts are sized for a few seconds under [dune runtest].  Under
   QCHECK_LONG=1 each property runs its long factor times over, so each
   parser sees at least 100,000 inputs; QCHECK_SEED replays a run. *)

module Json = Ggpu_obs.Json
module P = Ggpu_serve.Proto
module O = Proto_oracle
module G = QCheck.Gen

let cap = Ggpu_serve.Daemon.max_line_bytes

(* --- first family: wire lines, edited ------------------------------------ *)

let mix_lines =
  Array.of_list
    (List.map P.request_to_line (Ggpu_serve.Workload.mix ~seed:7 ~n:2000 ()))

let other_lines =
  Array.of_list
    (P.request_to_line
       (P.mk_request
          ~trace:{ P.trace_id = "t0001.00002a"; span_id = "s00002a" }
          ~deadline_ms:250 ~id:11
          (P.Sim { kernel = "copy"; cus = 2; size = 256 }))
    :: List.map P.control_to_line
         [ P.Ping; P.Stats; P.Shutdown; P.Dump; P.Telemetry ]
    @ List.map
        (fun (status, key, result) ->
          P.response_to_line { P.id = 3; status; cached = true; key; result })
        [
          ( P.Done,
            "00ff00ff00ff00ff",
            {|{"kind":"sim","cycles":12,"ok":[1,2.5]}|} );
          (P.Rejected { retry_after_ms = 50 }, "", "");
          (P.Expired, "", "");
          (P.Failed "unknown kernel \"nope\"", "", "");
        ])

let seed_line =
  G.frequency
    [ (3, G.oneofa mix_lines); (2, G.oneofa other_lines) ]

(* An edit writes any byte, or one of the bytes a grammar turns on:
   JSON's here, the kernel DSL's below. *)
let json_bytes = "{}[]\",:\\ -+.eE0123456789tfnu"

let edit_byte grammar =
  G.frequency
    [
      (1, G.map Char.chr (G.int_bound 255));
      ( 3,
        G.map (String.get grammar) (G.int_bound (String.length grammar - 1)) );
    ]

(* Replace, insert or delete one byte. *)
let edit grammar s =
  G.(
    triple (int_bound 2) (int_bound (String.length s)) (edit_byte grammar)
    >|= fun (op, i, c) ->
    let n = String.length s in
    match op with
    | 0 when i < n -> String.mapi (fun j d -> if j = i then c else d) s
    | 2 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))

let rec edits grammar k s =
  if k = 0 then G.return s else G.(edit grammar s >>= edits grammar (k - 1))

let truncate s = G.(int_bound (String.length s) >|= fun i -> String.sub s 0 i)

let member_names =
  [|
    "id"; "kind"; "tech"; "deadline_ms"; "trace_id"; "span_id"; "kernel";
    "cus"; "size"; "freq_mhz"; "control"; "status"; "cached"; "key";
    "result"; "error"; "retry_after_ms";
  |]

let member_values =
  [|
    "1"; "-7"; "0"; "4611686018427387903"; "1.5"; "2e3"; {|"sim"|};
    {|"perf"|}; {|"synth"|}; {|"copy"|}; {|"28nm"|}; {|"65nm"|}; {|"ping"|};
    {|"ok"|}; "null"; "true"; "[]"; "{}"; {|{"a":[1]}|}; {|""|}; "28";
  |]

(* A member spliced in after the first [{] (so it is the first
   occurrence of its name) or before the last [}] (the last one). *)
let splice s =
  G.(
    triple bool (oneofa member_names) (oneofa member_values)
    >|= fun (front, name, value) ->
    let m = Printf.sprintf "\"%s\":%s" name value in
    match
      if front then String.index_opt s '{' else String.rindex_opt s '}'
    with
    | Some i when front ->
        String.sub s 0 (i + 1) ^ m ^ ","
        ^ String.sub s (i + 1) (String.length s - i - 1)
    | Some i ->
        String.sub s 0 i ^ "," ^ m ^ String.sub s i (String.length s - i)
    | None -> s ^ m)

(* A run of one fragment inserted at a random place, taking the line to
   at most [cap - 1] bytes, so the one edit that follows keeps it within
   the cap: deep nesting, a long number, a long string, long
   whitespace. *)
let fillers =
  [| " "; "["; {|{"a":|}; "9"; "a"; {|\n|}; "[1,"; {|"x":1,|}; "\t\r\n" |]

let grow s =
  G.(
    triple (oneofa fillers)
      (int_range 1 (max 1 (cap - 1 - String.length s)))
      (int_bound (String.length s))
    >|= fun (frag, len, at) ->
    let b = Buffer.create cap in
    Buffer.add_string b (String.sub s 0 at);
    while Buffer.length b < at + len do
      Buffer.add_string b frag
    done;
    Buffer.truncate b (at + len);
    Buffer.add_string b (String.sub s at (String.length s - at));
    Buffer.sub b 0 (min (cap - 1) (Buffer.length b)))

let mutate s =
  G.(
    frequency
      [
        (4, int_range 1 3 >>= fun k -> edits json_bytes k s);
        (1, truncate s);
        (2, splice s);
        (2, splice s >>= splice >>= edits json_bytes 1);
        (1, grow s >>= edits json_bytes 1);
      ])

let wire_line = G.(seed_line >>= mutate)

(* --- second family: generated documents ---------------------------------- *)

let ws = G.oneofl [ ""; ""; ""; " "; "\n"; " \t"; "\r\n " ]

let digits k =
  G.(
    map2
      (fun d ds -> String.make 1 d ^ String.concat "" ds)
      (char_range '1' '9')
      (list_repeat (k - 1) (map (String.make 1) (char_range '0' '9'))))

let int_token =
  G.(
    frequency
      [
        (2, map string_of_int int);
        (2, map string_of_int small_signed_int);
        ( 2,
          oneofl
            [
              "4611686018427387903"; "4611686018427387904";
              "-4611686018427387904"; "-4611686018427387905";
              "999999999999999999"; "-999999999999999999";
              "1000000000000000000"; "-1000000000000000000"; "0"; "-0";
              "007"; "-007"; "+1"; "-";
            ] );
        (* around the fast path's 18-digit bound *)
        ( 2,
          map2 (fun neg d -> if neg then "-" ^ d else d) bool
            (int_range 16 20 >>= digits) );
      ])

let finite_float =
  G.(
    frequency
      [
        (2, map Int64.float_of_bits ui64);
        (2, float_range (-1e6) 1e6);
        ( 1,
          map2
            (fun neg e ->
              let f = 10. ** float_of_int e in
              if neg then -.f else f)
            bool (int_range 13 18) );
        (1, map Float.of_int int);
        (1, oneofl [ 0.0; -0.0; 1e-300; 5e-324; max_float; -.max_float ]);
      ]
    >|= fun f -> if Float.is_finite f then f else 0.5)

let float_token =
  G.(
    frequency
      [
        (2, map (Printf.sprintf "%.17g") finite_float);
        (1, map (Printf.sprintf "%g") finite_float);
        (1, map (Printf.sprintf "%E") finite_float);
        (1, map (Printf.sprintf "%.1f") (float_range (-1e9) 1e9));
        ( 1,
          oneofl
            [ "1e5"; "1E+5"; "-2.5e-3"; "0.0"; "-0.0"; "1e400"; "2.5E-07" ] );
        (* spellings JSON's grammar rejects *)
        (1, oneofl [ ".5"; "5."; "1.e5"; "+1.5"; "1e"; "01.5" ]);
      ])

let string_piece =
  G.(
    frequency
      [
        (6, map (String.make 1) (char_range ' ' '~') >|= fun c ->
           if c = "\"" || c = "\\" then "." else c);
        ( 2,
          oneofl
            [
              {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|};
              {|\t|};
            ] );
        (1, map (Printf.sprintf "\\u%04x") (int_bound 0xffff));
        (1, map (Printf.sprintf "\\u%04X") (int_bound 0xff));
        ( 1,
          map
            (fun c -> if c = '"' || c = '\\' then "\001" else String.make 1 c)
            (map Char.chr (int_bound 255)) );
      ])

let string_token =
  G.(
    list_size (int_bound 12) string_piece >|= fun ps ->
    "\"" ^ String.concat "" ps ^ "\"")

let key_token =
  G.(
    frequency
      [
        (3, oneofa member_names >|= Printf.sprintf "\"%s\"");
        (1, string_token);
      ])

let rec document depth =
  let scalar =
    [
      (1, G.return "null");
      (1, G.oneofl [ "true"; "false" ]);
      (3, int_token);
      (2, float_token);
      (3, string_token);
    ]
  in
  let padded v = G.(map3 (fun a v b -> a ^ v ^ b) ws v ws) in
  if depth = 0 then G.frequency scalar
  else
    G.frequency
      (scalar
      @ [
          ( 2,
            G.(
              list_size (int_bound 5) (padded (document (depth - 1)))
              >|= fun xs -> "[" ^ String.concat "," xs ^ "]") );
          ( 3,
            G.(
              list_size (int_bound 6)
                (map2
                   (fun k v -> k ^ ":" ^ v)
                   (padded key_token)
                   (padded (document (depth - 1))))
              >|= fun kvs -> "{" ^ String.concat "," kvs ^ "}") );
        ])

(* An object of request members, each value of its field's type or a
   stray one, in any order and with repeats: the shapes on which first
   occurrence and the optional fields' types decide the answer. *)
let request_like =
  let typed = function
    | "id" | "cus" | "size" | "freq_mhz" | "deadline_ms" -> int_token
    | "kind" -> G.oneofl [ {|"sim"|}; {|"perf"|}; {|"synth"|}; {|"bogus"|} ]
    | "tech" -> G.oneofl [ {|"65nm"|}; {|"28nm"|}; {|"7nm"|} ]
    | "kernel" -> G.oneofl [ {|"copy"|}; {|"fir"|}; {|"nope"|} ]
    | "control" -> G.oneofl [ {|"ping"|}; {|"dump"|}; {|"nap"|} ]
    | _ -> string_token
  in
  let field =
    G.(
      oneofa member_names >>= fun name ->
      frequency [ (4, typed name); (1, document 1) ] >|= fun v ->
      Printf.sprintf "\"%s\":%s" name v)
  in
  G.(
    list_size (int_range 1 12) field >|= fun fs ->
    "{" ^ String.concat "," fs ^ "}")

let generated =
  G.(
    frequency
      [
        (3, document 4);
        (3, request_like);
        (1, document 3 >>= mutate);
        (1, request_like >>= mutate);
      ])

let input = G.frequency [ (1, wire_line); (1, generated) ]

let show s =
  if String.length s <= 2048 then Printf.sprintf "%S" s
  else
    Printf.sprintf "%S... (%d bytes)" (String.sub s 0 2048) (String.length s)

let arb = QCheck.make ~print:show input

(* --- properties ---------------------------------------------------------- *)

let no_raise what f x =
  match f x with
  | r -> r
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let rec repr = function
  | Json.Null -> "Null"
  | Json.Bool b -> Printf.sprintf "Bool %b" b
  | Json.Int i -> Printf.sprintf "Int %d" i
  | Json.Float f -> Printf.sprintf "Float %h" f
  | Json.String s -> Printf.sprintf "String %S" s
  | Json.List xs -> "List [" ^ String.concat "; " (List.map repr xs) ^ "]"
  | Json.Obj kvs ->
      "Obj ["
      ^ String.concat "; "
          (List.map (fun (k, v) -> Printf.sprintf "(%S, %s)" k (repr v)) kvs)
      ^ "]"

let show_result show_ok = function
  | Ok v -> "Ok " ^ show_ok v
  | Error e -> "Error " ^ e

let same show_ok what expected got =
  expected = got
  || QCheck.Test.fail_reportf "%s:@ expected %s@ got %s" what
       (show_result show_ok expected) (show_result show_ok got)

let json_parse =
  QCheck.Test.make ~count:2000 ~long_factor:50
    ~name:"Json.parse never raises and matches the oracle" arb (fun s ->
      let got = no_raise "Json.parse" Json.parse s in
      same repr "Json.parse" (no_raise "oracle parse" O.parse s) got)

let show_incoming = function
  | P.Control c -> P.control_to_line c
  | P.Req r -> P.request_to_line r

(* The oracle's answer, but for the one intended change: once [id] and
   [kind] check out, a first [tech] that is not a string or a first
   [deadline_ms] that is not an integer rejects the request, where the
   oracle read them as absent. *)
let expected_incoming line =
  let oracle = O.incoming_of_line line in
  match O.parse line with
  | Error _ -> oracle
  | Ok j -> (
      let mistyped name typed =
        match O.member name j with Some v -> not (typed v) | None -> false
      in
      let tech = mistyped "tech" (function Json.String _ -> true | _ -> false)
      and deadline =
        mistyped "deadline_ms" (function Json.Int _ -> true | _ -> false)
      in
      if O.member "control" j <> None || not (tech || deadline) then oracle
      else
        match (O.int_member "id" j, O.string_member "kind" j) with
        | Error e, _ | _, Error e -> Error e
        | Ok _, Ok _ ->
            Error
              (if tech then {|field "tech" must be a string|}
               else {|field "deadline_ms" must be an integer|}))

let incoming =
  QCheck.Test.make ~count:2000 ~long_factor:50
    ~name:"incoming_of_line never raises and matches the oracle" arb
    (fun s ->
      let got = no_raise "incoming_of_line" P.incoming_of_line s in
      same show_incoming "incoming_of_line"
        (no_raise "oracle incoming_of_line" expected_incoming s)
        got)

let response_of_line =
  QCheck.Test.make ~count:2000 ~long_factor:50
    ~name:"response_of_line never raises" arb (fun s ->
      ignore (no_raise "response_of_line" P.response_of_line s);
      true)

(* --- Json round trip ----------------------------------------------------- *)

let rec value depth =
  let scalar =
    [
      (1, G.return Json.Null);
      (1, G.map (fun b -> Json.Bool b) G.bool);
      ( 3,
        G.map
          (fun i -> Json.Int i)
          G.(
            oneof
              [ int; small_signed_int; oneofl [ max_int; min_int; 0; -1 ] ]) );
      (2, G.map (fun f -> Json.Float f) finite_float);
      (3, G.map (fun s -> Json.String s) G.(string_size (int_bound 16)));
    ]
  in
  if depth = 0 then G.frequency scalar
  else
    G.frequency
      (scalar
      @ [
          ( 1,
            G.map (fun xs -> Json.List xs)
              (G.list_size (G.int_bound 5) (value (depth - 1))) );
          ( 2,
            G.map (fun kvs -> Json.Obj kvs)
              (G.list_size (G.int_bound 5)
                 (G.pair
                    G.(
                      frequency
                        [
                          (2, oneofa member_names);
                          (1, string_size (int_bound 8));
                        ])
                    (value (depth - 1)))) );
        ])

let round_trip =
  QCheck.Test.make ~count:1000 ~long_factor:100
    ~name:"Json.parse (Json.to_string v) = Ok v"
    (QCheck.make ~print:repr (value 4))
    (fun v ->
      let s = Json.to_string v in
      same repr s (Ok v) (no_raise "Json.parse" Json.parse s))

(* --- replies ------------------------------------------------------------- *)

let text =
  G.(
    string_size
      ~gen:(frequency [ (3, printable); (1, oneofl [ '"'; '\\' ]); (1, char) ])
      (int_bound 24))

let response =
  G.(
    map3
      (fun (id, cached) status (key, result) ->
        { P.id; status; cached; key; result })
      (pair (oneof [ small_signed_int; int ]) bool)
      (frequency
         [
           (2, return P.Done);
           ( 1,
             map
               (fun ms -> P.Rejected { retry_after_ms = ms })
               small_signed_int );
           (1, return P.Expired);
           (2, map (fun m -> P.Failed m) text);
         ])
      (pair
         (frequency
            [
              (1, return "");
              ( 2,
                string_size
                  ~gen:(oneof [ char_range '0' '9'; char_range 'a' 'f' ])
                  (return 16) );
              (1, text);
            ])
         (frequency [ (1, return ""); (2, document 3) ])))

let show_response (r : P.response) =
  Printf.sprintf "id=%d cached=%b key=%S result=%S status=%s" r.P.id r.P.cached
    r.P.key r.P.result
    (match r.P.status with
    | P.Done -> "ok"
    | P.Rejected { retry_after_ms } ->
        Printf.sprintf "rejected %d" retry_after_ms
    | P.Expired -> "expired"
    | P.Failed m -> Printf.sprintf "failed %S" m)

let response_bytes =
  QCheck.Test.make ~count:2000 ~long_factor:50
    ~name:"response_to_line bytes match the oracle"
    (QCheck.make ~print:show_response response)
    (fun r ->
      let expected = O.response_to_line r and got = P.response_to_line r in
      expected = got
      || QCheck.Test.fail_reportf "expected %S@ got %S" expected got)

(* --- the kernel DSL front end -------------------------------------------- *)

module K = Ggpu_kernels

(* Every Table III kernel reaches the code generators through
   {!K.Parse}: each suite source, and all seven in one text. *)
let dsl_sources =
  let sources = List.map (fun (w : K.Suite.t) -> w.source) K.Suite.all in
  Array.of_list (String.concat "\n" sources :: sources)

(* The bytes the DSL's punctuation and keywords are made of. *)
let dsl_bytes = "(){}[];,=<>!+-*/%&|^ \n0123456789_abcdefgiklnorstwz"

let dsl_input =
  G.(
    oneofa dsl_sources >>= fun s ->
    int_range 1 4 >>= fun k -> edits dsl_bytes k s)

(* A kernel that parses compiles on a target, or raises what its
   compiler documents: too many live values or too many parameters. *)
let compiles what compile (k : K.Ast.kernel) =
  match compile k with
  | () -> true
  | exception
      ( K.Regalloc.Register_pressure _ | K.Codegen_fgpu.Too_many_params _
      | K.Codegen_rv32.Too_many_params _ ) ->
      true
  | exception e ->
      QCheck.Test.fail_reportf "%s of %s raised %s" what k.name
        (Printexc.to_string e)

let dsl_front_end =
  QCheck.Test.make ~count:2000 ~long_factor:50
    ~name:"kernel DSL: parse and both compilers raise only documented errors"
    (QCheck.make ~print:show dsl_input)
    (fun src ->
      match K.Parse.parse src with
      | exception (K.Parse.Parse_error _ | K.Check.Error _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "Parse.parse raised %s"
            (Printexc.to_string e)
      | kernels ->
          List.for_all
            (fun k ->
              compiles "Codegen_fgpu.compile"
                (fun k -> ignore (K.Codegen_fgpu.compile k))
                k
              && compiles "Codegen_rv32.compile"
                   (fun k -> ignore (K.Codegen_rv32.compile k))
                   k)
            kernels)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "fuzz",
      [
        qcheck json_parse;
        qcheck incoming;
        qcheck response_of_line;
        qcheck round_trip;
        qcheck response_bytes;
        qcheck dsl_front_end;
      ] );
  ]
