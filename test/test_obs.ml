(* Observability library: metrics determinism, trace well-formedness,
   JSON round-trips and the self-time profiler.  The merge tests are
   the load-bearing ones - the whole point of integer-valued metrics is
   that per-domain snapshots fold to a bit-identical result no matter
   how the Parallel pool partitioned the work. *)

module M = Ggpu_obs.Metrics
module T = Ggpu_obs.Trace
module J = Ggpu_obs.Json
module P = Ggpu_obs.Profile

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- counters ----------------------------------------------------------- *)

let test_counter_basics () =
  let r = M.create () in
  let c = M.counter r "calls" in
  M.add c 3;
  M.incr c;
  check "accumulates" 4 (M.counter_value c);
  (* find-or-create returns the same counter *)
  M.add (M.counter r "calls") 1;
  check "find-or-create" 5 (M.counter_value c)

let test_counter_monotone () =
  let r = M.create () in
  let c = M.counter r "calls" in
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add: negative increment") (fun () ->
      M.add c (-1));
  check "value untouched" 0 (M.counter_value c)

let test_kind_clash () =
  let r = M.create () in
  ignore (M.counter r "x");
  check_bool "kind clash rejected" true
    (match M.gauge r "x" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- gauges -------------------------------------------------------------- *)

let test_gauge_max () =
  let r = M.create () in
  let g = M.gauge r "depth" in
  Alcotest.(check (option int)) "unset" None (M.gauge_value g);
  M.gauge_max g 3;
  M.gauge_max g 7;
  M.gauge_max g 5;
  Alcotest.(check (option int)) "keeps max" (Some 7) (M.gauge_value g)

(* --- clock --------------------------------------------------------------- *)

(* Every use of [now_ns] is a duration, so it must never step back, and
   a sleep must read at least its length, through [time_counter] too. *)
let test_now_ns_monotonic () =
  let prev = ref (M.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = M.now_ns () in
    if t < !prev then Alcotest.failf "now_ns stepped back: %d after %d" t !prev;
    prev := t
  done;
  let t0 = M.now_ns () in
  Unix.sleepf 0.02;
  let slept = M.now_ns () - t0 in
  if slept < 20_000_000 then
    Alcotest.failf "a 20 ms sleep read as %d ns" slept;
  let c = M.counter (M.create ()) "sleep_ns" in
  M.time_counter c (fun () -> Unix.sleepf 0.01);
  if M.counter_value c < 10_000_000 then
    Alcotest.failf "time_counter read a 10 ms sleep as %d ns"
      (M.counter_value c)

(* --- histograms ---------------------------------------------------------- *)

let test_histogram_invariants () =
  let r = M.create () in
  let h = M.histogram ~buckets:[ 1; 4; 16 ] r "sizes" in
  List.iter (M.observe h) [ 0; 1; 2; 5; 100 ];
  let s = M.snapshot r in
  let hs = Option.get (M.find_histogram s "sizes") in
  check "count" 5 (M.hist_total hs);
  check "sum" 108 hs.M.sum;
  check "min" 0 hs.M.min_v;
  check "max" 100 hs.M.max_v;
  Alcotest.(check (list int)) "cells: <=1, <=4, <=16, overflow"
    [ 2; 1; 1; 1 ] hs.M.counts;
  check "one overflow cell beyond bounds" (List.length hs.M.bounds + 1)
    (List.length hs.M.counts)

let test_histogram_bad_buckets () =
  let r = M.create () in
  check_bool "non-ascending rejected" true
    (match M.histogram ~buckets:[ 4; 2 ] r "h" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- merging ------------------------------------------------------------- *)

(* A snapshot generator: a registry built from small random op lists,
   so qcheck explores merges of genuinely different shapes. *)
let name_of i = [| "a"; "b"; "c" |].(abs i mod 3)

let snapshot_of_ops (counts, gauges, observes) =
  let r = M.create () in
  List.iter (fun (i, v) -> M.add (M.counter r (name_of i)) (abs v mod 1000)) counts;
  List.iter
    (fun (i, v) -> M.gauge_max (M.gauge r ("g" ^ name_of i)) (abs v mod 1000))
    gauges;
  List.iter
    (fun (i, v) -> M.observe (M.histogram r ("h" ^ name_of i)) (abs v mod 1000))
    observes;
  M.snapshot r

let ops_gen =
  QCheck.(
    triple
      (small_list (pair small_int small_int))
      (small_list (pair small_int small_int))
      (small_list (pair small_int small_int)))

let merge_commutative =
  QCheck.Test.make ~count:200 ~name:"merge commutative"
    QCheck.(pair ops_gen ops_gen)
    (fun (a, b) ->
      let sa = snapshot_of_ops a and sb = snapshot_of_ops b in
      M.equal_snapshot (M.merge sa sb) (M.merge sb sa))

let merge_associative =
  QCheck.Test.make ~count:200 ~name:"merge associative"
    QCheck.(triple ops_gen ops_gen ops_gen)
    (fun (a, b, c) ->
      let sa = snapshot_of_ops a
      and sb = snapshot_of_ops b
      and sc = snapshot_of_ops c in
      M.equal_snapshot
        (M.merge sa (M.merge sb sc))
        (M.merge (M.merge sa sb) sc))

let merge_identity =
  QCheck.Test.make ~count:200 ~name:"empty_snapshot is identity" ops_gen
    (fun a ->
      let s = snapshot_of_ops a in
      M.equal_snapshot (M.merge s M.empty_snapshot) s
      && M.equal_snapshot (M.merge M.empty_snapshot s) s)

let test_merge_values () =
  let mk c g =
    let r = M.create () in
    M.add (M.counter r "n") c;
    M.gauge_max (M.gauge r "g") g;
    M.snapshot r
  in
  let m = M.merge (mk 3 10) (mk 4 7) in
  Alcotest.(check (option int)) "counters add" (Some 7) (M.find_counter m "n");
  Alcotest.(check (option int)) "gauges max" (Some 10) (M.find_gauge m "g")

(* --- parallel collection ------------------------------------------------- *)

let work reg i =
  M.add (M.counter reg "items") 1;
  M.add (M.counter reg "total") i;
  M.observe (M.histogram ~buckets:[ 4; 16; 64 ] reg "value") i;
  M.gauge_max (M.gauge reg "max_item") i;
  i * i

let test_map_collect_deterministic () =
  let items = List.init 37 Fun.id in
  let serial_vs, serial_snap =
    Ggpu_par.Parallel.map_collect ~domains:1 work items
  in
  let par_vs, par_snap = Ggpu_par.Parallel.map_collect ~domains:4 work items in
  Alcotest.(check (list int)) "values identical" serial_vs par_vs;
  check_bool "snapshots bit-identical across domain counts" true
    (M.equal_snapshot serial_snap par_snap);
  Alcotest.(check (option int)) "item count" (Some 37)
    (M.find_counter par_snap "items")

let test_ambient_deterministic () =
  let run domains =
    M.set_ambient_enabled true;
    M.ambient_reset ();
    ignore
      (Ggpu_par.Parallel.map ~domains
         (fun i ->
           M.count "x" 1;
           M.observe_named ~buckets:[ 8; 32 ] "v" i;
           i)
         (List.init 16 Fun.id));
    let s = M.ambient_snapshot () in
    M.set_ambient_enabled false;
    M.ambient_reset ();
    s
  in
  let s1 = run 1 and s4 = run 4 in
  Alcotest.(check (option int)) "all recorded" (Some 16)
    (M.find_counter s1 "x");
  check_bool "ambient snapshot independent of domains" true
    (M.equal_snapshot s1 s4)

let test_ambient_disabled_noop () =
  M.set_ambient_enabled false;
  M.ambient_reset ();
  M.count "x" 5;
  Alcotest.(check (option int)) "disabled count is a no-op" None
    (M.find_counter (M.ambient_snapshot ()) "x")

(* --- tracing ------------------------------------------------------------- *)

let with_tracing f =
  T.reset ();
  T.enable ();
  Fun.protect f ~finally:(fun () ->
      T.disable ();
      T.reset ())

let test_span_nesting () =
  with_tracing @@ fun () ->
  T.with_span "outer" (fun () ->
      T.with_span "inner" (fun () -> ());
      T.instant "tick");
  let evs = T.events () in
  Alcotest.(check (list string)) "record order"
    [ "outer:B"; "inner:B"; "inner:E"; "tick:I"; "outer:E" ]
    (List.map
       (fun (e : T.event) ->
         e.T.name ^ ":"
         ^
         match e.T.ph with
         | T.Begin -> "B"
         | T.End -> "E"
         | T.Instant -> "I"
         | T.Counter -> "C"
         | T.Complete -> "X")
       evs);
  match T.validate_json (T.to_json ()) with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      check "spans" 2 s.T.span_count;
      check "depth" 2 s.T.max_depth;
      check "events" 5 s.T.event_count

let test_span_exception_safe () =
  with_tracing @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  let evs = T.events () in
  check "begin and end recorded" 2 (List.length evs);
  check_bool "trace still validates" true
    (Result.is_ok (T.validate_json (T.to_json ())))

let test_export_roundtrip () =
  let path = Filename.temp_file "ggpu_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (with_tracing @@ fun () ->
   T.with_span "a" ~args:[ ("k", "v \"quoted\"") ] (fun () ->
       T.with_span "b" (fun () -> ()));
   T.export ~path);
  match T.validate_file path with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      check "two spans survive the file round-trip" 2 s.T.span_count;
      check "one thread" 1 s.T.thread_count

let test_disabled_records_nothing () =
  T.reset ();
  T.disable ();
  T.with_span "ghost" (fun () -> ());
  check "no events when disabled" 0 (List.length (T.events ()))

let test_counter_and_complete_events () =
  with_tracing @@ fun () ->
  T.counter ~ts_ns:1000 ~tid:100 "cu0.occupancy"
    [ ("resident", 8); ("active", 3) ];
  T.complete ~ts_ns:2000 ~dur_ns:500 ~tid:100 "wg0.wf1";
  let evs = T.events () in
  check "both recorded" 2 (List.length evs);
  let c = List.find (fun (e : T.event) -> e.T.ph = T.Counter) evs in
  Alcotest.(check (list (pair string int)))
    "counter keeps its series"
    [ ("resident", 8); ("active", 3) ]
    c.T.values;
  check "explicit tid honoured" 100 c.T.tid;
  let x = List.find (fun (e : T.event) -> e.T.ph = T.Complete) evs in
  check "duration kept" 500 x.T.dur_ns;
  match T.validate_json (T.to_json ()) with
  | Error msg -> Alcotest.fail msg
  | Ok s -> check "validator counts both" 2 s.T.event_count

let test_reset_drops_stale_events () =
  T.reset ();
  T.enable ();
  T.with_span "first-run" (fun () -> ());
  check "first run recorded" 2 (List.length (T.events ()));
  T.reset ();
  check "reset empties buffers" 0 (List.length (T.events ()));
  (* the same domain keeps recording after a reset: its buffer must
     re-register, and only the new run's events may appear *)
  T.with_span "second-run" (fun () -> ());
  let names =
    List.sort_uniq String.compare
      (List.map (fun (e : T.event) -> e.T.name) (T.events ()))
  in
  T.disable ();
  T.reset ();
  Alcotest.(check (list string)) "no stale events" [ "second-run" ] names

let event ?(ts = 0) ?(tid = 1) ph name =
  J.Obj
    [
      ("name", J.String name);
      ("ph", J.String ph);
      ("ts", J.Int ts);
      ("pid", J.Int 1);
      ("tid", J.Int tid);
    ]

let test_validator_rejects_unbalanced () =
  let doc events = J.Obj [ ("traceEvents", J.List events) ] in
  check_bool "stray end rejected" true
    (Result.is_error (T.validate_json (doc [ event "E" "a" ])));
  check_bool "unclosed begin rejected" true
    (Result.is_error (T.validate_json (doc [ event "B" "a" ])));
  check_bool "name mismatch rejected" true
    (Result.is_error
       (T.validate_json (doc [ event "B" "a"; event ~ts:1 "E" "b" ])));
  check_bool "balanced accepted" true
    (Result.is_ok
       (T.validate_json (doc [ event "B" "a"; event ~ts:1 "E" "a" ])))

let test_validator_complete_dur () =
  let doc events = J.Obj [ ("traceEvents", J.List events) ] in
  let x dur =
    match event "X" "span" with
    | J.Obj fields -> J.Obj (fields @ [ ("dur", dur) ])
    | _ -> assert false
  in
  check_bool "zero dur accepted" true
    (Result.is_ok (T.validate_json (doc [ x (J.Int 0) ])));
  check_bool "positive dur accepted" true
    (Result.is_ok (T.validate_json (doc [ x (J.Float 1.5) ])));
  check_bool "negative int dur rejected" true
    (Result.is_error (T.validate_json (doc [ x (J.Int (-1)) ])));
  check_bool "negative float dur rejected" true
    (Result.is_error (T.validate_json (doc [ x (J.Float (-0.5)) ])));
  check_bool "missing dur rejected" true
    (Result.is_error (T.validate_json (doc [ event "X" "span" ])));
  (* C and X events never enter the begin/end nesting, so they are
     legal in positions where a stray E would be rejected *)
  check_bool "complete event legal outside nesting" true
    (Result.is_ok
       (T.validate_json
          (doc [ event "B" "a"; x (J.Int 3); event ~ts:9 "E" "a" ])))

(* Two renders of the same explicit event list are byte-identical — the
   dump-determinism contract of the daemon's flight recorder. *)
let test_events_to_json_deterministic () =
  let evs =
    [
      {
        T.ph = T.Complete;
        name = "serve.read";
        ts_ns = 1000;
        dur_ns = 500;
        tid = 3;
        args = [ ("trace_id", "t0001.000001"); ("span_id", "s000001") ];
        values = [];
      };
      {
        T.ph = T.Instant;
        name = "serve.slow";
        ts_ns = 2000;
        dur_ns = 0;
        tid = 3;
        args = [ ("latency_us", "1500") ];
        values = [];
      };
    ]
  in
  let a = J.to_string (T.events_to_json evs) in
  let b = J.to_string (T.events_to_json evs) in
  Alcotest.(check string) "byte-identical renders" a b;
  check_bool "renders validate" true
    (Result.is_ok (T.validate_json (T.events_to_json evs)))

(* --- JSON ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.String "line\nbreak \"and\" \\slash");
        ("n", J.Int (-42));
        ("b", J.Bool true);
        ("z", J.Null);
        ("l", J.List [ J.Int 1; J.String "x"; J.Obj [] ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok parsed -> check_bool "round-trips" true (parsed = v)
  | Error msg -> Alcotest.fail msg);
  check_bool "trailing garbage rejected" true
    (Result.is_error (J.parse "{} x"));
  check_bool "bare value parses" true (J.parse "3.5" = Ok (J.Float 3.5))

(* Numbers follow JSON's grammar: an optional minus, no leading plus or
   zero, digits on both sides of a point, digits after an exponent; and
   they must be finite.  A \u escape takes exactly four hex digits. *)
let test_json_grammar () =
  let pp ppf v = Format.pp_print_string ppf (J.to_string v) in
  let json = Alcotest.testable pp ( = ) in
  let parsed = Alcotest.(result json string) in
  List.iter
    (fun tok ->
      let at = String.length tok in
      Alcotest.check parsed tok
        (Error (Printf.sprintf "bad number %S at offset %d" tok at))
        (J.parse tok))
    [
      "+5"; "007"; "-007"; ".5"; "5."; "1.e5"; "1e400"; "-"; "00"; "1e";
      "1e+";
    ];
  List.iter
    (fun (tok, v) -> Alcotest.check parsed tok (Ok v) (J.parse tok))
    [
      ("0", J.Int 0);
      ("-0", J.Int 0);
      ("1e5", J.Float 1e5);
      ("1E+5", J.Float 1e5);
      ("-1.5e-3", J.Float (-1.5e-3));
      ("123456789012345678901", J.Float 123456789012345678901.);
    ];
  check_bool "id +1 rejected on the wire" true
    (Result.is_error
       (Ggpu_serve.Proto.incoming_of_line
          {|{"id":+1,"kind":"synth","cus":1,"freq_mhz":500}|}));
  check_bool "\\u0_41 rejected" true
    (J.parse {|"\u0_41"|} = Error "bad \\u escape at offset 2");
  check_bool "\\u0041 reads" true (J.parse {|"\u0041"|} = Ok (J.String "A"))

(* Json.add_int writes memo keys and every JSON int: its bytes must be
   string_of_int's, the edges of the int range included. *)
let add_int_matches_string_of_int =
  QCheck.Test.make ~count:1000 ~name:"json add_int = string_of_int"
    QCheck.(
      oneof
        [
          int;
          small_signed_int;
          oneofl [ min_int; min_int + 1; max_int; 0; -1; 9; 10; -9; -10 ];
        ])
    (fun n ->
      let b = Buffer.create 8 in
      J.add_int b n;
      String.equal (Buffer.contents b) (string_of_int n))

(* --- profiler ------------------------------------------------------------ *)

let test_self_times () =
  let ev ph name ts_ns =
    { T.ph; name; ts_ns; dur_ns = 0; tid = 0; args = []; values = [] }
  in
  let rows =
    P.self_times
      [
        ev T.Begin "a" 0;
        ev T.Begin "b" 40;
        ev T.End "b" 80;
        ev T.End "a" 100;
      ]
  in
  let find n = List.find (fun (r : P.row) -> r.P.name = n) rows in
  check "a total" 100 (find "a").P.total_ns;
  check "a self excludes b" 60 (find "a").P.self_ns;
  check "b total" 40 (find "b").P.total_ns;
  check "b self" 40 (find "b").P.self_ns;
  check_bool "sorted by self time" true
    (List.map (fun (r : P.row) -> r.P.name) rows = [ "a"; "b" ])

let test_self_times_tie_break () =
  let ev ph name ts_ns =
    { T.ph; name; ts_ns; dur_ns = 0; tid = 0; args = []; values = [] }
  in
  (* three spans with identical self time: ordering must fall back to
     the name, independent of hash-table iteration order *)
  let rows =
    P.self_times
      [
        ev T.Begin "zeta" 0;
        ev T.End "zeta" 10;
        ev T.Begin "alpha" 10;
        ev T.End "alpha" 20;
        ev T.Begin "mid" 20;
        ev T.End "mid" 30;
      ]
  in
  Alcotest.(check (list string))
    "equal self times ordered by name"
    [ "alpha"; "mid"; "zeta" ]
    (List.map (fun (r : P.row) -> r.P.name) rows)

(* --- ring / exposition / percentiles ------------------------------------- *)

module R = Ggpu_obs.Ring

let test_ring_wraparound () =
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Ring.create: capacity < 1") (fun () ->
      ignore (R.create ~capacity:0));
  let r = R.create ~capacity:3 in
  check "empty length" 0 (R.length r);
  Alcotest.(check (list int)) "empty list" [] (R.to_list r);
  R.push r 1;
  R.push r 2;
  Alcotest.(check (list int)) "partial fill, oldest first" [ 1; 2 ]
    (R.to_list r);
  List.iter (R.push r) [ 3; 4; 5 ];
  check "total counts every push" 5 (R.total r);
  check "length capped at capacity" 3 (R.length r);
  Alcotest.(check (list int)) "oldest overwritten first" [ 3; 4; 5 ]
    (R.to_list r);
  R.push r 6;
  Alcotest.(check (list int)) "keeps sliding" [ 4; 5; 6 ] (R.to_list r);
  R.clear r;
  check "clear empties" 0 (R.length r);
  Alcotest.(check (list int)) "cleared list" [] (R.to_list r)

let test_hist_percentile () =
  let r = M.create () in
  let h = M.histogram ~buckets:[ 1; 2; 4; 8; 16 ] r "lat" in
  let snap () = Option.get (M.find_histogram (M.snapshot r) "lat") in
  check "empty percentile" 0 (M.hist_percentile (snap ()) 0.99);
  List.iter (M.observe h) [ 1; 2; 3; 4; 100 ];
  let s = snap () in
  (* ranks: q0.2 -> first obs (bucket 1), q0.5 -> rank 3 in bucket 4,
     overflow reports the observed max *)
  check "p20 is the first bucket" 1 (M.hist_percentile s 0.20);
  check "p50 covers rank 3" 4 (M.hist_percentile s 0.50);
  check "p99 lands in overflow: observed max" 100 (M.hist_percentile s 0.99);
  check "q=0 clamps to rank 1" 1 (M.hist_percentile s 0.0);
  (* a bucket bound past the observed max is capped at the max *)
  let r2 = M.create () in
  let h2 = M.histogram ~buckets:[ 1000 ] r2 "lat" in
  M.observe h2 7;
  check "bound capped at observed max" 7
    (M.hist_percentile (Option.get (M.find_histogram (M.snapshot r2) "lat")) 0.5)

let test_expose_stable () =
  let mk () =
    let r = M.create () in
    M.add (M.counter r "serve.requests") 40;
    M.gauge_max (M.gauge r "serve.pool.domains") 4;
    let h = M.histogram ~buckets:[ 1; 2; 4 ] r "serve.latency.sim" in
    List.iter (M.observe h) [ 1; 3; 9 ];
    M.snapshot r
  in
  let a = M.expose (mk ()) and b = M.expose (mk ()) in
  Alcotest.(check string) "equal snapshots expose byte-identically" a b;
  let expected =
    "counter serve.requests 40\n" ^ "gauge serve.pool.domains 4\n"
    ^ "histogram serve.latency.sim count 3 sum 13 min 1 max 9\n"
    ^ "bucket serve.latency.sim le 1 1\n" ^ "bucket serve.latency.sim le 2 1\n"
    ^ "bucket serve.latency.sim le 4 2\n"
    ^ "bucket serve.latency.sim le inf 3\n"
  in
  Alcotest.(check string) "exposition layout is pinned" expected a

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "counter monotone" `Quick test_counter_monotone;
        Alcotest.test_case "kind clash" `Quick test_kind_clash;
        Alcotest.test_case "gauge max" `Quick test_gauge_max;
        Alcotest.test_case "now_ns monotonic" `Quick test_now_ns_monotonic;
        Alcotest.test_case "histogram invariants" `Quick
          test_histogram_invariants;
        Alcotest.test_case "histogram bad buckets" `Quick
          test_histogram_bad_buckets;
        Alcotest.test_case "merge values" `Quick test_merge_values;
        qcheck merge_commutative;
        qcheck merge_associative;
        qcheck merge_identity;
        Alcotest.test_case "map_collect deterministic" `Quick
          test_map_collect_deterministic;
        Alcotest.test_case "ambient deterministic" `Quick
          test_ambient_deterministic;
        Alcotest.test_case "ambient disabled no-op" `Quick
          test_ambient_disabled_noop;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span exception safety" `Quick
          test_span_exception_safe;
        Alcotest.test_case "export round-trip" `Quick test_export_roundtrip;
        Alcotest.test_case "disabled tracer records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "counter and complete events" `Quick
          test_counter_and_complete_events;
        Alcotest.test_case "reset drops stale events" `Quick
          test_reset_drops_stale_events;
        Alcotest.test_case "validator rejects unbalanced" `Quick
          test_validator_rejects_unbalanced;
        Alcotest.test_case "validator complete dur" `Quick
          test_validator_complete_dur;
        Alcotest.test_case "events_to_json deterministic" `Quick
          test_events_to_json_deterministic;
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "hist percentile" `Quick test_hist_percentile;
        Alcotest.test_case "expose stable" `Quick test_expose_stable;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json number and escape grammar" `Quick
          test_json_grammar;
        qcheck add_int_matches_string_of_int;
        Alcotest.test_case "profiler self times" `Quick test_self_times;
        Alcotest.test_case "profiler self-time tie-break" `Quick
          test_self_times_tie_break;
      ] );
  ]
