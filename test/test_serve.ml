(* The serving subsystem: memo-cache key injectivity, byte-identical
   cache hits across lane engines and pool sizes, batching/coalescing,
   LRU bounds, backpressure, deadlines, the persistent domain pool and
   the wire protocol. *)

module E = Ggpu_serve.Engine
module P = Ggpu_serve.Proto
module K = Ggpu_serve.Key
module L = Ggpu_serve.Lru
module W = Ggpu_serve.Workload
module C = Ggpu_fgpu.Config
module Pool = Ggpu_par.Parallel.Pool
module Json = Ggpu_obs.Json

let counter engine name =
  Option.value ~default:0
    (Ggpu_obs.Metrics.find_counter (E.metrics engine) name)

let req ?deadline_ms ?tech ~id kind = P.mk_request ?deadline_ms ?tech ~id kind
let sim ~kernel ~cus ~size = P.Sim { kernel; cus; size }
let perf ~kernel ~cus ~size = P.Perf { kernel; cus; size }
let synth ~cus ~freq_mhz = P.Synth { cus; freq_mhz }

let key_exn r =
  match E.key_of_request r with
  | Ok k -> k
  | Error msg -> Alcotest.failf "expected a key, got error: %s" msg

(* --- keys ---------------------------------------------------------------- *)

let test_key_perturbations () =
  let base = req ~id:1 (sim ~kernel:"copy" ~cus:2 ~size:256) in
  let distinct what a b =
    Alcotest.(check bool)
      (what ^ " changes the key") false
      (String.equal (key_exn a) (key_exn b))
  in
  distinct "cus" base (req ~id:1 (sim ~kernel:"copy" ~cus:4 ~size:256));
  distinct "kernel" base (req ~id:1 (sim ~kernel:"vec_mul" ~cus:2 ~size:256));
  distinct "size" base (req ~id:1 (sim ~kernel:"copy" ~cus:2 ~size:1024));
  distinct "kind" base (req ~id:1 (perf ~kernel:"copy" ~cus:2 ~size:256));
  (* the id is NOT part of any key; neither is the tech of a sim —
     simulation is technology-agnostic, so 65nm and 28nm sims share one
     cached result by design *)
  Alcotest.(check string)
    "id never enters the key" (key_exn base)
    (key_exn (req ~id:999 (sim ~kernel:"copy" ~cus:2 ~size:256)));
  Alcotest.(check string)
    "tech never enters a sim key" (key_exn base)
    (key_exn (req ~tech:"28nm" ~id:1 (sim ~kernel:"copy" ~cus:2 ~size:256)));
  let sbase = req ~id:1 (synth ~cus:2 ~freq_mhz:590) in
  distinct "synth freq" sbase (req ~id:1 (synth ~cus:2 ~freq_mhz:667));
  distinct "synth cus" sbase (req ~id:1 (synth ~cus:4 ~freq_mhz:590));
  distinct "synth tech" sbase
    (req ~tech:"28nm" ~id:1 (synth ~cus:2 ~freq_mhz:590));
  distinct "synth vs sim" sbase base;
  (* pmu stride is part of a perf key, never of a sim key *)
  let p = req ~id:1 (perf ~kernel:"copy" ~cus:2 ~size:256) in
  Alcotest.(check bool)
    "perf stride changes the key" false
    (String.equal
       (Result.get_ok (E.key_of_request ~pmu_stride:64 p))
       (Result.get_ok (E.key_of_request ~pmu_stride:128 p)))

let test_key_cache_config () =
  let with_cache cache = { C.default with C.cache } in
  let k cache =
    K.sim ~config:(with_cache cache) ~kernel:"copy" ~global_size:256
      ~local_size:64
  in
  let base = C.default.C.cache in
  let distinct what cache =
    Alcotest.(check bool)
      (what ^ " changes the key") false
      (String.equal (k base) (k cache))
  in
  distinct "cache size" { base with C.size_bytes = base.C.size_bytes * 2 };
  distinct "line words" { base with C.line_words = base.C.line_words * 2 };
  distinct "cache ports" { base with C.ports = base.C.ports + 1 };
  distinct "hit latency" { base with C.hit_latency = base.C.hit_latency + 1 }

let test_key_digest () =
  let key = key_exn (req ~id:1 (sim ~kernel:"copy" ~cus:1 ~size:256)) in
  let hex = K.hash_hex key in
  Alcotest.(check int) "digest is 16 hex chars" 16 (String.length hex);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    hex;
  for shards = 1 to 9 do
    let s = K.shard ~shards (K.fnv1a64 key) in
    Alcotest.(check bool) "shard in range" true (s >= 0 && s < shards)
  done

(* A technology's fingerprint depends on its values alone, not on how
   the compiler happened to share equal sub-values in the record (which
   differs between build profiles): a structurally equal deep copy gets
   the same fingerprint. *)
let test_key_tech_structural () =
  List.iter
    (fun (t : Ggpu_tech.Tech.t) ->
      let copy : Ggpu_tech.Tech.t =
        Marshal.from_string (Marshal.to_string t [ Marshal.No_sharing ]) 0
      in
      Alcotest.(check string) t.Ggpu_tech.Tech.name (K.tech t) (K.tech copy))
    [ Ggpu_tech.Tech.default_65nm; Ggpu_tech.Tech.scaled_28nm ]

(* qcheck: the sim key is injective on (geometry, cache, axi, kernel) —
   two configurations produce the same key iff they are the same
   configuration. *)
let kernels = [| "copy"; "vec_mul"; "fir"; "mat_mul" |]

let key_params_gen =
  QCheck.Gen.(
    map
      (fun ((cus, kb), ((line, ports), (axi, k))) ->
        (cus, kb, line, ports, axi, k))
      (pair
         (pair (int_range 1 8) (oneofl [ 8; 16; 32 ]))
         (pair
            (pair (oneofl [ 4; 8 ]) (oneofl [ 1; 2; 4 ]))
            (pair (int_range 1 4) (int_range 0 3)))))

let key_params =
  QCheck.make
    ~print:(fun (cus, kb, line, ports, axi, k) ->
      Printf.sprintf "cus=%d kb=%d line=%d ports=%d axi=%d kernel=%s" cus kb
        line ports axi kernels.(k))
    key_params_gen

let config_of (cus, kb, line, ports, axi, _) =
  {
    (C.with_cus C.default cus) with
    C.cache =
      {
        C.default.C.cache with
        C.size_bytes = kb * 1024;
        line_words = line;
        ports;
      };
    axi = { C.default.C.axi with C.data_ports = axi };
  }

let key_of (_, _, _, _, _, k) config =
  K.sim ~config ~kernel:kernels.(k) ~global_size:256 ~local_size:64

let key_injective =
  QCheck.Test.make ~count:500 ~name:"sim key injective on config"
    (QCheck.pair key_params key_params)
    (fun (a, b) ->
      String.equal (key_of a (config_of a)) (key_of b (config_of b)) = (a = b))

(* --- lru ----------------------------------------------------------------- *)

let test_lru () =
  let l = L.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (L.capacity l);
  Alcotest.(check int) "evicts nothing below capacity" 0 (L.add l "a" 1);
  Alcotest.(check int) "evicts nothing at capacity" 0 (L.add l "b" 2);
  (* touch a so b becomes the LRU victim *)
  Alcotest.(check (option int)) "find a" (Some 1) (L.find l "a");
  Alcotest.(check int) "evicts one above capacity" 1 (L.add l "c" 3);
  Alcotest.(check (option int)) "b evicted" None (L.find l "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (L.find l "a");
  Alcotest.(check int) "length bounded" 2 (L.length l);
  Alcotest.(check int) "replace does not evict" 0 (L.add l "a" 10);
  Alcotest.(check (option int)) "replaced value" (Some 10) (L.find l "a");
  Alcotest.(check bool) "mru first" true
    (fst (List.hd (L.to_alist l)) = "a");
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (L.create ~capacity:0))

(* --- engine: byte-identity ----------------------------------------------- *)

let done_result (r : P.response) =
  (match r.P.status with
  | P.Done -> ()
  | P.Failed msg -> Alcotest.failf "request failed: %s" msg
  | _ -> Alcotest.fail "request not Done");
  r.P.result

let test_cold_warm_identical () =
  let engine = E.create () in
  List.iter
    (fun kind ->
      let cold = E.process engine [ req ~id:1 kind ] in
      let warm = E.process engine [ req ~id:2 kind ] in
      match (cold, warm) with
      | [ c ], [ w ] ->
          Alcotest.(check bool) "cold is uncached" false c.P.cached;
          Alcotest.(check bool) "warm is cached" true w.P.cached;
          Alcotest.(check string)
            "cache hit bytes == cold bytes" (done_result c) (done_result w);
          Alcotest.(check string) "same key digest" c.P.key w.P.key;
          Alcotest.(check bool) "payload non-empty" true
            (String.length c.P.result > 0)
      | _ -> Alcotest.fail "one response per request")
    [
      sim ~kernel:"copy" ~cus:2 ~size:256;
      perf ~kernel:"copy" ~cus:2 ~size:256;
      synth ~cus:1 ~freq_mhz:500;
    ];
  Alcotest.(check int) "three misses" 3 (counter engine "serve.cache.miss");
  Alcotest.(check int) "three hits" 3 (counter engine "serve.cache.hit")

(* A payload computed through the reference lane engine: with no pool
   the engine runs its misses on this domain, where [with_engine]
   reaches them. *)
let test_backends_identical () =
  List.iter
    (fun kind ->
      let payload engine =
        Fgpu_oracle.with_engine engine (fun () ->
            done_result (List.hd (E.process (E.create ()) [ req ~id:1 kind ])))
      in
      Alcotest.(check string)
        "threaded and oracle payload bytes identical"
        (payload Fgpu_oracle.Threaded)
        (payload Fgpu_oracle.Oracle))
    [
      sim ~kernel:"vec_mul" ~cus:2 ~size:256;
      sim ~kernel:"div_int" ~cus:1 ~size:256;
      perf ~kernel:"copy" ~cus:2 ~size:256;
    ]

let test_pool_sizes_identical () =
  let batch =
    [
      req ~id:1 (sim ~kernel:"copy" ~cus:1 ~size:256);
      req ~id:2 (sim ~kernel:"vec_mul" ~cus:2 ~size:256);
      req ~id:3 (synth ~cus:1 ~freq_mhz:500);
      req ~id:4 (perf ~kernel:"fir" ~cus:2 ~size:256);
      req ~id:5 (sim ~kernel:"copy" ~cus:1 ~size:256) (* dup of 1 *);
    ]
  in
  let serial = E.process (E.create ()) batch in
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let engine = E.create ~pool () in
  Alcotest.(check int) "pool size visible" 3 (E.pool_size engine);
  let parallel = E.process engine batch in
  List.iter2
    (fun (s : P.response) (p : P.response) ->
      Alcotest.(check int) "responses in arrival order" s.P.id p.P.id;
      Alcotest.(check string) "payload bytes identical" s.P.result p.P.result)
    serial parallel;
  Alcotest.(check int)
    "duplicate coalesced, not recomputed" 1
    (counter engine "serve.cache.coalesced");
  Alcotest.(check bool) "coalesced reply marked cached" true
    (List.nth parallel 4).P.cached

let test_batch_shares_artifacts () =
  let engine = E.create () in
  let responses =
    E.process engine
      [
        req ~id:1 (synth ~cus:1 ~freq_mhz:500);
        req ~id:2 (synth ~cus:1 ~freq_mhz:590);
        req ~id:3 (sim ~kernel:"copy" ~cus:1 ~size:256);
        req ~id:4 (perf ~kernel:"copy" ~cus:1 ~size:256);
      ]
  in
  List.iter (fun r -> ignore (done_result r)) responses;
  (* one base netlist serves both synth targets; one compilation serves
     sim and perf of the same kernel *)
  Alcotest.(check int) "one base built" 1 (counter engine "serve.netlist.build");
  Alcotest.(check int) "base reused" 1 (counter engine "serve.netlist.reuse");
  Alcotest.(check int) "one kernel compiled" 1
    (counter engine "serve.kernel.compile");
  Alcotest.(check int) "compilation reused" 1
    (counter engine "serve.kernel.reuse")

(* --- engine: bounds and failure modes ------------------------------------ *)

let test_eviction () =
  let engine =
    E.create
      ~config:{ E.default_config with E.cache_capacity = 2; shards = 1 }
      ()
  in
  let one id kernel = req ~id (sim ~kernel ~cus:1 ~size:256) in
  ignore (E.process engine [ one 1 "copy" ]);
  ignore (E.process engine [ one 2 "vec_mul" ]);
  ignore (E.process engine [ one 3 "fir" ]);
  Alcotest.(check int) "one eviction" 1 (counter engine "serve.cache.eviction");
  (* copy was the LRU entry, so it is gone and misses again *)
  let r = List.hd (E.process engine [ one 4 "copy" ]) in
  Alcotest.(check bool) "evicted key misses" false r.P.cached;
  Alcotest.(check int) "4 misses total" 4 (counter engine "serve.cache.miss")

let test_backpressure () =
  let engine =
    E.create ~config:{ E.default_config with E.queue_capacity = 2 } ()
  in
  let r id = req ~id (sim ~kernel:"copy" ~cus:1 ~size:256) in
  Alcotest.(check bool) "first queued" true (E.submit engine (r 1) = `Queued);
  Alcotest.(check bool) "second queued" true (E.submit engine (r 2) = `Queued);
  (match E.submit engine (r 3) with
  | `Rejected ms -> Alcotest.(check bool) "retry hint positive" true (ms > 0)
  | `Queued -> Alcotest.fail "third must be rejected");
  Alcotest.(check int) "rejection counted" 1 (counter engine "serve.rejected");
  Alcotest.(check int) "queue drained" 2 (List.length (E.step engine));
  (* process synthesises the rejection inline, in input order *)
  let responses = E.process engine [ r 1; r 2; r 3 ] in
  match (List.nth responses 2).P.status with
  | P.Rejected { retry_after_ms } ->
      Alcotest.(check bool) "inline retry hint" true (retry_after_ms > 0)
  | _ -> Alcotest.fail "third response must be Rejected"

let test_deadline () =
  let engine = E.create () in
  let r =
    req ~deadline_ms:0 ~id:1 (sim ~kernel:"copy" ~cus:1 ~size:256)
  in
  Alcotest.(check bool) "queued" true (E.submit engine r = `Queued);
  Unix.sleepf 0.005;
  (match (List.hd (E.step engine)).P.status with
  | P.Expired -> ()
  | _ -> Alcotest.fail "overdue request must expire");
  Alcotest.(check int) "expiry counted" 1 (counter engine "serve.expired");
  (* a generous deadline is not triggered *)
  let ok =
    E.process engine
      [ req ~deadline_ms:60_000 ~id:2 (sim ~kernel:"copy" ~cus:1 ~size:256) ]
  in
  ignore (done_result (List.hd ok))

let test_failures () =
  let engine = E.create () in
  let failed kind_or_tech r =
    match (List.hd (E.process engine [ r ])).P.status with
    | P.Failed msg ->
        Alcotest.(check bool)
          (kind_or_tech ^ " failure has a message")
          true
          (String.length msg > 0)
    | _ -> Alcotest.failf "%s must fail" kind_or_tech
  in
  failed "unknown kernel" (req ~id:1 (sim ~kernel:"nope" ~cus:1 ~size:256));
  failed "unknown tech"
    (req ~tech:"7nm" ~id:2 (sim ~kernel:"copy" ~cus:1 ~size:256));
  failed "out-of-range cus" (req ~id:3 (sim ~kernel:"copy" ~cus:99 ~size:256));
  failed "unreachable frequency" (req ~id:4 (synth ~cus:1 ~freq_mhz:5000));
  Alcotest.(check int) "failures counted" 4 (counter engine "serve.failed");
  Alcotest.(check (option (float 0.)))
    "failures never enter the hit rate" None (E.hit_rate engine)

(* --- pool ---------------------------------------------------------------- *)

let test_pool_semantics () =
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check int) "size" 3 (Pool.size pool);
  let xs = List.init 100 Fun.id in
  let doubled = Pool.map pool (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> 2 * x) xs)
    doubled;
  (* same workers serve a second job *)
  let strings = Pool.map pool string_of_int xs in
  Alcotest.(check string) "reused pool works" "42" (List.nth strings 42);
  (* first failure in input order, like sequential map *)
  Alcotest.check_raises "first failure re-raised" (Failure "item 3") (fun () ->
      ignore
        (Pool.map pool
           (fun x ->
             if x >= 3 then failwith (Printf.sprintf "item %d" x) else x)
           xs));
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown raises"
    (Invalid_argument "Parallel.Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool Fun.id [ 1; 2 ]))

(* A domain count below 1 is a caller's error at every entry of the
   domain pool; a count above the number of items still shrinks to
   it. *)
let test_pool_rejects_domain_count () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s must raise Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun d ->
      let what fn = Printf.sprintf "%s ~domains:%d" fn d in
      raises (what "Parallel.map") (fun () ->
          ignore (Ggpu_par.Parallel.map ~domains:d succ [ 1; 2; 3 ]));
      raises (what "Parallel.map_collect") (fun () ->
          ignore
            (Ggpu_par.Parallel.map_collect ~domains:d (fun _ x -> x) [ 1; 2 ]));
      raises (what "Pool.create") (fun () ->
          ignore (Pool.create ~domains:d ())))
    [ 0; -1; min_int ];
  Alcotest.(check (list int))
    "more domains than items" [ 2; 3 ]
    (Ggpu_par.Parallel.map ~domains:8 succ [ 1; 2 ]);
  Alcotest.(check (list int))
    "no items" []
    (Ggpu_par.Parallel.map ~domains:4 succ [])

(* --- workload + protocol ------------------------------------------------- *)

let test_workload () =
  let a = W.mix ~seed:7 ~n:200 () in
  let b = W.mix ~seed:7 ~n:200 () in
  Alcotest.(check bool) "same seed, same mix" true (a = b);
  Alcotest.(check bool) "different seed, different mix" false
    (a = W.mix ~seed:8 ~n:200 ());
  Alcotest.(check (list int)) "ids are 1..n" (List.init 200 succ)
    (List.map (fun (r : P.request) -> r.P.id) a);
  let count pred = List.length (List.filter pred a) in
  let sims = count (fun r -> match r.P.kind with P.Sim _ -> true | _ -> false) in
  let synths =
    count (fun r -> match r.P.kind with P.Synth _ -> true | _ -> false)
  in
  let perfs =
    count (fun r -> match r.P.kind with P.Perf _ -> true | _ -> false)
  in
  Alcotest.(check bool) "all kinds present" true
    (sims > 0 && synths > 0 && perfs > 0);
  Alcotest.(check int) "kinds partition the mix" 200 (sims + synths + perfs);
  Alcotest.(check bool) "mix stays within the key universe" true
    (W.universe > 0);
  (* every request in the mix resolves to a valid key *)
  List.iter (fun r -> ignore (key_exn r)) a

let test_proto_roundtrip () =
  let reqs =
    [
      req ~id:1 (synth ~cus:2 ~freq_mhz:667);
      req ~tech:"28nm" ~id:42 (sim ~kernel:"copy" ~cus:4 ~size:1024);
      req ~deadline_ms:250 ~id:7 (perf ~kernel:"fir" ~cus:1 ~size:256);
    ]
  in
  List.iter
    (fun r ->
      match P.incoming_of_line (P.request_to_line r) with
      | Ok (P.Req r') ->
          Alcotest.(check bool) "request round-trips" true (r = r')
      | Ok (P.Control _) -> Alcotest.fail "parsed as control"
      | Error msg -> Alcotest.failf "parse error: %s" msg)
    reqs;
  List.iter
    (fun c ->
      match P.incoming_of_line (P.control_to_line c) with
      | Ok (P.Control c') ->
          Alcotest.(check bool) "control round-trips" true (c = c')
      | _ -> Alcotest.fail "control did not round-trip")
    [ P.Ping; P.Stats; P.Shutdown; P.Dump; P.Telemetry ];
  (* the wire carries an optional trace context; both fields must be
     present for it to parse back (a lone field is advisory) *)
  let traced =
    P.mk_request
      ~trace:{ P.trace_id = "t0001.00002a"; span_id = "s00002a" }
      ~id:11
      (sim ~kernel:"copy" ~cus:2 ~size:256)
  in
  (match P.incoming_of_line (P.request_to_line traced) with
  | Ok (P.Req r') ->
      Alcotest.(check bool) "trace context round-trips" true (traced = r')
  | _ -> Alcotest.fail "traced request did not round-trip");
  let payload =
    Json.to_string
      (Json.Obj [ ("kind", Json.String "sim"); ("cycles", Json.Int 123) ])
  in
  let resp =
    { P.id = 9; status = P.Done; cached = true; key = "00ff00ff00ff00ff";
      result = payload }
  in
  (match P.response_of_line (P.response_to_line resp) with
  | Ok r' ->
      Alcotest.(check bool) "response round-trips" true (resp = r');
      Alcotest.(check string) "payload bytes preserved" payload r'.P.result
  | Error msg -> Alcotest.failf "response parse error: %s" msg);
  List.iter
    (fun status ->
      let resp = { P.id = 1; status; cached = false; key = ""; result = "" } in
      match P.response_of_line (P.response_to_line resp) with
      | Ok r' -> Alcotest.(check bool) "status round-trips" true (resp = r')
      | Error msg -> Alcotest.failf "status parse error: %s" msg)
    [ P.Rejected { retry_after_ms = 50 }; P.Expired; P.Failed "boom" ]

(* An optional field of the wrong type is rejected with the wording a
   required field's gets, after id and kind and before the kind's own
   fields; absent, it takes its default.  The first occurrence of a
   repeated name decides, and the trace ids stay advisory. *)
let test_proto_typed_optional_fields () =
  let decode line =
    match P.incoming_of_line line with
    | Ok (P.Req r) -> Ok r
    | Ok (P.Control _) -> Error "parsed as a control"
    | Error e -> Error e
  in
  let rejects what expected line =
    match decode line with
    | Error e -> Alcotest.(check string) what expected e
    | Ok _ -> Alcotest.failf "%s: %s was accepted" what line
  in
  let accepts what expected line =
    match decode line with
    | Ok r -> Alcotest.(check bool) what true (r = expected)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let synth = {|"id":1,"kind":"synth","cus":1,"freq_mhz":500|} in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let tech_msg = {|field "tech" must be a string|}
  and deadline_msg = {|field "deadline_ms" must be an integer|} in
  rejects "a numeric tech" tech_msg (obj [ synth; {|"tech":28|} ]);
  rejects "a null tech" tech_msg (obj [ synth; {|"tech":null|} ]);
  rejects "a string deadline" deadline_msg
    (obj [ synth; {|"deadline_ms":"5"|} ]);
  rejects "a float deadline" deadline_msg
    (obj [ synth; {|"deadline_ms":2.5|} ]);
  rejects "tech before deadline_ms" tech_msg
    (obj [ synth; {|"deadline_ms":"5"|}; {|"tech":28|} ]);
  rejects "id before tech" {|field "id" must be an integer|}
    (obj [ {|"id":"1"|}; {|"tech":28|} ]);
  rejects "kind before tech" {|missing field "kind"|}
    (obj [ {|"id":1|}; {|"tech":28|} ]);
  rejects "tech before the kind's fields" tech_msg
    (obj [ {|"id":1|}; {|"kind":"sim"|}; {|"tech":28|} ]);
  rejects "deadline_ms before the kind's fields" deadline_msg
    (obj [ {|"id":1|}; {|"kind":"sim"|}; {|"deadline_ms":[]|} ]);
  rejects "the first tech decides" tech_msg
    (obj [ synth; {|"tech":5|}; {|"tech":"28nm"|} ]);
  let synth_req = req ~id:1 (P.Synth { cus = 1; freq_mhz = 500 }) in
  accepts "absent fields take their defaults" synth_req (obj [ synth ]);
  accepts "the first tech decides"
    (req ~tech:"28nm" ~deadline_ms:7 ~id:1
       (P.Synth { cus = 1; freq_mhz = 500 }))
    (obj
       [ synth; {|"tech":"28nm"|}; {|"deadline_ms":7|}; {|"tech":5|};
         {|"deadline_ms":"x"|} ]);
  accepts "a mistyped trace id is absent" synth_req
    (obj [ synth; {|"trace_id":5|}; {|"span_id":"s01"|} ]);
  accepts "a lone trace id is absent" synth_req
    (obj [ synth; {|"trace_id":"t01"|} ])

(* the wire line of a cache hit is byte-identical to the cold one,
   end to end through the response encoder *)
let test_wire_bytes_identical () =
  let engine = E.create () in
  let kind = sim ~kernel:"copy" ~cus:1 ~size:256 in
  let cold = List.hd (E.process engine [ req ~id:5 kind ]) in
  let warm = List.hd (E.process engine [ req ~id:5 kind ]) in
  Alcotest.(check string)
    "only the cached flag differs on the wire"
    (P.response_to_line { cold with P.cached = true })
    (P.response_to_line warm)

(* --- telemetry ----------------------------------------------------------- *)

(* Each served request lands one observation in its kind's latency
   histogram. *)
let test_latency_histograms () =
  let engine = E.create () in
  ignore
    (E.process engine
       [
         req ~id:1 (sim ~kernel:"copy" ~cus:1 ~size:256);
         req ~id:2 (sim ~kernel:"copy" ~cus:1 ~size:256);
         req ~id:3 (synth ~cus:1 ~freq_mhz:590);
         req ~id:4 (perf ~kernel:"copy" ~cus:1 ~size:256);
       ]);
  let total name =
    match Ggpu_obs.Metrics.find_histogram (E.metrics engine) name with
    | Some h -> Ggpu_obs.Metrics.hist_total h
    | None -> Alcotest.failf "missing histogram %s" name
  in
  Alcotest.(check int) "sim observations" 2 (total "serve.latency.sim");
  Alcotest.(check int) "synth observations" 1 (total "serve.latency.synth");
  Alcotest.(check int) "perf observations" 1 (total "serve.latency.perf")

(* qcheck: a multiset of latency observations partitioned across K
   registries merges bit-identically to a single registry, for any K
   and any assignment — why `bench serve` and `serve stats` can never
   disagree on a percentile. *)
let hist_merge_partition_invariant =
  let kinds =
    [| "serve.latency.sim"; "serve.latency.synth"; "serve.latency.perf" |]
  in
  QCheck.Test.make ~count:100
    ~name:"latency histograms merge partition-invariantly"
    QCheck.(
      pair
        (small_list (pair (int_bound 2) (int_bound 20_000_000)))
        (int_range 1 8))
    (fun (obs, k) ->
      let observe reg (kind_ix, v) =
        Ggpu_obs.Metrics.observe
          (Ggpu_obs.Metrics.histogram ~buckets:E.latency_buckets reg
             kinds.(kind_ix))
          v
      in
      let reference = Ggpu_obs.Metrics.create () in
      List.iter (observe reference) obs;
      let parts = Array.init k (fun _ -> Ggpu_obs.Metrics.create ()) in
      List.iteri (fun i o -> observe parts.(i mod k) o) obs;
      let merged =
        Ggpu_obs.Metrics.merge_all
          (Array.to_list (Array.map Ggpu_obs.Metrics.snapshot parts))
      in
      Ggpu_obs.Metrics.equal_snapshot
        (Ggpu_obs.Metrics.snapshot reference)
        merged)

let span_names { E.spans; _ } =
  List.map (fun e -> e.Ggpu_obs.Trace.name) spans

(* The engine's span groups reflect each request's actual path: a miss
   executes, a hit stops at the probe, a coalesced duplicate records
   the coalesce and shares the first requester's execute span. *)
let test_step_traced_groups () =
  let engine = E.create () in
  let kind = sim ~kernel:"copy" ~cus:1 ~size:256 in
  ignore (E.submit engine (req ~id:1 kind));
  (match E.step_traced engine with
  | [ ({ E.resp; _ } as g) ] ->
      Alcotest.(check bool) "served" true (resp.P.status = P.Done);
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true
            (List.mem n (span_names g)))
        [ "serve.queue"; "serve.probe"; "serve.batch"; "serve.execute" ]
  | groups -> Alcotest.failf "expected one group, got %d" (List.length groups));
  ignore (E.submit engine (req ~id:2 kind));
  (match E.step_traced engine with
  | [ g ] ->
      Alcotest.(check (list string))
        "hit stops at the probe"
        [ "serve.queue"; "serve.probe" ]
        (span_names g)
  | _ -> Alcotest.fail "expected one group");
  let k2 = sim ~kernel:"copy" ~cus:2 ~size:256 in
  ignore (E.submit engine (req ~id:3 k2));
  ignore (E.submit engine (req ~id:4 k2));
  (match E.step_traced engine with
  | [ g1; g2 ] ->
      Alcotest.(check bool) "first executes" true
        (List.mem "serve.execute" (span_names g1));
      Alcotest.(check bool) "dup coalesces" true
        (List.mem "serve.coalesce" (span_names g2));
      Alcotest.(check bool) "dup shares the execute span" true
        (List.mem "serve.execute" (span_names g2))
  | groups ->
      Alcotest.failf "expected two groups, got %d" (List.length groups));
  (* a wire trace context shows up as args on the request's own spans *)
  ignore
    (E.submit engine
       (P.mk_request
          ~trace:{ P.trace_id = "tfeed.000001"; span_id = "s000001" }
          ~id:5 kind));
  match E.step_traced engine with
  | [ { E.spans; _ } ] ->
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            (e.Ggpu_obs.Trace.name ^ " carries the trace id")
            (Some "tfeed.000001")
            (List.assoc_opt "trace_id" e.Ggpu_obs.Trace.args))
        spans
  | _ -> Alcotest.fail "expected one group"

(* All spans the engine hands the recorder validate as a Chrome trace
   document, and rendering the same groups twice is byte-identical —
   the dump-determinism the daemon's dump control relies on. *)
let test_span_groups_render_deterministically () =
  let engine = E.create () in
  ignore (E.submit engine (req ~id:1 (sim ~kernel:"copy" ~cus:1 ~size:256)));
  ignore (E.submit engine (req ~id:2 (synth ~cus:1 ~freq_mhz:590)));
  let events =
    List.concat_map (fun { E.spans; _ } -> spans) (E.step_traced engine)
    |> List.sort_uniq compare
  in
  let doc = Ggpu_obs.Trace.events_to_json events in
  (match Ggpu_obs.Trace.validate_json doc with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "span group invalid: %s" msg);
  Alcotest.(check string)
    "rendering is deterministic"
    (Json.to_string doc)
    (Json.to_string (Ggpu_obs.Trace.events_to_json events))

(* --- the daemon under misbehaving clients -------------------------------- *)

(* A connection to a daemon starting on another domain.  Reads time
   out, so a daemon that never answers fails the test instead of
   hanging it. *)
let daemon_connect socket =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () -. t0 < 10.0 ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let send_all fd s =
  let pos = ref 0 in
  while !pos < String.length s do
    pos := !pos + Unix.write_substring fd s !pos (String.length s - !pos)
  done

(* The next reply line, or [None] once the daemon has hung up (a reset
   counts: it may close with bytes of ours unread). *)
let recv_line fd =
  let line = Buffer.create 256 and b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> None
    | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents line)
    | _ ->
        Buffer.add_char line (Bytes.get b 0);
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "the daemon sent no reply within 5 s"
  in
  go ()

(* The reply's [status], or its [control] for a control reply. *)
let reply_kind line =
  match Json.parse line with
  | Error e -> Alcotest.failf "reply %S is not JSON: %s" line e
  | Ok j -> (
      match (Json.member "status" j, Json.member "control" j) with
      | Some (Json.String s), _ | None, Some (Json.String s) -> s
      | _ -> Alcotest.failf "reply %S has no status" line)

(* Run [f socket] against a daemon started on another domain, then
   shut the daemon down and check that it acknowledged. *)
let with_daemon name f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ggpu-%s-%d.sock" name (Unix.getpid ()))
  in
  let daemon =
    Domain.spawn (fun () -> Ggpu_serve.Daemon.run ~domains:1 ~socket ())
  in
  let running = ref true in
  let shutdown () =
    let fd = daemon_connect socket in
    send_all fd (P.control_to_line P.Shutdown ^ "\n");
    let reply = recv_line fd in
    Unix.close fd;
    running := false;
    Domain.join daemon;
    reply
  in
  Fun.protect
    ~finally:(fun () -> if !running then ignore (shutdown ()))
    (fun () ->
      f socket;
      Alcotest.(check (option string))
        "shutdown stops the daemon" (Some "shutdown")
        (Option.map reply_kind (shutdown ())))

let test_daemon_misbehaving_clients () =
  let check what expected fd =
    Alcotest.(check (option string))
      what (Some expected)
      (Option.map reply_kind (recv_line fd))
  in
  with_daemon "daemon" (fun socket ->
      (* a line past the cap: one failed reply, then the daemon hangs up
         without acting on what it read *)
      let fd = daemon_connect socket in
      send_all fd
        (String.make (Ggpu_serve.Daemon.max_line_bytes + 1) 'x');
      check "an over-long line fails" "failed" fd;
      Alcotest.(check (option string)) "then the connection ends" None
        (recv_line fd);
      Unix.close fd;
      (* binary junk: a failed reply, and the connection stays usable *)
      let fd = daemon_connect socket in
      send_all fd "\x00\xff\xfe{[\x01\x7f\x80junk\n";
      check "binary junk fails" "failed" fd;
      send_all fd (P.control_to_line P.Ping ^ "\n");
      check "the same connection still answers" "ping" fd;
      Unix.close fd;
      (* a complete shutdown control without its newline, then a
         disconnect: the half-written line is dropped, not run *)
      let fd = daemon_connect socket in
      send_all fd (P.control_to_line P.Shutdown);
      Unix.close fd;
      (* a real request, then a disconnect before its reply: the reply
         is written to a closed socket, which must fail with EPIPE
         rather than kill the process with SIGPIPE *)
      let fd = daemon_connect socket in
      send_all fd
        (P.request_to_line
           (req ~id:7 (sim ~kernel:"xcorr" ~cus:1 ~size:1024))
        ^ "\n");
      Unix.close fd;
      let fd = daemon_connect socket in
      send_all fd (P.control_to_line P.Ping ^ "\n");
      check "a new connection answers" "ping" fd;
      Unix.close fd)

(* How the daemon cuts a byte stream into lines: a line that arrives
   over several reads (split inside a member name and again just before
   its newline), several lines in one read, and the cap's boundary: a
   line of exactly [max_line_bytes] bytes is answered, one a byte longer
   gets the failed reply and the hang-up. *)
let test_daemon_framing () =
  let engine = E.create () in
  let answer reqs = List.map P.response_to_line (E.process engine reqs) in
  let reply what expected fd =
    Alcotest.(check (option string)) what (Some expected) (recv_line fd)
  in
  with_daemon "framing" (fun socket ->
      let fd = daemon_connect socket in
      let barrier = daemon_connect socket in
      (* the reply to a ping on [barrier] leaves after a select round
         that read everything already written to [fd] *)
      let sync () =
        send_all barrier (P.control_to_line P.Ping ^ "\n");
        Alcotest.(check (option string))
          "barrier ping" (Some "ping")
          (Option.map reply_kind (recv_line barrier))
      in
      let split = req ~id:3 (sim ~kernel:"copy" ~cus:1 ~size:64) in
      let line = P.request_to_line split in
      let cut = String.length {|{"id":3,"ki|} in
      Alcotest.(check string) "the cut falls inside a member name"
        {|{"id":3,"ki|} (String.sub line 0 cut);
      send_all fd (String.sub line 0 cut);
      sync ();
      send_all fd (String.sub line cut (String.length line - cut));
      sync ();
      send_all fd "\n";
      reply "a line over three reads" (List.hd (answer [ split ])) fd;
      let batch =
        [
          req ~id:4 (sim ~kernel:"copy" ~cus:1 ~size:64);
          req ~id:5 (sim ~kernel:"copy" ~cus:1 ~size:128);
          req ~id:6 (sim ~kernel:"vec_mul" ~cus:1 ~size:64);
        ]
      in
      send_all fd
        (String.concat ""
           (List.map (fun r -> P.request_to_line r ^ "\n") batch));
      List.iter (fun expected -> reply "lines in one read" expected fd)
        (answer batch);
      let padded n =
        let ping = P.control_to_line P.Ping in
        ping ^ String.make (n - String.length ping) ' ' ^ "\n"
      in
      let cap = Ggpu_serve.Daemon.max_line_bytes in
      send_all fd (padded cap);
      Alcotest.(check (option string))
        "a line of exactly the cap is answered" (Some "ping")
        (Option.map reply_kind (recv_line fd));
      send_all fd (padded (cap + 1));
      Alcotest.(check (option string))
        "a line one byte over the cap fails" (Some "failed")
        (Option.map reply_kind (recv_line fd));
      Alcotest.(check (option string)) "then the connection ends" None
        (recv_line fd);
      Unix.close fd;
      Unix.close barrier)

(* Clients that pipeline a window of requests in one write each, at
   once: every client gets its own replies, in its own order, under its
   own ids, byte-equal to what the engine answers in-process; a client
   that hangs up right after writing costs the others nothing; and the
   flight recorder keeps one span group per request. *)
let test_daemon_pipelined_clients () =
  let traced c (r : P.request) =
    {
      r with
      P.trace =
        Some
          {
            P.trace_id = Printf.sprintf "tpipe%d.%06d" c r.P.id;
            span_id = Printf.sprintf "s%d%05d" c r.P.id;
          };
    }
  in
  let numbered c kinds =
    List.mapi (fun i (tech, kind) -> traced c (req ?tech ~id:(i + 1) kind))
      kinds
  in
  let plain kind = (None, kind) in
  let hits =
    [
      sim ~kernel:"copy" ~cus:1 ~size:64;
      sim ~kernel:"vec_mul" ~cus:1 ~size:64;
      sim ~kernel:"fir" ~cus:1 ~size:64;
      perf ~kernel:"copy" ~cus:1 ~size:64;
      synth ~cus:1 ~freq_mhz:500;
    ]
  in
  let prime = numbered 9 (List.map plain hits) in
  (* each client's misses run on its own CU count, so no two clients
     share a miss and the cached flags do not depend on how the daemon
     batches the windows *)
  let window c =
    let cus = 2 lsl c in
    numbered c
      (List.map plain
         [
           sim ~kernel:"copy" ~cus:1 ~size:64;
           sim ~kernel:"copy" ~cus ~size:64;
           sim ~kernel:"vec_mul" ~cus:1 ~size:64;
           sim ~kernel:"vec_mul" ~cus ~size:64;
           perf ~kernel:"copy" ~cus:1 ~size:64;
           sim ~kernel:"nope" ~cus:1 ~size:64;
           sim ~kernel:"copy" ~cus ~size:64;
           synth ~cus:1 ~freq_mhz:500;
           sim ~kernel:"fir" ~cus ~size:64;
           sim ~kernel:"fir" ~cus:1 ~size:64;
           perf ~kernel:"vec_mul" ~cus ~size:64;
           sim ~kernel:"copy" ~cus:1 ~size:64;
           sim ~kernel:"copy" ~cus ~size:128;
           perf ~kernel:"vec_mul" ~cus ~size:64;
           sim ~kernel:"div_int" ~cus ~size:64;
         ]
      @ [ (Some "28nm", sim ~kernel:"vec_mul" ~cus:1 ~size:64) ])
  in
  let windows = List.init 3 window in
  let engine = E.create () in
  ignore (E.process engine prime);
  let expected =
    List.map (fun w -> List.map P.response_to_line (E.process engine w))
      windows
  in
  let wire reqs =
    String.concat "" (List.map (fun r -> P.request_to_line r ^ "\n") reqs)
  in
  let replies fd n =
    List.init n (fun _ ->
        match recv_line fd with
        | Some line -> line
        | None -> Alcotest.fail "the daemon hung up before every reply")
  in
  with_daemon "pipelined" (fun socket ->
      let fd = daemon_connect socket in
      send_all fd (wire prime);
      Alcotest.(check (list string))
        "priming replies"
        (List.map (fun _ -> "ok") prime)
        (List.map reply_kind (replies fd (List.length prime)));
      let fds = List.map (fun _ -> daemon_connect socket) windows in
      let a, b, c =
        match fds with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let wa, wb, wc =
        match windows with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      send_all a (wire wa);
      send_all c (wire wc);
      Unix.close c;
      send_all b (wire wb);
      List.iteri
        (fun i (fd, w) ->
          Alcotest.(check (list string))
            (Printf.sprintf "client %d gets its own replies" i)
            (List.nth expected i)
            (replies fd (List.length w));
          Unix.close fd)
        [ (a, wa); (b, wb) ];
      let control c =
        send_all fd (P.control_to_line c ^ "\n");
        match Option.map Json.parse (recv_line fd) with
        | Some (Ok j) -> j
        | _ -> Alcotest.fail "no control reply"
      in
      let recorded j =
        match Json.member "recorded" j with Some (Json.Int n) -> n | _ -> -1
      in
      (* the daemon accepts one connection per select round, so the
         hung-up client's window may still be in flight: wait until the
         recorder has seen every request *)
      let sent = prime @ List.concat windows in
      let t0 = Unix.gettimeofday () in
      while
        Option.fold ~none:(-1) ~some:recorded
          (Json.member "recorder" (control P.Stats))
        < List.length sent
        && Unix.gettimeofday () -. t0 < 5.0
      do
        Unix.sleepf 0.005
      done;
      let dump = control P.Dump in
      Unix.close fd;
      Alcotest.(check int)
        "one group per request" (List.length sent) (recorded dump);
      let trace =
        match Json.member "trace" dump with
        | Some t -> t
        | None -> Alcotest.fail "the dump carries no trace"
      in
      (match Ggpu_obs.Trace.validate_json trace with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "dump trace invalid: %s" msg);
      let events =
        match Json.member "traceEvents" trace with
        | Some (Json.List evs) -> evs
        | _ -> []
      in
      let count name trace_id =
        List.length
          (List.filter
             (fun ev ->
               Json.member "name" ev = Some (Json.String name)
               && Option.bind (Json.member "args" ev) (Json.member "trace_id")
                  = Some (Json.String trace_id))
             events)
      in
      List.iter
        (fun (r : P.request) ->
          let trace_id = (Option.get r.P.trace).P.trace_id in
          List.iter
            (fun name ->
              Alcotest.(check int)
                (Printf.sprintf "%s of %s" name trace_id)
                1 (count name trace_id))
            [ "serve.read"; "serve.reply" ])
        sent)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "key perturbations" `Quick test_key_perturbations;
        Alcotest.test_case "key cache config" `Quick test_key_cache_config;
        Alcotest.test_case "key digest" `Quick test_key_digest;
        Alcotest.test_case "key tech ignores sharing" `Quick
          test_key_tech_structural;
        qcheck key_injective;
        Alcotest.test_case "lru" `Quick test_lru;
        Alcotest.test_case "cold/warm byte-identical" `Quick
          test_cold_warm_identical;
        Alcotest.test_case "backends byte-identical" `Quick
          test_backends_identical;
        Alcotest.test_case "pool sizes byte-identical" `Quick
          test_pool_sizes_identical;
        Alcotest.test_case "batch shares artifacts" `Quick
          test_batch_shares_artifacts;
        Alcotest.test_case "lru eviction" `Quick test_eviction;
        Alcotest.test_case "backpressure" `Quick test_backpressure;
        Alcotest.test_case "deadline expiry" `Quick test_deadline;
        Alcotest.test_case "failure statuses" `Quick test_failures;
        Alcotest.test_case "pool semantics" `Quick test_pool_semantics;
        Alcotest.test_case "pool rejects a domain count below 1" `Quick
          test_pool_rejects_domain_count;
        Alcotest.test_case "workload mix" `Quick test_workload;
        Alcotest.test_case "proto round-trips" `Quick test_proto_roundtrip;
        Alcotest.test_case "proto typed optional fields" `Quick
          test_proto_typed_optional_fields;
        Alcotest.test_case "wire bytes identical" `Quick
          test_wire_bytes_identical;
        Alcotest.test_case "latency histograms" `Quick
          test_latency_histograms;
        qcheck hist_merge_partition_invariant;
        Alcotest.test_case "step_traced span groups" `Quick
          test_step_traced_groups;
        Alcotest.test_case "span groups render deterministically" `Quick
          test_span_groups_render_deterministically;
        Alcotest.test_case "daemon survives misbehaving clients" `Quick
          test_daemon_misbehaving_clients;
        Alcotest.test_case "daemon line framing" `Quick test_daemon_framing;
        Alcotest.test_case "daemon pipelined clients" `Quick
          test_daemon_pipelined_clients;
      ] );
  ]
