(* The two service workloads: the planning daemon ([Daemon.run
   ~domains:1]) on a spawned domain, and a closed-loop load generator
   on the main domain over one Unix-socket connection — two domains per
   process.  Closed loops, because the service's callers (`client
   --replay`, DSE scripts) wait for each reply.

   serve-cold keeps one request outstanding over a seeded stream of
   distinct memo keys, so every request misses the result cache and the
   latency is the compute layers'.  serve-warm keeps 16 outstanding over
   the Workload.mix universe, pre-warmed during set-up, so every request
   hits and only the wire codec, the daemon loop and the cache probe
   work.

   The traced replay drives the same requests through the layers
   in-process: the Proto codec, the Engine, and (cold) the compute layer
   functions the engine's execute step calls. *)

module H = Harness
module Json = Ggpu_obs.Json
module Trace = Ggpu_obs.Trace
module Proto = Ggpu_serve.Proto
module Engine = Ggpu_serve.Engine
module Suite = Ggpu_kernels.Suite

(* --- one NDJSON connection ----------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;  (* bytes of a reply line not yet terminated *)
  out : Buffer.t;  (* request lines not yet written *)
}

let queue_line c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

let flush c =
  let s = Buffer.contents c.out in
  Buffer.clear c.out;
  let pos = ref 0 in
  while !pos < String.length s do
    pos := !pos + Unix.write_substring c.fd s !pos (String.length s - !pos)
  done

(* Block until at least one reply line is complete; return all of them. *)
let rec read_lines c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_lines c
  | 0 -> failwith "serve: the daemon closed the connection"
  | n ->
      let rec split start acc =
        match Bytes.index_from_opt c.chunk start '\n' with
        | Some i when i < n ->
            Buffer.add_subbytes c.partial c.chunk start (i - start);
            let line = Buffer.contents c.partial in
            Buffer.clear c.partial;
            split (i + 1) (line :: acc)
        | _ ->
            Buffer.add_subbytes c.partial c.chunk start (n - start);
            List.rev acc
      in
      (match split 0 [] with [] -> read_lines c | lines -> lines)

(* --- the daemon ---------------------------------------------------------- *)

type daemon = { domain : unit Domain.t; conn : conn }

external pin_to_current_cpu : unit -> int = "e2e_pin_to_current_cpu"

(* The load generator and the daemon share the CPU the process started
   on, so the numbers do not hinge on whether the host's scheduler
   grants the process one core or two.  Over ten interleaved seeds on a
   shared two-CPU host, serve-cold's lower-quartile latency spread 4% run
   to run pinned and 16% unpinned; serve-warm's spread the same either
   way (18% and 15% in that busy period). *)
let start_daemon ~socket =
  ignore (pin_to_current_cpu ());
  let domain =
    Domain.spawn (fun () -> Ggpu_serve.Daemon.run ~domains:1 ~socket ())
  in
  let t0 = H.now_ns () in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when H.seconds_since t0 < 10.0 ->
        Unix.close fd;
        Unix.sleepf 0.001;
        connect ()
  in
  let fd = connect () in
  {
    domain;
    conn =
      {
        fd;
        chunk = Bytes.create 65536;
        partial = Buffer.create 4096;
        out = Buffer.create 4096;
      };
  }

let control d c =
  queue_line d.conn (Proto.control_to_line c);
  flush d.conn;
  match read_lines d.conn with
  | [ line ] -> (
      match Json.parse line with Ok j -> j | Error e -> failwith ("serve: " ^ e))
  | _ -> failwith "serve: expected one control reply"

let stop_daemon d =
  ignore (control d Proto.Shutdown);
  Unix.close d.conn.fd;
  Domain.join d.domain

(* The daemon's registry through its public Telemetry control: every
   [counter]/[gauge] line of the exposition text. *)
let telemetry d =
  match Json.member "exposition" (control d Proto.Telemetry) with
  | Some (Json.String text) ->
      String.split_on_char '\n' text
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | [ ("counter" | "gauge"); name; v ] ->
                 Some (name, float_of_string v)
             | _ -> None)
  | _ -> failwith "serve: telemetry reply carried no exposition"

let read tel name = Option.value ~default:0.0 (List.assoc_opt name tel)
let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

let telemetry_metrics tel =
  let hits = read tel "serve.cache.hit" +. read tel "serve.cache.coalesced" in
  [
    ("serve.cache.hit_ratio", ratio hits (read tel "serve.cache.miss"));
    ("serve.cache.miss", read tel "serve.cache.miss");
    ("serve.cache.eviction", read tel "serve.cache.eviction");
    ( "serve.artifact.kernel_reuse_ratio",
      ratio (read tel "serve.kernel.reuse") (read tel "serve.kernel.compile") );
    ( "serve.artifact.netlist_reuse_ratio",
      ratio (read tel "serve.netlist.reuse") (read tel "serve.netlist.build") );
    ( "serve.batch.mean_size",
      read tel "serve.requests" /. Float.max 1.0 (read tel "serve.batches") );
    ("serve.queue.high_water", read tel "serve.queue.high_water");
  ]

(* --- the closed loop ----------------------------------------------------- *)

(* Keep [depth] requests outstanding until [stop ()] or [next] runs dry,
   then drain.  [next] yields a request line and the check its reply
   must pass; [record] gets each reply's latency in seconds and whether
   it passed.  Replies come back in request order on one connection; a
   request's latency runs from the write that carried it to the read
   that completed its reply. *)
let closed_loop c ~depth ~stop ~next ~record =
  let inflight = Queue.create () and unsent = Queue.create () in
  let stopped = ref false in
  let send () =
    if not !stopped then
      match next () with
      | Some (line, check) ->
          queue_line c line;
          Queue.push check unsent
      | None -> stopped := true
  in
  let flush_sent () =
    flush c;
    let t = H.now_ns () in
    Queue.iter (fun check -> Queue.push (t, check) inflight) unsent;
    Queue.clear unsent
  in
  for _ = 1 to depth do
    send ()
  done;
  flush_sent ();
  while not (Queue.is_empty inflight) do
    let lines = read_lines c in
    let t = H.now_ns () in
    List.iter
      (fun line ->
        let sent, check = Queue.pop inflight in
        record (float_of_int (t - sent) /. 1e9) (check line);
        if stop () then stopped := true;
        send ())
      lines;
    flush_sent ()
  done

let slice_s = 0.5
let slice_cap = 1 lsl 16

(* The measured closed loop: slices of [slice_s] seconds, each drained
   of outstanding requests and followed by a calibration checkpoint,
   until [seconds] pass or [next] runs dry. *)
let measured_loop c ~depth ~seconds ~between ~next =
  let w = H.Window.start ~between in
  let group = Float.Array.create slice_cap in
  let n = ref 0 and failed = ref 0 and dry = ref false in
  let next () =
    let item = next () in
    if Option.is_none item then dry := true;
    item
  in
  while (not !dry) && H.Window.measured_s w < seconds do
    let slice_end = H.now_ns () + int_of_float (slice_s *. 1e9) in
    n := 0;
    closed_loop c ~depth ~next
      ~stop:(fun () ->
        !n >= slice_cap - depth
        || H.now_ns () >= slice_end
        || H.Window.measured_s w >= seconds)
      ~record:(fun dt ok ->
        Float.Array.set group !n dt;
        incr n;
        if not ok then incr failed);
    H.Window.checkpoint w group !n
  done;
  let lat_s, rel, cal_s = H.Window.results w in
  {
    H.lat_s;
    rel;
    cal_s;
    wall_s = H.Window.measured_s w;
    rss_mb = H.peak_rss_mb ();
    attempted = H.Window.count w;
    failed = !failed;
    problems =
      (if !failed > 0 then [ Printf.sprintf "%d replies failed their check" !failed ]
       else []);
    exact = [];
  }

let list_source items f =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some (f x)

let key_of req =
  match Engine.key_of_request req with
  | Ok key -> key
  | Error e -> failwith ("serve: " ^ e)

(* A reply passes when it is Done with the expected cache flag and key,
   and its payload says the simulated output matched the reference
   (synth payloads carry no output to check). *)
let check_reply ~key ~cached line =
  match Proto.response_of_line line with
  | Error _ -> None
  | Ok resp ->
      let payload_ok =
        match Proto.result_json resp with
        | None -> false
        | Some j -> (
            match (Json.member "kind" j, Json.member "correct" j) with
            | Some (Json.String "synth"), None -> true
            | _, Some (Json.Bool b) -> b
            | _ -> false)
      in
      if
        resp.Proto.status = Proto.Done
        && resp.Proto.cached = cached
        && String.equal resp.Proto.key (Ggpu_serve.Key.hash_hex key)
        && payload_ok
      then Some resp
      else None

(* Serve every item once; the number of failed checks. *)
let serve_once c ~depth items f =
  let failed = ref 0 in
  closed_loop c ~depth
    ~stop:(fun () -> false)
    ~next:(list_source items f)
    ~record:(fun _ ok -> if not ok then incr failed);
  !failed

let rec split_at n = function
  | x :: rest when n > 0 ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)
  | rest -> ([], rest)

(* --- the in-process replay ----------------------------------------------- *)

type engine_stats = {
  us_per_req : float;
  queue_us_p50 : float;
  probe_us_p50 : float;
  execute_us_p50 : float;
  latency_us_p50 : float;  (* submit to step return, per request *)
}

(* [reqs] through a fresh Engine in batches of [depth], after [prime]:
   the Proto codec on both sides of each request and the engine's
   submit/step between them, one "op" span per batch.  Returns the
   engine's per-stage times (from its own span groups), the responses,
   and the wall time of the batches. *)
let engine_replay r ~depth ~prime reqs =
  let eng = Engine.create () in
  ignore (Engine.process eng prime);
  let lat = ref [] and queue = ref [] and probe = ref [] and exec = ref [] in
  let busy_ns = ref 0 in
  let rec batches acc = function
    | [] -> List.rev acc
    | reqs ->
        let batch, rest = split_at depth reqs in
        let resps =
          H.span r "op" @@ fun () ->
          List.iter
            (fun req ->
              H.span r "serve.proto" @@ fun () ->
              ignore (Proto.incoming_of_line (Proto.request_to_line req)))
            batch;
          let t0 = H.now_ns () in
          let tels =
            H.span r "serve.engine" @@ fun () ->
            List.iter (fun req -> ignore (Engine.submit eng req)) batch;
            Engine.step_traced eng
          in
          let dt = H.now_ns () - t0 in
          busy_ns := !busy_ns + dt;
          List.map
            (fun { Engine.resp; spans } ->
              lat := float_of_int dt :: !lat;
              List.iter
                (fun (ev : Trace.event) ->
                  let dur = float_of_int ev.Trace.dur_ns in
                  match ev.Trace.name with
                  | "serve.queue" -> queue := dur :: !queue
                  | "serve.probe" -> probe := dur :: !probe
                  | "serve.execute" -> exec := dur :: !exec
                  | _ -> ())
                spans;
              H.span r "serve.proto" @@ fun () ->
              ignore (Proto.response_of_line (Proto.response_to_line resp));
              resp)
            tels
        in
        batches (List.rev_append resps acc) rest
  in
  let t0 = H.now_ns () in
  let resps = batches [] reqs in
  let wall = H.seconds_since t0 in
  let us_p50 xs = if xs = [] then 0.0 else H.median xs /. 1e3 in
  ( {
      us_per_req =
        float_of_int !busy_ns /. 1e3 /. float_of_int (max 1 (List.length reqs));
      queue_us_p50 = us_p50 !queue;
      probe_us_p50 = us_p50 !probe;
      execute_us_p50 = us_p50 !exec;
      latency_us_p50 = us_p50 !lat;
    },
    resps,
    wall )

let engine_metrics (m : H.measured) st =
  [
    ("serve.engine.us_per_req", st.us_per_req);
    ("serve.engine.queue_us_p50", st.queue_us_p50);
    ("serve.engine.probe_us_p50", st.probe_us_p50);
    ("serve.engine.execute_us_p50", st.execute_us_p50);
    ( "serve.daemon.residual_us_p50",
      (H.median (Array.to_list m.H.lat_s) *. 1e6) -. st.latency_us_p50 );
  ]

let socket_path ~out_dir =
  Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* --- serve-cold ---------------------------------------------------------- *)

let kernel_names = List.map (fun (w : Suite.t) -> w.Suite.name) Suite.all

(* Set-up traffic: one small launch per kernel and one synthesis per CU
   count fill the engine's compilation and base-netlist LRUs — the
   steady state of a long-running daemon — with keys the cold stream
   never draws. *)
let warmup_requests () =
  List.mapi
    (fun i kernel ->
      Proto.mk_request ~id:(i + 1) (Proto.Sim { kernel; cus = 1; size = 32 }))
    kernel_names
  @ List.map
      (fun cus ->
        Proto.mk_request ~id:(100 + cus) (Proto.Synth { cus; freq_mhz = 250 }))
      [ 1; 2; 4 ]

(* A seeded stream of distinct memo keys in Workload.mix's 5:3:2
   sim:synth:perf proportions, with CU counts {1,2,4}, sizes up to 1024
   and synth targets of 300-667 MHz in both technologies.  There are
   2208 synth keys — a 20-second run at ~230 requests/s draws ~1400 —
   and once they run out a synth slot takes a sim key instead.

   Every block of ten requests holds exactly five sims, three synths
   and two perfs in a seeded order; kernels, CU counts and technologies
   rotate; sizes and frequencies follow golden-ratio sequences from
   seeded offsets.  So any seed spreads the same work evenly over the
   parameter space — a sim of xcorr at 1024 work-items costs ~500x one
   at 64 — and a run's cost does not hinge on how many large launches
   its seed happened to draw. *)
let cold_stream ~(scale : H.scale) ~seed ~exclude =
  let rng = Random.State.make [| seed |] in
  let lo, hi = match scale with Full -> (64, 1024) | Smoke -> (16, 128) in
  (* 64-bit key hashes, so the table stays small however fast the
     daemon drains the stream *)
  let seen = Hashtbl.create 8192 in
  let hash = Ggpu_serve.Key.fnv1a64 in
  List.iter (fun k -> Hashtbl.replace seen (hash k) ()) exclude;
  let golden = 0.6180339887498949 in
  (* one counter and one sequence offset per stream of parameters *)
  let streams = Hashtbl.create 32 in
  let step name =
    let k, offset =
      match Hashtbl.find_opt streams name with
      | Some s -> s
      | None -> (0, Random.State.float rng 1.0)
    in
    Hashtbl.replace streams name (k + 1, offset);
    (k, Float.rem (offset +. (float_of_int k *. golden)) 1.0)
  in
  let nth name xs = List.nth xs (fst (step name) mod List.length xs) in
  let spread name ~lo ~hi =
    lo + int_of_float (snd (step name) *. float_of_int (hi - lo + 1))
  in
  let block = [| `Sim; `Sim; `Sim; `Sim; `Sim; `Synth; `Synth; `Synth; `Perf; `Perf |] in
  let slot = ref (Array.length block) in
  let next_kind () =
    if !slot = Array.length block then begin
      for i = Array.length block - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = block.(i) in
        block.(i) <- block.(j);
        block.(j) <- t
      done;
      slot := 0
    end;
    incr slot;
    block.(!slot - 1)
  in
  let id = ref 0 in
  let draw kind =
    match kind with
    | `Synth ->
        let tech = nth "synth.tech" [ "65nm"; "28nm" ] in
        let cus = nth "synth.cus" [ 1; 2; 4 ] in
        let freq_mhz = spread ("synth.freq." ^ tech) ~lo:300 ~hi:667 in
        Proto.mk_request ~tech ~id:!id (Proto.Synth { cus; freq_mhz })
    | (`Sim | `Perf) as kind ->
        let name = if kind = `Sim then "sim" else "perf" in
        let kernel = nth (name ^ ".kernel") kernel_names in
        let cus = nth (name ^ ".cus." ^ kernel) [ 1; 2; 4 ] in
        let size = spread (name ^ ".size." ^ kernel) ~lo ~hi in
        Proto.mk_request ~id:!id
          (if kind = `Sim then Proto.Sim { kernel; cus; size }
           else Proto.Perf { kernel; cus; size })
  in
  let rec fresh kind tries =
    if tries = 0 then if kind = `Synth then fresh `Sim 1000 else None
    else
      let req = draw kind in
      let key = key_of req in
      if Hashtbl.mem seen (hash key) then fresh kind (tries - 1)
      else begin
        Hashtbl.replace seen (hash key) ();
        Some (req, key)
      end
  in
  fun () ->
    incr id;
    fresh (next_kind ()) 100

(* The engine's execute step for one request, through the layer
   functions; returns mismatches against the daemon's reply. *)
let compose_cold r ~compiled ~bases (req : Proto.request) (resp : Proto.response) =
  let payload = Option.get (Proto.result_json resp) in
  let num name j =
    match Json.member name j with
    | Some (Json.Int n) -> float_of_int n
    | Some (Json.Float f) -> f
    | _ -> nan
  in
  let expect what composed reported =
    if composed = reported then []
    else [ Printf.sprintf "request %d: %s" req.Proto.id what ]
  in
  match req.Proto.kind with
  | Proto.Synth { cus; freq_mhz } ->
      let tech = Option.get (Engine.tech_of_name req.Proto.tech) in
      let _, report =
        Flow_work.synthesise r ~tech ~base:(Hashtbl.find bases cus)
          (Ggpu_core.Spec.make ~num_cus:cus ~freq_mhz ())
      in
      expect "synth area (rtlgen/dse/synth)"
        report.Ggpu_synth.Report.total_area_mm2 (num "area_mm2" payload)
      @ expect "synth fmax (dse)" report.Ggpu_synth.Report.fmax_mhz
          (num "fmax_mhz" payload)
  | Proto.Sim { kernel; cus; size } | Proto.Perf { kernel; cus; size } ->
      let w = Suite.find kernel in
      let size = w.Suite.round_size (max 1 size) in
      let compiled = Hashtbl.find compiled kernel in
      let program = compiled.Ggpu_kernels.Codegen_fgpu.code in
      let pmu =
        match req.Proto.kind with
        | Proto.Perf _ ->
            Some
              (H.span r "pmu" @@ fun () ->
               Ggpu_pmu.Pmu.create ~stride:Engine.default_config.Engine.pmu_stride
                 ~num_cus:cus ~prog_len:(Array.length program) ())
        | _ -> None
      in
      let res, ok = Flow_work.fgpu_launch r ?pmu w ~size ~num_cus:cus compiled in
      let cycles = float_of_int res.Ggpu_kernels.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles in
      let stats = Option.value ~default:Json.Null (Json.member "stats" payload) in
      (if ok then [] else [ Printf.sprintf "request %d: output check" req.Proto.id ])
      @ expect "sim cycles (fgpu)" cycles (num "cycles" stats)
      @
      match pmu with
      | None -> []
      | Some c ->
          let summary =
            H.span r "pmu" @@ fun () -> Ggpu_pmu.Pmu.summarize c ~program
          in
          expect "perf cycles (pmu)"
            (float_of_int summary.Ggpu_pmu.Pmu.s_cycles)
            (num "cycles" payload)

(* The collector's cost on the sample's perf launches: each runs with
   and without it, back to back. *)
let pmu_overhead ~compiled sample =
  let r = H.recorder ~on:false in
  let with_ns = ref 0 and without_ns = ref 0 in
  List.iter
    (fun ((req : Proto.request), _) ->
      match req.Proto.kind with
      | Proto.Perf { kernel; cus; size } ->
          let w = Suite.find kernel in
          let size = w.Suite.round_size (max 1 size) in
          let compiled = Hashtbl.find compiled kernel in
          let run pmu =
            let t0 = H.now_ns () in
            ignore (Flow_work.fgpu_launch r ?pmu w ~size ~num_cus:cus compiled);
            H.now_ns () - t0
          in
          let pmu =
            Ggpu_pmu.Pmu.create ~stride:Engine.default_config.Engine.pmu_stride
              ~num_cus:cus
              ~prog_len:(Array.length compiled.Ggpu_kernels.Codegen_fgpu.code)
              ()
          in
          with_ns := !with_ns + run (Some pmu);
          without_ns := !without_ns + run None
      | _ -> ())
    sample;
  if !without_ns = 0 then 0.0
  else float_of_int !with_ns /. float_of_int !without_ns

let cold ~scale ~seed ~out_dir =
  let d = start_daemon ~socket:(socket_path ~out_dir) in
  let warmup = warmup_requests () in
  if
    serve_once d.conn ~depth:1 warmup (fun req ->
        ( Proto.request_to_line req,
          fun line ->
            Option.is_some (check_reply ~key:(key_of req) ~cached:false line) ))
    > 0
  then failwith "serve-cold: a warm-up request failed";
  let next = cold_stream ~scale ~seed ~exclude:(List.map key_of warmup) in
  let replay_n, rss_after =
    match scale with H.Full -> (200, 2000) | Smoke -> (20, 100)
  in
  (* the first requests of the run and their replies, for the replay *)
  let sample = ref [] and answered = ref 0 in
  (* Every cold reply adds a result-cache entry, so the peak resident set
     is read after a fixed number of requests: a faster daemon serving
     more requests in the same seconds must not read as a larger one. *)
  let rss_mb = ref None in
  let tel = ref [] in
  let measure ~seconds ~between =
    let m =
      measured_loop d.conn ~depth:1 ~seconds ~between ~next:(fun () ->
          Option.map
            (fun (req, key) ->
              ( Proto.request_to_line req,
                fun line ->
                  incr answered;
                  if !answered = rss_after then rss_mb := Some (H.peak_rss_mb ());
                  match check_reply ~key ~cached:false line with
                  | None -> false
                  | Some resp ->
                      if !answered <= replay_n then sample := (req, resp) :: !sample;
                      true ))
            (next ()))
    in
    tel := telemetry d;
    let hits = read !tel "serve.cache.hit" in
    {
      m with
      H.rss_mb = Option.value !rss_mb ~default:m.H.rss_mb;
      problems =
        (m.H.problems
        @
        if hits > 0.0 then [ Printf.sprintf "%.0f cache hits on distinct cold keys" hits ]
        else []);
    }
  in
  let traced m =
    let sample = List.rev !sample in
    (* the artifacts the daemon's LRUs held after set-up *)
    let compiled = Hashtbl.create 8 and bases = Hashtbl.create 4 in
    List.iter
      (fun ((req : Proto.request), _) ->
        match req.Proto.kind with
        | Proto.Synth { cus; _ } ->
            if not (Hashtbl.mem bases cus) then
              Hashtbl.add bases cus
                (Ggpu_rtlgen.Generate.generate_cus ~num_cus:cus)
        | Proto.Sim { kernel; _ } | Proto.Perf { kernel; _ } ->
            if not (Hashtbl.mem compiled kernel) then
              Hashtbl.add compiled kernel
                (Ggpu_kernels.Codegen_fgpu.compile (Suite.find kernel).Suite.kernel))
      sample;
    let replay r =
      H.time @@ fun () ->
      List.concat_map
        (fun ((req : Proto.request), resp) ->
          H.span r "op" @@ fun () ->
          H.span r "serve.proto" (fun () ->
              ignore (Proto.incoming_of_line (Proto.request_to_line req)));
          let mismatches = compose_cold r ~compiled ~bases req resp in
          H.span r "serve.proto" (fun () ->
              ignore (Proto.response_of_line (Proto.response_to_line resp)));
          mismatches)
        sample
    in
    let _, off_s = replay (H.recorder ~on:false) in
    let r = H.recorder ~on:true in
    let mismatches, on_s = replay r in
    let st, resps, _ =
      engine_replay (H.recorder ~on:false) ~depth:1 ~prime:warmup
        (List.map fst sample)
    in
    let engine_mismatches =
      List.concat
        (List.map2
           (fun (_, (daemon : Proto.response)) (resp : Proto.response) ->
             if String.equal resp.Proto.result daemon.Proto.result then []
             else [ Printf.sprintf "request %d: engine payload" daemon.Proto.id ])
           sample resps)
    in
    {
      H.events = H.events r;
      ops = List.length sample;
      counts = H.counts r;
      extra =
        telemetry_metrics !tel @ engine_metrics m st
        @ [ ("pmu.overhead_ratio", pmu_overhead ~compiled sample) ];
      off_s;
      on_s;
      mismatches = mismatches @ engine_mismatches;
    }
  in
  { H.measure; traced; teardown = (fun () -> stop_daemon d) }

(* --- serve-warm ---------------------------------------------------------- *)

let warm ~scale ~seed ~out_dir =
  let d = start_daemon ~socket:(socket_path ~out_dir) in
  let cycle =
    Array.of_list
      (Ggpu_serve.Workload.mix ~seed
         ~n:(match scale with H.Full -> 8192 | Smoke -> 512)
         ())
  in
  let keys = Array.map key_of cycle in
  let lines = Array.map Proto.request_to_line cycle in
  (* pre-warm: the first request of every key in the cycle *)
  let first_bytes = Hashtbl.create 128 in
  let distinct =
    List.filter_map
      (fun i ->
        if Hashtbl.mem first_bytes keys.(i) then None
        else begin
          Hashtbl.add first_bytes keys.(i) "";
          Some cycle.(i)
        end)
      (List.init (Array.length cycle) Fun.id)
  in
  if
    serve_once d.conn ~depth:16 distinct (fun req ->
        let key = key_of req in
        ( Proto.request_to_line req,
          fun line ->
            match check_reply ~key ~cached:false line with
            | Some resp ->
                Hashtbl.replace first_bytes key resp.Proto.result;
                true
            | None -> false ))
    > 0
  then failwith "serve-warm: a pre-warm request failed";
  (* one verified pass over the cycle: every reply a hit carrying the
     first bytes of its key; the reply lines become the bytes the
     measured loop expects *)
  let expected = Array.make (Array.length cycle) "" in
  if
    serve_once d.conn ~depth:16
      (List.init (Array.length cycle) Fun.id)
      (fun i ->
        ( lines.(i),
          fun line ->
            match check_reply ~key:keys.(i) ~cached:true line with
            | Some resp
              when String.equal resp.Proto.result
                     (Hashtbl.find first_bytes keys.(i)) ->
                expected.(i) <- line;
                true
            | _ -> false ))
    > 0
  then failwith "serve-warm: a warm reply differed from its cold bytes";
  let tel = ref [] in
  let measure ~seconds ~between =
    let i = ref 0 in
    let m =
      measured_loop d.conn ~depth:16 ~seconds ~between ~next:(fun () ->
          let k = !i mod Array.length cycle in
          incr i;
          Some (lines.(k), fun line -> String.equal line expected.(k)))
    in
    tel := telemetry d;
    m
  in
  let traced m =
    let sample =
      List.init (min (Array.length cycle) 4096) (fun i -> cycle.(i))
    in
    let replay r = engine_replay r ~depth:16 ~prime:distinct sample in
    let _, _, off_s = replay (H.recorder ~on:false) in
    let r = H.recorder ~on:true in
    let st, resps, on_s = replay r in
    let mismatches =
      List.concat
        (List.mapi
           (fun i (resp : Proto.response) ->
             if String.equal resp.Proto.result (Hashtbl.find first_bytes keys.(i))
             then []
             else [ Printf.sprintf "request %d: engine payload" resp.Proto.id ])
           resps)
    in
    {
      H.events = H.events r;
      ops = List.length sample;
      counts = H.counts r;
      extra = telemetry_metrics !tel @ engine_metrics m st;
      off_s;
      on_s;
      mismatches;
    }
  in
  { H.measure; traced; teardown = (fun () -> stop_daemon d) }
