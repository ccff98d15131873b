(* Measurement plumbing shared by every workload: the monotonic clock,
   order statistics, the benchmark's own span recorder, process memory
   and GC counters, and the metric tables the result line is checked
   against.

   Spans are recorded here, around calls into the program's public
   layer functions — the program's own tracer stays off — so the
   per-layer numbers measure the code as users run it. *)

module Trace = Ggpu_obs.Trace
module Json = Ggpu_obs.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* Full measures; Smoke runs the same code paths at tiny sizes. *)
type scale = Full | Smoke

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] (the default exclusive
   method), so spreads printed here match the ones computed with it from
   the same values. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then (nan, nan, nan)
  else if len = 1 then (a.(0), a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile of an already sorted array. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Per-operation latencies in seconds: every one up to [capacity], then
   a uniform reservoir sample of them.  The harness's memory then does
   not grow with the program's speed, so peak_rss_mb measures the
   program; 65536 samples still put 655 beyond the p99. *)
module Samples = struct
  type t = { data : Float.Array.t; mutable seen : int; rng : Random.State.t }

  let capacity = 1 lsl 16

  let create () =
    { data = Float.Array.create capacity; seen = 0; rng = Random.State.make [| 1 |] }

  let add t v =
    if t.seen < capacity then Float.Array.set t.data t.seen v
    else begin
      let j = Random.State.int t.rng (t.seen + 1) in
      if j < capacity then Float.Array.set t.data j v
    end;
    t.seen <- t.seen + 1

  let count t = t.seen

  let sorted t =
    let a = Array.init (min t.seen capacity) (Float.Array.get t.data) in
    Array.sort Float.compare a;
    a
end

(* --- calibration --------------------------------------------------------- *)

(* The host is shared, and other tenants' memory traffic slows a run, or
   stretches of a few seconds within it, by up to 2x; CPU time moves
   with wall time, and compute-bound code barely slows at all.  So each
   operation's latency is also taken relative to this kernel, timed on
   the same CPU right before and right after the operation.  It is the
   benchmark's own code, so no change to the program moves it, and it
   does what the program does most: allocates short-lived values, hashes
   strings and walks hash buckets.  Of the candidates tried (a pointer
   chase, integer and float arithmetic, a Map build, this), it tracked
   the slowdowns of the flow and the simulator best: ~0.9 of their
   log-slowdown, against 0.5-0.7 for the chase and none for arithmetic. *)
module Calib = struct
  let table =
    let t = Hashtbl.create 4096 in
    for i = 0 to 4095 do
      Hashtbl.replace t (string_of_int (i * 7919)) i
    done;
    t

  let kernel () =
    let acc = ref 0 in
    for r = 0 to 63 do
      List.init 2000 (fun i -> (i * r, string_of_int (i * 7919 mod 40000)))
      |> List.iter (fun (a, k) ->
             match Hashtbl.find_opt table k with
             | Some v -> acc := !acc + v + a
             | None -> ())
    done;
    !acc

  (* Words the kernel has allocated, kept out of the GC metrics. *)
  let minor_words = ref 0.0

  (* Seconds one run of the kernel takes now. *)
  let time () =
    let w0 = Gc.minor_words () in
    let _, s = time (fun () -> Sys.opaque_identity (kernel ())) in
    minor_words := !minor_words +. (Gc.minor_words () -. w0);
    s
end

(* The latencies of a measured window, raw and relative to the
   calibration.  Operations are recorded in groups — one iteration, or
   one slice of a serve run drained of outstanding requests — and the
   kernel is timed after each group; a latency's calibration is the mean
   of the kernel's times before and after its group.

   [between] runs at each checkpoint, before the next group; when it
   returns true (it did work, such as a set-up probe) the kernel is timed
   again, so the next group is calibrated against its own neighbour.  Its
   time does not count in [measured_s]. *)
module Window = struct
  type t = {
    lat : Samples.t;  (* seconds *)
    rel : Samples.t;  (* latency / calibration *)
    mutable cal : float list;  (* every calibration time *)
    mutable last : float;
    between : unit -> bool;
    t0 : int;
    mutable paused_ns : int;
  }

  let start ~between =
    let c = Calib.time () in
    {
      lat = Samples.create ();
      rel = Samples.create ();
      cal = [ c ];
      last = c;
      between;
      t0 = now_ns ();
      paused_ns = 0;
    }

  let measured_s w = float_of_int (now_ns () - w.t0 - w.paused_ns) /. 1e9

  (* Record the [n] latencies of [group] and recalibrate. *)
  let checkpoint w group n =
    let c = Calib.time () in
    let mid = (w.last +. c) /. 2.0 in
    for i = 0 to n - 1 do
      let l = Float.Array.get group i in
      Samples.add w.lat l;
      Samples.add w.rel (l /. mid)
    done;
    w.cal <- c :: w.cal;
    let p0 = now_ns () in
    let c = if w.between () then Calib.time () else c in
    w.paused_ns <- w.paused_ns + (now_ns () - p0);
    w.last <- c

  let count w = Samples.count w.lat

  (* Raw latencies, relative latencies and calibration times, sorted. *)
  let results w = (Samples.sorted w.lat, Samples.sorted w.rel, sorted w.cal)
end

(* --- span recorder ------------------------------------------------------- *)

type recorder = {
  on : bool;
  mutable evs : Trace.event list;  (* newest first *)
  counts : (string, float) Hashtbl.t;
}

let recorder ~on = { on; evs = []; counts = Hashtbl.create 16 }

let push r ph name =
  r.evs <-
    { Trace.ph; name; ts_ns = now_ns (); dur_ns = 0; tid = 0; args = []; values = [] }
    :: r.evs

(* Record [name] around [f] when the recorder is on; nested calls become
   child spans, which is what makes self times add up. *)
let span r name f =
  if not r.on then f ()
  else begin
    push r Trace.Begin name;
    match f () with
    | v ->
        push r Trace.End name;
        v
    | exception e ->
        push r Trace.End name;
        raise e
  end

let count r name v =
  if r.on then
    Hashtbl.replace r.counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt r.counts name))

let counted r name = Option.value ~default:0.0 (Hashtbl.find_opt r.counts name)
let events r = List.rev r.evs
let counts r = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.counts []

(* --- what a workload hands main.ml ---------------------------------------- *)

type measured = {
  lat_s : float array;  (* per-operation seconds, sorted *)
  rel : float array;  (* per-operation latency / calibration, sorted *)
  cal_s : float array;  (* the window's calibration times, sorted *)
  wall_s : float;
  rss_mb : float;  (* peak resident set at a point fixed by the workload *)
  attempted : int;
  failed : int;
  problems : string list;  (* why operations failed *)
  exact : (string * float) list;  (* the run's values of the [exact] metrics *)
}

type traced = {
  events : Trace.event list;  (* spans of the replay, tid 0 *)
  ops : int;  (* operations the replay covered *)
  counts : (string * float) list;  (* work counted at the spans *)
  extra : (string * float) list;  (* per-layer metrics computed directly *)
  off_s : float;  (* the replay's wall time with the recorder off *)
  on_s : float;  (* and on *)
  mismatches : string list;  (* faithfulness and output-check failures *)
}

type session = {
  measure : seconds:float -> between:(unit -> bool) -> measured;
  traced : measured -> traced;
  teardown : unit -> unit;
}

(* --- process counters ---------------------------------------------------- *)

(* Peak resident set (VmHWM) in MB; falls back to the GC's top heap on
   systems without procfs. *)
let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.0))
        | _ -> scan ()
        | exception End_of_file -> None
      in
      scan ()
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words -. !Calib.minor_words;
    major_collections = s.Gc.major_collections;
  }

let gc_per_op mark ~ops =
  let now = gc_mark () in
  let ops = float_of_int (max 1 ops) in
  ( (now.minor_words -. mark.minor_words) /. 1e6 /. ops,
    float_of_int (now.major_collections - mark.major_collections) /. ops )

(* --- metric tables ------------------------------------------------------- *)

type better = Lower | Higher

(* [bound] is the share of the parent's median by which a metric may
   worsen before a change counts as a regression.  A change or a spread
   no wider than [floor], in the metric's own unit, is within bound
   whatever its share. *)
type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
  floor : float;
}

(* The end-to-end metrics, printed by every workload of an untraced run.
   BENCHMARK.json mirrors this table; `smoke` checks that the two agree.

   serve-cold sets up in 50-70 ms, and host noise spreads that median by
   7-39% over ten runs; the 0.1 s floor keeps those milliseconds from
   reading as a regression.

   Latency is gated relative to the calibration kernel (Calib), in
   "cal": 1 cal is the time one run of the kernel took around the
   operation.  Other tenants of the shared host slowed whole runs by up
   to 2x, which spread the raw lower-quartile latency of the same code by
   up to 37% over ten runs; the slowdown moves the kernel with the
   program, so the relative median spread by 1.4-7.6%.  Raw milliseconds
   are printed beside it. *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25; floor = 0.1 };
    { name = "latency_cal_p50"; unit_ = "cal"; better = Lower; bound = 0.25; floor = 0.0 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.15; floor = 0.0 };
  ]

(* paper-repro's deterministic outputs, gated exactly by `compare`: the
   Table III simulated-cycle sum and the mean relative error of the 12
   Table I areas against the paper.  They exist on one workload only, so
   BENCHMARK.json lists them with the per-layer metrics, which may read
   0, and a traced replay reports them from its composed outputs. *)
let exact =
  [
    { name = "ggpu_kcycles"; unit_ = "kcycles"; better = Lower; bound = 0.0; floor = 0.0 };
    { name = "area_err_pct"; unit_ = "%"; better = Lower; bound = 0.0; floor = 0.0 };
  ]

(* The per-layer metrics of a traced run, named after the modules they
   time, then the exact outputs.  Unbounded; a layer a workload does not
   reach reads 0. *)
let per_layer =
  List.map
    (fun (name, unit_, better) -> { name; unit_; better; bound = 0.0; floor = 0.0 })
    [
      ("fgpu.self_s", "s", Lower);
      ("fgpu.launches", "count", Lower);
      ("fgpu.wf_instructions", "count", Lower);
      ("fgpu.cycles", "count", Lower);
      ("fgpu.ns_per_wf_instr", "ns", Lower);
      ("kernels.compile_self_s", "s", Lower);
      ("kernels.compile_calls", "count", Lower);
      ("kernels.args_self_s", "s", Lower);
      ("kernels.check_self_s", "s", Lower);
      ("riscv.self_s", "s", Lower);
      ("riscv.ns_per_cycle", "ns", Lower);
      ("rtlgen.self_s", "s", Lower);
      ("dse.self_s", "s", Lower);
      ("dse.calls", "count", Lower);
      ("dse.iterations", "count", Lower);
      ("dse.sta_calls", "count", Lower);
      ("dse.sta_full", "count", Lower);
      ("synth.self_s", "s", Lower);
      ("layout.floorplan_self_s", "s", Lower);
      ("layout.place_self_s", "s", Lower);
      ("layout.post_timing_self_s", "s", Lower);
      ("layout.route_self_s", "s", Lower);
      ("pmu.self_s", "s", Lower);
      ("pmu.overhead_ratio", "ratio", Lower);
      ("serve.proto.us_per_req", "us", Lower);
      ("serve.engine.us_per_req", "us", Lower);
      ("serve.engine.queue_us_p50", "us", Lower);
      ("serve.engine.probe_us_p50", "us", Lower);
      ("serve.engine.execute_us_p50", "us", Lower);
      ("serve.daemon.residual_us_p50", "us", Lower);
      ("serve.cache.hit_ratio", "ratio", Higher);
      ("serve.cache.miss", "count", Lower);
      ("serve.cache.eviction", "count", Lower);
      ("serve.artifact.kernel_reuse_ratio", "ratio", Higher);
      ("serve.artifact.netlist_reuse_ratio", "ratio", Higher);
      ("serve.batch.mean_size", "requests", Higher);
      ("serve.queue.high_water", "count", Lower);
      ("gc.minor_mwords_per_op", "Mwords", Lower);
      ("gc.major_collections_per_op", "count", Lower);
      ("trace.overhead_ratio", "ratio", Lower);
      ("trace.residual_s", "s", Lower);
    ]
  @ exact

(* Span name -> the self-time metric it feeds. *)
let layer_spans =
  [
    ("fgpu", "fgpu.self_s");
    ("kernels.compile", "kernels.compile_self_s");
    ("kernels.args", "kernels.args_self_s");
    ("kernels.check", "kernels.check_self_s");
    ("riscv", "riscv.self_s");
    ("rtlgen", "rtlgen.self_s");
    ("dse", "dse.self_s");
    ("synth", "synth.self_s");
    ("layout.floorplan", "layout.floorplan_self_s");
    ("layout.place", "layout.place_self_s");
    ("layout.post_timing", "layout.post_timing_self_s");
    ("layout.route", "layout.route_self_s");
    ("pmu", "pmu.self_s");
    ("serve.proto", "serve.proto.us_per_req");
    ("serve.engine", "serve.engine.us_per_req");
  ]

let find_metric table name = List.find (fun m -> String.equal m.name name) table
let better_name = function Lower -> "lower" | Higher -> "higher"

(* --- the result line ----------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (* in table order *)
}

let result_json ~table r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Float v);
                     ("unit", Json.String (find_metric table name).unit_);
                   ] ))
             r.metrics) );
    ]

let result_of_json doc =
  let ( let* ) = Option.bind in
  let* correct =
    match Json.member "correct" doc with Some (Json.Bool b) -> Some b | _ -> None
  in
  let int key =
    match Json.member key doc with Some (Json.Int n) -> Some n | _ -> None
  in
  let* attempted = int "attempted" in
  let* failed = int "failed" in
  let* metrics =
    match Json.member "metrics" doc with
    | Some (Json.Obj kvs) ->
        Some
          (List.filter_map
             (fun (name, m) ->
               match Json.member "value" m with
               | Some (Json.Float v) -> Some (name, v)
               | Some (Json.Int v) -> Some (name, float_of_int v)
               | _ -> None)
             kvs)
    | _ -> None
  in
  Some { correct; attempted; failed; metrics }

(* Every metric of [table], in order, and nothing else. *)
let check_schema ~table r =
  List.map fst r.metrics = List.map (fun m -> m.name) table
  && r.attempted >= 1
  && r.failed >= 0
  && List.for_all (fun (_, v) -> Float.is_finite v) r.metrics
