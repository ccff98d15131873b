(* End-to-end benchmark of GPUPlanner.

   One workload per process:
     main.exe --workload W --seed N --seconds S --trace 0|1
   measures W for S seconds and prints, as its last stdout line, one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics of Harness.end_to_end untraced, or the per-layer metrics of
   Harness.per_layer from a traced replay.  Subcommands:
     run      every workload in its own child process, a summary, and
              optionally the runs as a JSON file for [compare]
     compare  two such files, metric by metric, against the bounds
     smoke    every workload at tiny sizes: outputs and schema only
   See README.md for the workloads, the metrics and their bounds. *)

module H = Harness
module Json = Ggpu_obs.Json
module Trace = Ggpu_obs.Trace
module Profile = Ggpu_obs.Profile

(* --- workloads ----------------------------------------------------------- *)

(* A closed loop of whole iterations, each checked to reproduce the
   first one's outputs byte for byte.  [exact] gives an iteration's
   values of the Harness.exact metrics. *)
let iterations ~untraced ~composed ~mismatches ~exact ~scale =
  let first = untraced scale in
  let reference = Flow_work.digest first in
  let last = ref first in
  let measure ~seconds ~between =
    let w = H.Window.start ~between and failed = ref 0 in
    let group = Float.Array.create 1 in
    while H.Window.measured_s w < seconds || H.Window.count w = 0 do
      let out, dt = H.time (fun () -> untraced scale) in
      Float.Array.set group 0 dt;
      H.Window.checkpoint w group 1;
      if not (String.equal (Flow_work.digest out) reference) then incr failed;
      last := out
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
        (if !failed > 0 then
           [ Printf.sprintf "%d iterations differ from the first" !failed ]
         else []);
      exact = exact first;
    }
  in
  let traced _ =
    let replay on =
      let r = H.recorder ~on in
      let out, s = H.time (fun () -> H.span r "op" (fun () -> composed r scale)) in
      (r, out, s)
    in
    let _, _, off_s = replay false in
    let r, out, on_s = replay true in
    let check_failures = H.counted r "check.failures" in
    {
      H.events = H.events r;
      ops = 1;
      counts = H.counts r;
      extra = exact out;
      off_s;
      on_s;
      mismatches =
        mismatches !last out
        @
        if check_failures > 0.0 then
          [ Printf.sprintf "%.0f launches differ from Suite.expected" check_failures ]
        else [];
    }
  in
  { H.measure; traced; teardown = ignore }

let paper_repro ~scale ~seed:_ ~out_dir:_ =
  iterations ~scale ~untraced:Flow_work.paper_untraced
    ~composed:Flow_work.paper_composed ~mismatches:Flow_work.paper_mismatches
    ~exact:(fun (p : Flow_work.paper) ->
      [
        ("ggpu_kcycles", Flow_work.ggpu_kcycles p);
        ("area_err_pct", Flow_work.table1_area_err_pct p.Flow_work.table1);
      ])

let flow_scaling ~scale ~seed:_ ~out_dir:_ =
  iterations ~scale ~untraced:Flow_work.scaling_untraced
    ~composed:Flow_work.scaling_composed
    ~mismatches:(Flow_work.physical_mismatches "scaling versions")
    ~exact:(fun _ -> [])

let workloads =
  [
    ("paper-repro", paper_repro);
    ("flow-scaling", flow_scaling);
    ("serve-cold", Serve_work.cold);
    ("serve-warm", Serve_work.warm);
  ]

let workload_names = List.map fst workloads

(* --- one workload, in this process --------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Set-up time of a fresh process: start, module initialisation, the
   workload's set-up and tear-down, exit.  Several are taken per run and
   the median is reported. *)
let setup_probe ~name ~seed ~out_dir ~smoke =
  let args =
    [ Sys.executable_name; "setup"; "--workload"; name; "--seed";
      string_of_int seed; "--out-dir"; out_dir ]
    @ if smoke then [ "--smoke" ] else []
  in
  let t0 = H.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Some (H.seconds_since t0)
  | _ -> None

let floats_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let print_line ~workload name value unit_ n =
  Printf.printf "%-13s %-34s %14.6g %-8s (n=%d)\n" workload name value unit_ n

(* The quartiles of a run's latencies (relative or raw) or calibration
   times, and the highest percentile with at least ten samples beyond it
   (none above the median for runs of a few dozen iterations).  Shown,
   not gated: on a shared machine the tail of one run moves more than
   any bound worth keeping. *)
let print_latency_spread ~workload ~label ~scale lat =
  let n = Array.length lat in
  let q1, q2, q3 = H.quartiles (Array.to_list lat) in
  let tail =
    List.fold_left
      (fun acc q -> if float_of_int n *. (1.0 -. q) >= 10.0 then Some q else acc)
      None [ 0.5; 0.9; 0.99; 0.999 ]
  in
  Printf.printf "%-13s %s q1 %.6g median %.6g q3 %.6g%s (n=%d)\n" workload label
    (scale *. q1) (scale *. q2) (scale *. q3)
    (match tail with
    | Some q when q > 0.5 ->
        Printf.sprintf " p%g %.6g" (100.0 *. q) (scale *. H.percentile lat q)
    | _ -> "")
    n

let end_to_end_metrics (m : H.measured) ~setups =
  [
    ("setup_s", H.median setups, List.length setups);
    ("latency_cal_p50", H.percentile m.H.rel 0.5, Array.length m.H.rel);
    ("peak_rss_mb", m.H.rss_mb, 1);
  ]

let layer_metrics (m : H.measured) (t : H.traced) ~gc =
  let rows = Profile.self_times t.H.events in
  let ops = float_of_int (max 1 t.H.ops) in
  let row name =
    List.find_opt (fun (r : Profile.row) -> String.equal r.Profile.name name) rows
  in
  let self_s name =
    match row name with
    | Some r -> float_of_int r.Profile.self_ns /. 1e9 /. ops
    | None -> 0.0
  in
  let calls name =
    match row name with
    | Some r -> float_of_int r.Profile.calls /. ops
    | None -> 0.0
  in
  let counted name =
    Option.value ~default:0.0 (List.assoc_opt name t.H.counts) /. ops
  in
  let per name ~self ~scale = if counted name > 0.0 then self *. scale /. counted name else 0.0 in
  let from_spans =
    List.map
      (fun (span, metric) ->
        let us = (H.find_metric H.per_layer metric).H.unit_ = "us" in
        (metric, if us then 1e6 *. self_s span else self_s span))
      H.layer_spans
  in
  let layer_sum =
    List.fold_left (fun acc (span, _) -> acc +. self_s span) 0.0 H.layer_spans
  in
  let mean_op =
    Array.fold_left ( +. ) 0.0 m.H.lat_s /. float_of_int (Array.length m.H.lat_s)
  in
  let minor, major = gc in
  let derived =
    [
      ("fgpu.launches", calls "fgpu");
      ("fgpu.wf_instructions", counted "fgpu.wf_instructions");
      ("fgpu.cycles", counted "fgpu.cycles");
      ("fgpu.ns_per_wf_instr", per "fgpu.wf_instructions" ~self:(self_s "fgpu") ~scale:1e9);
      ("kernels.compile_calls", calls "kernels.compile");
      ("riscv.ns_per_cycle", per "riscv.cycles" ~self:(self_s "riscv") ~scale:1e9);
      ("dse.calls", calls "dse");
      ("dse.iterations", counted "dse.iterations");
      ("dse.sta_calls", counted "dse.sta_calls");
      ("dse.sta_full", counted "dse.sta_full");
      ("gc.minor_mwords_per_op", minor);
      ("gc.major_collections_per_op", major);
      ("trace.overhead_ratio", t.H.on_s /. t.H.off_s);
      ("trace.residual_s", mean_op -. layer_sum);
    ]
  in
  (* a workload's own value of a metric wins over the span-derived one *)
  let all = t.H.extra @ from_spans @ derived in
  ( List.map
      (fun (mt : H.metric) ->
        (mt.H.name, Option.value ~default:0.0 (List.assoc_opt mt.H.name all)))
      H.per_layer,
    (rows, layer_sum, mean_op) )

let print_layer_table ~workload (rows, layer_sum, mean_op) ~ops =
  Printf.printf "%s layers (self time per operation, %d operation(s) replayed):\n"
    workload ops;
  List.iter
    (fun (span, _) ->
      match
        List.find_opt
          (fun (r : Profile.row) -> String.equal r.Profile.name span)
          rows
      with
      | Some r ->
          let s = float_of_int r.Profile.self_ns /. 1e9 /. float_of_int ops in
          Printf.printf "  %-22s %12.6f s %6.1f%%  (%d calls)\n" span s
            (100.0 *. s /. mean_op) r.Profile.calls
      | None -> ())
    H.layer_spans;
  Printf.printf "  %-22s %12.6f s %6.1f%%  (untraced mean minus the layers)\n"
    "residual" (mean_op -. layer_sum)
    (100.0 *. (mean_op -. layer_sum) /. mean_op)

let bench_one ~name ~scale ~seed ~seconds ~trace ~out_dir ~setup_reps =
  mkdir_p out_dir;
  let smoke = scale = H.Smoke in
  let setup = List.assoc name workloads in
  let session = setup ~scale ~seed ~out_dir in
  (* The set-up probes are spread over the measured window — probe k at
     the first checkpoint past k/setup_reps of it — so their median
     samples the host over the whole run, not over its first seconds.
     Any still due run after it. *)
  let probes = ref [] and probe_ns = ref 0 and t0 = H.now_ns () in
  let probe () =
    let p0 = H.now_ns () in
    probes := setup_probe ~name ~seed ~out_dir ~smoke :: !probes;
    probe_ns := !probe_ns + (H.now_ns () - p0)
  in
  let between () =
    let done_ = List.length !probes in
    let elapsed = float_of_int (H.now_ns () - t0 - !probe_ns) /. 1e9 in
    done_ < setup_reps
    && elapsed >= seconds *. float_of_int done_ /. float_of_int setup_reps
    && (probe (); true)
  in
  let gc0 = H.gc_mark () in
  let m = session.H.measure ~seconds ~between in
  let gc = H.gc_per_op gc0 ~ops:m.H.attempted in
  while List.length !probes < setup_reps do
    probe ()
  done;
  let setups = List.filter_map Fun.id !probes in
  (* all digits: `run` reads this line back for `compare` *)
  if m.H.exact <> [] then
    Printf.printf "%s exact %s\n" name (Json.to_string (floats_json m.H.exact));
  let problems =
    m.H.problems
    @ if List.length setups < setup_reps then [ "a set-up process failed" ] else []
  in
  let result =
    if not trace then begin
      let metrics = end_to_end_metrics m ~setups in
      List.iter
        (fun (metric, v, n) ->
          print_line ~workload:name metric v (H.find_metric H.end_to_end metric).H.unit_ n)
        metrics;
      print_latency_spread ~workload:name ~label:"latency_cal" ~scale:1.0 m.H.rel;
      print_latency_spread ~workload:name ~label:"latency_ms" ~scale:1e3 m.H.lat_s;
      print_latency_spread ~workload:name ~label:"calibration_ms" ~scale:1e3 m.H.cal_s;
      print_line ~workload:name "throughput_per_s"
        (float_of_int m.H.attempted /. m.H.wall_s)
        "1/s" m.H.attempted;
      {
        H.correct = problems = [];
        attempted = m.H.attempted;
        failed = m.H.failed;
        metrics = List.map (fun (k, v, _) -> (k, v)) metrics;
      }
    end
    else begin
      let t = session.H.traced m in
      let path = Filename.concat out_dir ("trace-" ^ name ^ ".json") in
      let oc = open_out path in
      output_string oc (Json.to_string (Trace.events_to_json t.H.events));
      close_out oc;
      let trace_problems =
        match Trace.validate_file path with
        | Ok s ->
            Printf.printf "%s trace %s: %s\n" name path
              (Format.asprintf "%a" Trace.pp_summary s);
            []
        | Error e -> [ "trace does not validate: " ^ e ]
      in
      let metrics, table = layer_metrics m t ~gc in
      print_layer_table ~workload:name table ~ops:t.H.ops;
      List.iter
        (fun (metric, v) ->
          print_line ~workload:name metric v (H.find_metric H.per_layer metric).H.unit_
            t.H.ops)
        metrics;
      (match t.H.mismatches with
      | [] -> Printf.printf "%s faithfulness: composed layers reproduce every output\n" name
      | ms -> List.iter (Printf.printf "%s faithfulness: MISMATCH %s\n" name) ms);
      let failed = m.H.failed + List.length t.H.mismatches in
      {
        H.correct = problems = [] && trace_problems = [] && t.H.mismatches = [];
        attempted = m.H.attempted + t.H.ops;
        failed = min failed (m.H.attempted + t.H.ops);
        metrics;
      }
    end
  in
  session.H.teardown ();
  List.iter (Printf.printf "%s problem: %s\n" name) problems;
  let table = if trace then H.per_layer else H.end_to_end in
  let result =
    if H.check_schema ~table result then result
    else
      {
        result with
        H.correct = false;
        metrics =
          List.map
            (fun (k, v) -> (k, if Float.is_finite v then v else 0.0))
            result.H.metrics;
      }
  in
  Printf.printf "%s fail_ratio %.6g (%d of %d)\n" name
    (float_of_int result.H.failed /. float_of_int (max 1 result.H.attempted))
    result.H.failed result.H.attempted;
  print_endline (Json.to_string (H.result_json ~table result));
  result

(* --- run: every workload in its own process ------------------------------- *)

type run = {
  workload : string;
  seed : int;
  trace : bool;
  result : H.result;
  exact : (string * float) list;  (* values of the Harness.exact metrics *)
}

let floats_of_json = function
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Float f -> Some (k, f)
          | Json.Int n -> Some (k, float_of_int n)
          | _ -> None)
        kvs
  | _ -> []

let run_json r =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("trace", Json.Int (if r.trace then 1 else 0));
      ( "result",
        H.result_json ~table:(if r.trace then H.per_layer else H.end_to_end) r.result );
      ("exact", floats_json r.exact);
    ]

let run_of_json j =
  match (Json.member "workload" j, Json.member "seed" j, Json.member "trace" j) with
  | Some (Json.String workload), Some (Json.Int seed), Some (Json.Int trace) ->
      Option.map
        (fun result ->
          {
            workload;
            seed;
            trace = trace = 1;
            result;
            exact = floats_of_json (Json.member "exact" j);
          })
        (Option.bind (Json.member "result" j) H.result_of_json)
  | _ -> None

let child ~name ~seed ~seconds ~trace ~out_dir =
  let args =
    [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace";
       (if trace then "1" else "0"); "--out-dir"; out_dir |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  (match out with _ :: shown -> List.iter print_endline (List.rev shown) | [] -> ());
  let exact_prefix = name ^ " exact " in
  let exact =
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:exact_prefix line then
          let n = String.length exact_prefix in
          Result.to_option (Json.parse (String.sub line n (String.length line - n)))
        else None)
      out
  in
  match (status, out) with
  | Unix.WEXITED 0, last :: _ ->
      Option.map
        (fun result ->
          { workload = name; seed; trace; result; exact = floats_of_json exact })
        (Result.to_option (Json.parse last) |> Fun.flip Option.bind H.result_of_json)
  | _ -> None

let values runs ~workload ~metric =
  List.filter_map
    (fun r ->
      if String.equal r.workload workload then
        List.assoc_opt metric (r.result.H.metrics @ r.exact)
      else None)
    runs

let run_cmd seed seconds repeat traced out out_dir =
  let names = workload_names in
  let runs = ref [] and broken = ref 0 in
  for k = 0 to repeat - 1 do
    List.iter
      (fun name ->
        match child ~name ~seed:(seed + k) ~seconds ~trace:traced ~out_dir with
        | Some r ->
            if (not r.result.H.correct) || r.result.H.failed > 0 then incr broken;
            runs := r :: !runs
        | None ->
            Printf.printf "%s: the workload process failed\n" name;
            incr broken)
      names
  done;
  let runs = List.rev !runs in
  let table = if traced then H.per_layer else H.end_to_end @ H.exact in
  Printf.printf "\nsummary: median [q1, q3] over %d run(s) per workload\n" repeat;
  List.iter
    (fun name ->
      List.iter
        (fun (mt : H.metric) ->
          match values runs ~workload:name ~metric:mt.H.name with
          | [] -> ()
          | vs ->
              let q1, q2, q3 = H.quartiles vs in
              Printf.printf "%-13s %-34s %14.6g %-8s [%.6g, %.6g] (n=%d runs)\n" name
                mt.H.name q2 mt.H.unit_ q1 q3 (List.length vs))
        table)
    names;
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("repeat", Json.Int repeat);
            ("runs", Json.List (List.map run_json runs));
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out;
  if !broken > 0 then begin
    Printf.printf "%d run(s) failed a check\n" !broken;
    1
  end
  else 0

(* --- compare ------------------------------------------------------------- *)

let read_json path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse (String.trim text)

let load_runs path =
  match read_json path with
  | Ok doc -> (
      match Json.member "runs" doc with
      | Some (Json.List rs) -> List.filter_map run_of_json rs
      | _ -> failwith (path ^ ": no runs"))
  | Error e -> failwith (path ^ ": " ^ e)

type verdict = Within | Regressed | Improved | Unresolved

let verdict_name = function
  | Within -> "within bound"
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Unresolved -> "unresolved"

(* The rules of a no-regression check between two sets of runs of the
   same benchmark: a metric is unresolved when either side's spread
   (interquartile distance over median) is wider than its bound, unless
   every run of B beats every run of A; regressed when B's median is
   worse than A's by more than the bound; improved when B's median is
   better by more than A's own spread and B wins nine tenths of at least
   ten index-paired runs — or, for an exact metric (bound 0), at all.
   A spread or change no wider than the metric's floor counts as 0. *)
let verdict (mt : H.metric) a b =
  let a1, am, a3 = H.quartiles a and b1, bm, b3 = H.quartiles b in
  let spread q1 m q3 =
    if q3 -. q1 <= mt.H.floor then 0.0 else (q3 -. q1) /. Float.abs m
  in
  let better x y =
    match mt.H.better with H.Lower -> y < x | H.Higher -> y > x
  in
  let worse = match mt.H.better with H.Lower -> bm -. am | H.Higher -> am -. bm in
  let worse_by = if Float.abs worse <= mt.H.floor then 0.0 else worse /. Float.abs am in
  let all_better = List.for_all (fun x -> List.for_all (better x) b) a in
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  if Float.max (spread a1 am a3) (spread b1 bm b3) > mt.H.bound && not all_better
  then Unresolved
  else if worse_by > mt.H.bound then Regressed
  else if
    -.worse_by > spread a1 am a3
    && (mt.H.bound = 0.0
       || List.length pairs >= 10
          && float_of_int wins >= 0.9 *. float_of_int (List.length pairs))
  then Improved
  else Within

let compare_cmd path_a path_b =
  let a = List.filter (fun r -> not r.trace) (load_runs path_a)
  and b = List.filter (fun r -> not r.trace) (load_runs path_b) in
  let names =
    List.sort_uniq String.compare (List.map (fun r -> r.workload) a)
    |> List.filter (fun n -> List.exists (fun r -> String.equal r.workload n) b)
  in
  let bad = ref 0 in
  Printf.printf "%-13s %-18s %28s %28s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun name ->
      List.iter
        (fun (mt : H.metric) ->
          let va = values a ~workload:name ~metric:mt.H.name
          and vb = values b ~workload:name ~metric:mt.H.name in
          if va <> [] && vb <> [] then begin
            let v = verdict mt va vb in
            if v = Regressed || v = Unresolved then incr bad;
            let show vs =
              let q1, m, q3 = H.quartiles vs in
              Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3
            in
            let _, am, _ = H.quartiles va and _, bm, _ = H.quartiles vb in
            Printf.printf "%-13s %-18s %28s %28s %+7.1f%% %5.0f%%  %s\n" name mt.H.name
              (show va) (show vb)
              (100.0 *. (bm -. am) /. Float.abs am)
              (100.0 *. mt.H.bound) (verdict_name v)
          end)
        (H.end_to_end @ H.exact))
    names;
  if !bad > 0 then 1 else 0

(* --- smoke --------------------------------------------------------------- *)

(* BENCHMARK.json must name exactly this benchmark's workloads and
   metrics, with the same units, directions and bounds. *)
let manifest_problems path =
  match read_json path with
  | Error e -> [ path ^ ": " ^ e ]
  | Ok doc ->
      let list key =
        match Json.member key doc with Some (Json.List l) -> l | _ -> []
      in
      let str key j =
        match Json.member key j with Some (Json.String s) -> s | _ -> ""
      in
      let num key j =
        match Json.member key j with
        | Some (Json.Float f) -> f
        | Some (Json.Int n) -> float_of_int n
        | _ -> 0.0
      in
      let described j =
        (str "name" j, str "unit" j, str "better" j, num "bound" j)
      in
      let ours table =
        List.map
          (fun (mt : H.metric) ->
            (mt.H.name, mt.H.unit_, H.better_name mt.H.better, mt.H.bound))
          table
      in
      (if List.map (str "name") (list "workloads") <> workload_names then
         [ "workloads differ" ]
       else [])
      @ (if List.map described (list "end_to_end") <> ours H.end_to_end then
           [ "end_to_end metrics differ" ]
         else [])
      @
      if List.map described (list "per_layer") <> ours H.per_layer then
        [ "per_layer metrics differ" ]
      else []

let smoke_cmd out_dir manifest =
  let failures = ref [] in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let r =
            bench_one ~name ~scale:H.Smoke ~seed:1 ~seconds:0.2 ~trace ~out_dir
              ~setup_reps:1
          in
          if (not r.H.correct) || r.H.failed > 0 then
            failures := Printf.sprintf "%s (trace %b)" name trace :: !failures)
        [ false; true ])
    workload_names;
  let manifest = manifest_problems manifest in
  (* on stderr, so they show when `dune runtest` discards the rest *)
  List.iter (Printf.eprintf "smoke: BENCHMARK.json: %s\n") manifest;
  List.iter (Printf.eprintf "smoke: FAILED %s\n") (List.rev !failures);
  if !failures = [] && manifest = [] then begin
    print_endline "smoke: ok";
    0
  end
  else 1

(* --- command line -------------------------------------------------------- *)

open Cmdliner

let workload_conv = Arg.enum (List.map (fun n -> (n, n)) workload_names)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "workload" ] ~doc:"Workload to run.")

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Input seed.")

let seconds_arg =
  Arg.(value & opt float 20.0 & info [ "seconds" ] ~doc:"Measured seconds per run.")

let out_dir_arg =
  Arg.(
    value
    & opt string (Filename.concat "_build" "e2e")
    & info [ "out-dir" ] ~doc:"Directory for traces and sockets.")

let one_term =
  let trace_arg =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~doc:"1: a traced replay and the per-layer metrics.")
  in
  Term.(
    const (fun name seed seconds trace out_dir ->
        ignore
          (bench_one ~name ~scale:H.Full ~seed ~seconds ~trace ~out_dir
             ~setup_reps:5);
        0)
    $ workload_arg $ seed_arg $ seconds_arg $ trace_arg $ out_dir_arg)

let setup_cmd =
  Cmd.v
    (Cmd.info "setup" ~doc:"Set one workload up and tear it down (timed by the parent).")
    Term.(
      const (fun name seed out_dir smoke ->
          mkdir_p out_dir;
          let scale = if smoke then H.Smoke else H.Full in
          let session = (List.assoc name workloads) ~scale ~seed ~out_dir in
          session.H.teardown ();
          0)
      $ workload_arg $ seed_arg $ out_dir_arg
      $ Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny sizes, as in smoke."))

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run every workload, each in its own process.")
    Term.(
      const run_cmd $ seed_arg $ seconds_arg
      $ Arg.(value & opt int 1 & info [ "repeat" ] ~doc:"Runs per workload (seeds N, N+1, ...).")
      $ Arg.(value & flag & info [ "traced" ] ~doc:"Traced runs: per-layer metrics.")
      $ Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Write the runs here.")
      $ out_dir_arg)

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two files written by run --out.")
    Term.(
      const compare_cmd
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"A")
      $ Arg.(required & pos 1 (some file) None & info [] ~docv:"B"))

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Every workload at tiny sizes: outputs and schema.")
    Term.(
      const smoke_cmd $ out_dir_arg
      $ Arg.(
          required
          & opt (some file) None
          & info [ "manifest" ] ~doc:"BENCHMARK.json to check against the tables."))

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default:one_term
          (Cmd.info "main" ~doc:"End-to-end benchmark of GPUPlanner.")
          [ setup_cmd; run_cmd; compare_cmd; smoke_cmd ]))
