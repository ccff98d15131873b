(* The serving core.

   A request's result is a pure function of its memo key, so the cache
   stores the serialised payload and a hit replays the exact bytes of
   the cold computation.  One [step] call is one batch: the unit of
   fan-out over the domain pool and of artifact sharing (base netlists,
   kernel compilations) between requests. *)

open Ggpu_core
module Json = Ggpu_obs.Json
module Metrics = Ggpu_obs.Metrics
module Trace = Ggpu_obs.Trace

type config = {
  cache_capacity : int;
  shards : int;
  queue_capacity : int;
  retry_after_ms : int;
  pmu_stride : int;
}

let default_config =
  {
    cache_capacity = 4096;
    shards = 8;
    queue_capacity = 256;
    retry_after_ms = 50;
    pmu_stride = 64;
  }

type queued = { req : Proto.request; arrival_ns : int }

type t = {
  cfg : config;
  pool : Ggpu_par.Parallel.Pool.t option;
  results : string Lru.t array;
  bases : Ggpu_hw.Netlist.t Lru.t;
  compiled : Ggpu_kernels.Codegen_fgpu.compiled Lru.t;
  queue : queued Queue.t;
  reg : Metrics.t;
  c_requests : Metrics.counter;
  c_batches : Metrics.counter;
  c_hit : Metrics.counter;
  c_miss : Metrics.counter;
  c_evict : Metrics.counter;
  c_coalesced : Metrics.counter;
  c_nl_build : Metrics.counter;
  c_nl_reuse : Metrics.counter;
  c_k_compile : Metrics.counter;
  c_k_reuse : Metrics.counter;
  c_rejected : Metrics.counter;
  c_expired : Metrics.counter;
  c_failed : Metrics.counter;
  g_high_water : Metrics.gauge;
  h_sim : Metrics.histogram;
  h_synth : Metrics.histogram;
  h_perf : Metrics.histogram;
}

(* Log-spaced integer microseconds, 1 µs to ~16.8 s, overflow above.
   Powers of two keep the cells integral and identical in every
   registry, so snapshots merge bit-identically at any pool size. *)
let latency_buckets = List.init 25 (fun i -> 1 lsl i)

(* Each technology with its key fingerprint, computed once: the
   fingerprint Marshals and hashes the whole model. *)
let techs =
  List.map
    (fun (name, tech) -> (name, (tech, Key.tech tech)))
    Ggpu_tech.Tech.by_name

let tech_of_name name = Option.map fst (List.assoc_opt name techs)

let create ?(config = default_config) ?pool () =
  let cfg =
    {
      config with
      shards = max 1 config.shards;
      cache_capacity = max config.shards config.cache_capacity;
      queue_capacity = max 1 config.queue_capacity;
    }
  in
  let per_shard =
    max 1 ((cfg.cache_capacity + cfg.shards - 1) / cfg.shards)
  in
  let reg = Metrics.create () in
  let t =
    {
      cfg;
      pool;
      results = Array.init cfg.shards (fun _ -> Lru.create ~capacity:per_shard);
      bases = Lru.create ~capacity:16;
      compiled = Lru.create ~capacity:32;
      queue = Queue.create ();
      reg;
      c_requests = Metrics.counter reg "serve.requests";
      c_batches = Metrics.counter reg "serve.batches";
      c_hit = Metrics.counter reg "serve.cache.hit";
      c_miss = Metrics.counter reg "serve.cache.miss";
      c_evict = Metrics.counter reg "serve.cache.eviction";
      c_coalesced = Metrics.counter reg "serve.cache.coalesced";
      c_nl_build = Metrics.counter reg "serve.netlist.build";
      c_nl_reuse = Metrics.counter reg "serve.netlist.reuse";
      c_k_compile = Metrics.counter reg "serve.kernel.compile";
      c_k_reuse = Metrics.counter reg "serve.kernel.reuse";
      c_rejected = Metrics.counter reg "serve.rejected";
      c_expired = Metrics.counter reg "serve.expired";
      c_failed = Metrics.counter reg "serve.failed";
      g_high_water = Metrics.gauge reg "serve.queue.high_water";
      h_sim = Metrics.histogram ~buckets:latency_buckets reg "serve.latency.sim";
      h_synth =
        Metrics.histogram ~buckets:latency_buckets reg "serve.latency.synth";
      h_perf =
        Metrics.histogram ~buckets:latency_buckets reg "serve.latency.perf";
    }
  in
  Metrics.gauge_max
    (Metrics.gauge reg "serve.pool.domains")
    (match pool with Some p -> Ggpu_par.Parallel.Pool.size p | None -> 1);
  t

let pool_size t =
  match t.pool with Some p -> Ggpu_par.Parallel.Pool.size p | None -> 1

(* --- plans --------------------------------------------------------------- *)

(* What a request resolves to after normalisation: its memo key plus
   everything needed to execute it cold. *)
type plan =
  | P_synth of {
      tech : Ggpu_tech.Tech.t;
      fingerprint : string;  (* [Key.tech tech] *)
      tech_name : string;
      spec : Spec.t;
    }
  | P_sim of {
      w : Ggpu_kernels.Suite.t;
      config : Ggpu_fgpu.Config.t;
      size : int;
      gsize : int;
      lsize : int;
      pmu : bool;  (* Perf requests attach the collector *)
    }

let plan_of_request (req : Proto.request) =
  match List.assoc_opt req.Proto.tech techs with
  | None ->
      Error
        (Printf.sprintf "unknown technology %S (%s)" req.Proto.tech
           (String.concat " | " (List.map fst techs)))
  | Some (tech, fingerprint) -> (
      match req.Proto.kind with
      | Proto.Synth { cus; freq_mhz } -> (
          match Spec.make ~num_cus:cus ~freq_mhz () with
          | spec ->
              Ok
                (P_synth
                   { tech; fingerprint; tech_name = req.Proto.tech; spec })
          | exception Spec.Invalid_spec msg -> Error msg)
      | Proto.Sim { kernel; cus; size } | Proto.Perf { kernel; cus; size } -> (
          match Ggpu_kernels.Suite.find kernel with
          | exception Invalid_argument msg -> Error msg
          | w -> (
              match
                Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus
              with
              | exception Ggpu_fgpu.Config.Bad_config msg -> Error msg
              | config ->
                  let size = w.Ggpu_kernels.Suite.round_size (max 1 size) in
                  let gsize = w.Ggpu_kernels.Suite.global_size ~size in
                  let lsize = min w.Ggpu_kernels.Suite.local_size size in
                  let pmu =
                    match req.Proto.kind with
                    | Proto.Perf _ -> true
                    | _ -> false
                  in
                  Ok (P_sim { w; config; size; gsize; lsize; pmu }))))

let key_of_plan ~stride = function
  | P_synth { fingerprint; spec; _ } -> Key.synth ~tech:fingerprint spec
  | P_sim { w; config; gsize; lsize; pmu; _ } ->
      let kernel = w.Ggpu_kernels.Suite.name in
      if pmu then
        Key.perf ~config ~kernel ~global_size:gsize ~local_size:lsize ~stride
      else Key.sim ~config ~kernel ~global_size:gsize ~local_size:lsize

let key_of_request ?(pmu_stride = default_config.pmu_stride) req =
  Result.map (key_of_plan ~stride:pmu_stride) (plan_of_request req)

(* --- payloads ------------------------------------------------------------ *)

(* Payloads contain only deterministic values — no wall times — so the
   serialised bytes are a pure function of the memo key. *)

let synth_payload ~tech_name (spec : Spec.t)
    (syn : Flow.synthesis) =
  let r = syn.Flow.syn_report in
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "synth");
         ("cus", Json.Int spec.Spec.num_cus);
         ("freq_mhz", Json.Int spec.Spec.freq_mhz);
         ("tech", Json.String tech_name);
         ("area_mm2", Json.Float r.Ggpu_synth.Report.total_area_mm2);
         ("memory_area_mm2", Json.Float r.Ggpu_synth.Report.memory_area_mm2);
         ("ff", Json.Int r.Ggpu_synth.Report.ff);
         ("comb", Json.Int r.Ggpu_synth.Report.comb);
         ("memories", Json.Int r.Ggpu_synth.Report.memories);
         ("leakage_mw", Json.Float r.Ggpu_synth.Report.leakage_mw);
         ("dynamic_w", Json.Float r.Ggpu_synth.Report.dynamic_w);
         ("total_w", Json.Float r.Ggpu_synth.Report.total_w);
         ("fmax_mhz", Json.Float r.Ggpu_synth.Report.fmax_mhz);
         ("pipeline_stages", Json.Int r.Ggpu_synth.Report.pipeline_stages);
         ("divisions", Json.Int (Map.divisions syn.Flow.syn_map));
         ("pipelines", Json.Int (Map.pipelines syn.Flow.syn_map));
         ("sta_calls", Json.Int syn.Flow.syn_perf.Dse.sta_calls);
       ])

let stats_json stats =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (Ggpu_fgpu.Stats.to_assoc stats))

let hit_rate_json stats =
  match Ggpu_fgpu.Stats.hit_rate stats with
  | Some r -> Json.Float r
  | None -> Json.Null

let sim_payload ~kernel ~cus ~size (result : Ggpu_kernels.Run_fgpu.result)
    ~correct =
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "sim");
         ("kernel", Json.String kernel);
         ("cus", Json.Int cus);
         ("size", Json.Int size);
         ("correct", Json.Bool correct);
         ("stats", stats_json result.Ggpu_kernels.Run_fgpu.stats);
         ("hit_rate", hit_rate_json result.Ggpu_kernels.Run_fgpu.stats);
       ])

let perf_payload ~kernel ~cus ~size (result : Ggpu_kernels.Run_fgpu.result)
    ~correct (summary : Ggpu_pmu.Pmu.summary) =
  let buckets =
    Array.to_list Ggpu_pmu.Pmu.bucket_names
    |> List.map (fun name ->
           (name, Json.Int (Ggpu_pmu.Pmu.bucket_total summary name)))
  in
  let hot =
    summary.Ggpu_pmu.Pmu.s_hot
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (pc, insn, samples) ->
           Json.Obj
             [
               ("pc", Json.Int pc);
               ("insn", Json.String insn);
               ("samples", Json.Int samples);
             ])
  in
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "perf");
         ("kernel", Json.String kernel);
         ("cus", Json.Int cus);
         ("size", Json.Int size);
         ("correct", Json.Bool correct);
         ("classification", Json.String (Ggpu_pmu.Report.classify summary));
         ("cycles", Json.Int summary.Ggpu_pmu.Pmu.s_cycles);
         ("samples", Json.Int summary.Ggpu_pmu.Pmu.s_samples);
         ("buckets", Json.Obj buckets);
         ("hot", Json.List hot);
         ("stats", stats_json result.Ggpu_kernels.Run_fgpu.stats);
         ("hit_rate", hit_rate_json result.Ggpu_kernels.Run_fgpu.stats);
       ])

(* --- execution ----------------------------------------------------------- *)

(* Shared-artifact prefetch: one base netlist per CU count and one
   compilation per kernel serve the whole batch — the reason same-base
   requests are batched at all.  Runs on the caller, before the
   fan-out, so pool workers never contend on the artifact caches. *)
let prefetch t plan =
  match plan with
  | P_synth { spec; _ } -> (
      let key = Key.base_netlist ~cus:spec.Spec.num_cus in
      match Lru.find t.bases key with
      | Some base ->
          Metrics.incr t.c_nl_reuse;
          `Base base
      | None ->
          let base =
            Ggpu_rtlgen.Generate.generate_cus ~num_cus:spec.Spec.num_cus
          in
          Metrics.incr t.c_nl_build;
          ignore (Lru.add t.bases key base);
          `Base base)
  | P_sim { w; _ } -> (
      let key = Key.compiled_kernel w.Ggpu_kernels.Suite.name in
      match Lru.find t.compiled key with
      | Some compiled ->
          Metrics.incr t.c_k_reuse;
          `Compiled compiled
      | None ->
          let compiled =
            Ggpu_kernels.Codegen_fgpu.compile w.Ggpu_kernels.Suite.kernel
          in
          Metrics.incr t.c_k_compile;
          ignore (Lru.add t.compiled key compiled);
          `Compiled compiled)

let execute t plan artifact =
  match (plan, artifact) with
  | P_synth { tech; tech_name; spec; _ }, `Base base -> (
      match Flow.synthesise_timed ~tech ~base spec with
      | syn -> Ok (synth_payload ~tech_name spec syn)
      | exception Dse.Cannot_meet { period_ns; best_ns; detail } ->
          Error
            (Printf.sprintf
               "cannot meet %.3f ns: best achievable %.3f ns; %s" period_ns
               best_ns detail))
  | P_sim { w; config; size; gsize; lsize; pmu }, `Compiled compiled -> (
      let kernel = w.Ggpu_kernels.Suite.name in
      let cus = config.Ggpu_fgpu.Config.num_cus in
      let collector =
        if pmu then
          Some
            (Ggpu_pmu.Pmu.create ~stride:t.cfg.pmu_stride ~num_cus:cus
               ~prog_len:(Array.length compiled.Ggpu_kernels.Codegen_fgpu.code)
               ())
        else None
      in
      let args = w.Ggpu_kernels.Suite.mk_args ~size in
      match
        Ggpu_kernels.Run_fgpu.run ~config ?pmu:collector compiled ~args
          ~global_size:gsize ~local_size:lsize ()
      with
      | exception e -> Error (Printexc.to_string e)
      | result ->
          let correct =
            w.Ggpu_kernels.Suite.expected ~size args
            = Ggpu_kernels.Run_fgpu.output result
                w.Ggpu_kernels.Suite.output_buffer
          in
          Ok
            (match collector with
            | None -> sim_payload ~kernel ~cus ~size result ~correct
            | Some c ->
                let summary =
                  Ggpu_pmu.Pmu.summarize c
                    ~program:compiled.Ggpu_kernels.Codegen_fgpu.code
                in
                perf_payload ~kernel ~cus ~size result ~correct summary))
  | _ -> assert false

(* --- the queue ----------------------------------------------------------- *)

let pending t = Queue.length t.queue

let submit t req =
  if Queue.length t.queue >= t.cfg.queue_capacity then begin
    Metrics.incr t.c_rejected;
    `Rejected t.cfg.retry_after_ms
  end
  else begin
    Metrics.incr t.c_requests;
    Queue.add { req; arrival_ns = Metrics.now_ns () } t.queue;
    Metrics.gauge_max t.g_high_water (Queue.length t.queue);
    `Queued
  end

(* What each queued request resolved to during classification. *)
type slot =
  | S_ready of Proto.response  (* expired / planning error / cache hit *)
  | S_first of { key : string; hash : int64; plan : plan }
      (* computes its key *)
  | S_dup of { key : string }  (* coalesces onto the first *)

(* --- span capture -------------------------------------------------------- *)

(* Each stepped request leaves with its span group: pre-measured
   Complete events for its queue wait, cache probe, (de)duplication,
   batch formation and execution.  The group is built whether or not
   the global tracer is armed — the daemon's flight recorder keeps the
   last N groups for post-mortem dumps — and mirrored into the tracer
   via [Trace.emit] when it is.  Pure observer: a handful of clock
   reads per request, nothing fed back into planning or payloads. *)
type telemetry = { resp : Proto.response; spans : Trace.event list }

let trace_args (req : Proto.request) =
  match req.Proto.trace with
  | Some { Proto.trace_id; span_id } -> Trace.ctx_args ~trace_id ~span_id
  | None -> []

let span ?tid ?(args = []) ~ts_ns ~dur_ns name req =
  {
    Trace.ph = Trace.Complete;
    name;
    ts_ns;
    dur_ns = max 0 dur_ns;
    tid = (match tid with Some t -> t | None -> (Domain.self () :> int));
    args = trace_args req @ args;
    values = [];
  }

(* The probe span's args, one list per outcome shared by every span
   that carries it: a hit retained by the tracer is then its two
   events and nothing else. *)
let probe_hit = [ ("outcome", "hit") ]
let probe_miss = [ ("outcome", "miss") ]
let probe_dup = [ ("outcome", "dup") ]
let probe_expired = [ ("outcome", "expired") ]
let probe_error = [ ("outcome", "error") ]

let hist_for t (req : Proto.request) =
  match req.Proto.kind with
  | Proto.Sim _ -> t.h_sim
  | Proto.Synth _ -> t.h_synth
  | Proto.Perf _ -> t.h_perf

let step_traced t =
  if Queue.is_empty t.queue then []
  else begin
    Metrics.incr t.c_batches;
    let batch = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    let now = Metrics.now_ns () in
    let seen = Hashtbl.create 16 in
    let classify { req; arrival_ns } =
      let probe_start = Metrics.now_ns () in
      let expired =
        match req.Proto.deadline_ms with
        | Some d -> now - arrival_ns > d * 1_000_000
        | None -> false
      in
      let slot =
        if expired then begin
          Metrics.incr t.c_expired;
          S_ready
            {
              Proto.id = req.Proto.id;
              status = Proto.Expired;
              cached = false;
              key = "";
              result = "";
            }
        end
        else
          match plan_of_request req with
          | Error msg ->
              Metrics.incr t.c_failed;
              S_ready
                {
                  Proto.id = req.Proto.id;
                  status = Proto.Failed msg;
                  cached = false;
                  key = "";
                  result = "";
                }
          | Ok plan -> (
              let key = key_of_plan ~stride:t.cfg.pmu_stride plan in
              let hash = Key.fnv1a64 key in
              let shard = t.results.(Key.shard ~shards:t.cfg.shards hash) in
              match Lru.find shard key with
              | Some payload ->
                  Metrics.incr t.c_hit;
                  S_ready
                    {
                      Proto.id = req.Proto.id;
                      status = Proto.Done;
                      cached = true;
                      key = Key.hex hash;
                      result = payload;
                    }
              | None ->
                  if Hashtbl.mem seen key then begin
                    Metrics.incr t.c_coalesced;
                    S_dup { key }
                  end
                  else begin
                    Hashtbl.add seen key ();
                    S_first { key; hash; plan }
                  end)
      in
      (req, arrival_ns, slot, probe_start,
       Metrics.now_ns () - probe_start)
    in
    let slots = List.map classify batch in
    (* prefetch shared artifacts sequentially, then fan the unique
       misses out over the pool *)
    let firsts =
      List.filter_map
        (function
          | req, _, S_first { key; hash; plan }, _, _ ->
              Some (req, key, hash, plan, prefetch t plan)
          | _ -> None)
        slots
    in
    let form_done = Metrics.now_ns () in
    let run (_, key, _, plan, artifact) = (key, execute t plan artifact) in
    let outcomes =
      match t.pool with
      | Some pool when List.length firsts > 1 ->
          Ggpu_par.Parallel.Pool.map_timed pool run firsts
      | _ -> List.map (Ggpu_par.Parallel.timed_apply run) firsts
    in
    let batch_ev =
      {
        Trace.ph = Trace.Complete;
        name = "serve.batch";
        ts_ns = now;
        dur_ns = max 0 (form_done - now);
        tid = (Domain.self () :> int);
        args =
          [
            ("size", string_of_int (List.length batch));
            ("misses", string_of_int (List.length firsts));
          ];
        values = [];
      }
    in
    (* key -> its digest and outcome *)
    let by_key = Hashtbl.create 16 in
    let exec_evs = Hashtbl.create 16 in
    List.iter2
      (fun (req, key, hash, _, _) ((key', outcome), timing) ->
        assert (String.equal key key');
        let digest = Key.hex hash in
        Hashtbl.replace by_key key (digest, outcome);
        Hashtbl.replace exec_evs key
          (span ~tid:timing.Ggpu_par.Parallel.t_domain
             ~args:[ ("key", digest) ]
             ~ts_ns:timing.Ggpu_par.Parallel.t_start_ns
             ~dur_ns:timing.Ggpu_par.Parallel.t_dur_ns "serve.execute" req);
        match outcome with
        | Ok payload ->
            Metrics.incr t.c_miss;
            let shard = t.results.(Key.shard ~shards:t.cfg.shards hash) in
            Metrics.add t.c_evict (Lru.add shard key payload)
        | Error _ -> Metrics.incr t.c_failed)
      firsts outcomes;
    let respond (req : Proto.request) ~key ~cached =
      match Hashtbl.find by_key key with
      | digest, Ok payload ->
          {
            Proto.id = req.Proto.id;
            status = Proto.Done;
            cached;
            key = digest;
            result = payload;
          }
      | digest, Error msg ->
          {
            Proto.id = req.Proto.id;
            status = Proto.Failed msg;
            cached = false;
            key = digest;
            result = "";
          }
    in
    let finish = Metrics.now_ns () in
    let results =
      List.map
        (fun (req, arrival_ns, slot, probe_start, probe_dur) ->
          Metrics.observe (hist_for t req)
            (max 0 ((finish - arrival_ns) / 1000));
          let queue_ev =
            span ~ts_ns:arrival_ns ~dur_ns:(now - arrival_ns) "serve.queue" req
          in
          let probe_ev args =
            span ~args ~ts_ns:probe_start ~dur_ns:probe_dur "serve.probe" req
          in
          match slot with
          | S_ready resp ->
              let outcome =
                match resp.Proto.status with
                | Proto.Done -> probe_hit
                | Proto.Expired -> probe_expired
                | _ -> probe_error
              in
              { resp; spans = [ queue_ev; probe_ev outcome ] }
          | S_first { key; _ } ->
              {
                resp = respond req ~key ~cached:false;
                spans =
                  [ queue_ev; probe_ev probe_miss; batch_ev;
                    Hashtbl.find exec_evs key ];
              }
          | S_dup { key } ->
              let coalesce_ev =
                span
                  ~args:[ ("key", fst (Hashtbl.find by_key key)) ]
                  ~ts_ns:(probe_start + probe_dur) ~dur_ns:0 "serve.coalesce"
                  req
              in
              {
                resp = respond req ~key ~cached:true;
                spans =
                  [ queue_ev; probe_ev probe_dup; coalesce_ev; batch_ev;
                    Hashtbl.find exec_evs key ];
              })
        slots
    in
    (* mirror into the global tracer: per-request spans per request,
       shared batch/execute spans once *)
    if Trace.enabled () then begin
      Trace.emit batch_ev;
      Hashtbl.iter (fun _ ev -> Trace.emit ev) exec_evs;
      List.iter
        (fun { spans; _ } ->
          List.iter
            (fun (ev : Trace.event) ->
              match ev.Trace.name with
              | "serve.batch" | "serve.execute" -> ()
              | _ -> Trace.emit ev)
            spans)
        results
    end;
    results
  end

let step t = List.map (fun { resp; _ } -> resp) (step_traced t)

let process t reqs =
  let n = List.length reqs in
  let responses = Array.make n None in
  List.iteri
    (fun i req ->
      match submit t req with
      | `Queued -> ()
      | `Rejected retry_after_ms ->
          responses.(i) <-
            Some
              {
                Proto.id = req.Proto.id;
                status = Proto.Rejected { retry_after_ms };
                cached = false;
                key = "";
                result = "";
              })
    reqs;
  (* step answers queued requests in arrival order; they fill the input
     positions that were not rejected, in order *)
  let stepped = ref (step t) in
  for i = 0 to n - 1 do
    match (responses.(i), !stepped) with
    | None, resp :: rest ->
        responses.(i) <- Some resp;
        stepped := rest
    | _ -> ()
  done;
  Array.to_list responses
  |> List.map (function Some r -> r | None -> assert false)

let metrics t = Metrics.snapshot t.reg

let hit_rate t =
  let hits =
    Metrics.counter_value t.c_hit + Metrics.counter_value t.c_coalesced
  in
  let misses = Metrics.counter_value t.c_miss in
  if hits + misses = 0 then None
  else Some (float_of_int hits /. float_of_int (hits + misses))
