(* Fault-injection campaign engine.

   A campaign fixes a workload and a target machine (G-GPU at some CU
   count, or the RISC-V baseline), runs one golden (fault-free) trial,
   then a population of injected trials: each flips a single sampled
   bit at a sampled cycle and classifies the result against the golden
   output as Masked / SDC / DUE / Hang.  The per-structure AVF
   (architectural vulnerability factor: the fraction of upsets that are
   not masked) falls out of the counts.

   Determinism: trial [i] of a campaign seeded [s] derives every random
   choice from [Rng.for_trial ~seed:s ~index:i], so the trial list is
   bit-identical whether trials run serially or fan out over the
   {!Ggpu_par.Parallel} domain pool.  Isolation: a trial's exception
   is its classification, never the campaign's - trials run under
   try/with and a simulated-time watchdog, so corrupted control flow
   terminates as a counted Hang. *)

open Ggpu_kernels

let log_src = Logs.Src.create "ggpu.fi" ~doc:"Fault-injection campaigns"

module Log = (val Logs.src_log log_src : Logs.LOG)

type target = Ggpu of int  (** compute units *) | Rv32

let target_name = function
  | Ggpu cus -> Printf.sprintf "g-gpu/%dcu" cus
  | Rv32 -> "rv32"

type trial = { fault : Fault.t; outcome : Fault.outcome }

type class_counts = { masked : int; sdc : int; due : int; hang : int }

let zero_counts = { masked = 0; sdc = 0; due = 0; hang = 0 }

let count_outcome c = function
  | Fault.Masked -> { c with masked = c.masked + 1 }
  | Fault.Sdc -> { c with sdc = c.sdc + 1 }
  | Fault.Due _ -> { c with due = c.due + 1 }
  | Fault.Hang -> { c with hang = c.hang + 1 }

let total_of c = c.masked + c.sdc + c.due + c.hang

(* Architectural vulnerability factor: fraction of upsets with any
   visible effect. *)
let avf c =
  let total = total_of c in
  if total = 0 then 0.0
  else float_of_int (c.sdc + c.due + c.hang) /. float_of_int total

type report = {
  target : target;
  kernel : string;
  size : int;
  seed : int;
  golden_cycles : int;
  watchdog_cycles : int;
  trials : trial list;
  by_structure : (Fault.structure * class_counts) list;
  total : class_counts;
}

(* Sample one fault for trial [index]: a cycle inside the golden
   window, a structure, and a salt for target resolution. *)
let sample_fault ~seed ~index ~golden_cycles structures =
  let rng = Rng.for_trial ~seed ~index in
  let cycle = Rng.int rng (max 1 golden_cycles) in
  let structure = List.nth structures (Rng.int rng (List.length structures)) in
  let salt = Rng.salt rng in
  { Fault.cycle; structure; salt }

let classify ~golden_out ~out = if out = golden_out then Fault.Masked else Fault.Sdc

let aggregate ~structures trials =
  let by_structure =
    List.map
      (fun s ->
        ( s,
          List.fold_left
            (fun c t ->
              if t.fault.Fault.structure = s then count_outcome c t.outcome
              else c)
            zero_counts trials ))
      structures
  in
  let total =
    List.fold_left (fun c t -> count_outcome c t.outcome) zero_counts trials
  in
  (by_structure, total)

(* Watchdog budget: generous enough that slow-but-healthy corrupted
   runs (extra cache misses, revived lanes redoing work) complete, and
   tight enough that genuine livelock is caught quickly. *)
let watchdog ~factor ~golden_cycles = (factor * golden_cycles) + 10_000

let outcome_key = function
  | Fault.Masked -> "fi.masked"
  | Fault.Sdc -> "fi.sdc"
  | Fault.Due _ -> "fi.due"
  | Fault.Hang -> "fi.hang"

(* Fan the trial population out over the domain pool, with a span per
   trial and campaign-level throughput metrics around the whole batch. *)
let run_trials ?domains one trials =
  let one index = Ggpu_obs.Trace.with_span "fi.trial" (fun () -> one index) in
  let t0 = Ggpu_obs.Metrics.now_ns () in
  let trials_run =
    Ggpu_par.Parallel.map ?domains one (List.init trials Fun.id)
  in
  let wall_ns = max 1 (Ggpu_obs.Metrics.now_ns () - t0) in
  if Ggpu_obs.Metrics.ambient_enabled () then begin
    Ggpu_obs.Metrics.record_gauge "fi.domains"
      (match domains with
      | Some d -> max 1 d
      | None -> Ggpu_par.Parallel.default_domains ());
    Ggpu_obs.Metrics.count "fi.trials" (List.length trials_run);
    List.iter
      (fun t -> Ggpu_obs.Metrics.count (outcome_key t.outcome) 1)
      trials_run;
    Ggpu_obs.Metrics.record_gauge "fi.trials_per_s"
      (List.length trials_run * 1_000_000_000 / wall_ns)
  end;
  trials_run

let run ?domains ?(watchdog_factor = 8) ~target ~(workload : Suite.t)
    ~size ~trials ~seed () =
  Ggpu_obs.Trace.with_span "fi.campaign"
    ~args:
      [
        ("target", target_name target);
        ("kernel", workload.Suite.name);
        ("trials", string_of_int trials);
      ]
  @@ fun () ->
  let size = workload.Suite.round_size size in
  let global_size = workload.Suite.global_size ~size in
  let local_size = min workload.Suite.local_size size in
  let args = workload.Suite.mk_args ~size in
  match target with
  | Ggpu cus ->
      let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
      let compiled = Codegen_fgpu.compile workload.Suite.kernel in
      let launch ?max_cycles ?inject () =
        Run_fgpu.run ~config ?max_cycles ?inject compiled ~args ~global_size
          ~local_size ()
      in
      let golden = launch () in
      let golden_out = Run_fgpu.output golden workload.Suite.output_buffer in
      let golden_cycles = golden.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles in
      let max_cycles = watchdog ~factor:watchdog_factor ~golden_cycles in
      let one index =
        let fault =
          sample_fault ~seed ~index ~golden_cycles Fault.gpu_structures
        in
        let injector probe =
          Inject.apply_gpu (Rng.create fault.Fault.salt) fault.Fault.structure
            probe
        in
        let outcome =
          match launch ~max_cycles ~inject:(fault.Fault.cycle, injector) () with
          | result ->
              classify ~golden_out
                ~out:(Run_fgpu.output result workload.Suite.output_buffer)
          | exception Ggpu_fgpu.Gpu.Watchdog_timeout _ -> Fault.Hang
          | exception Ggpu_fgpu.Gpu.Launch_error msg ->
              Fault.Due ("launch_error: " ^ msg)
          | exception Ggpu_fgpu.Wavefront.Fault msg -> Fault.Due ("fault: " ^ msg)
          | exception e ->
              Log.warn (fun m ->
                  m "trial %d: unexpected exception %s counted as DUE" index
                    (Printexc.to_string e));
              Fault.Due (Printexc.to_string e)
        in
        { fault; outcome }
      in
      let trials_run = run_trials ?domains one trials in
      let by_structure, total =
        aggregate ~structures:Fault.gpu_structures trials_run
      in
      {
        target;
        kernel = workload.Suite.name;
        size;
        seed;
        golden_cycles;
        watchdog_cycles = max_cycles;
        trials = trials_run;
        by_structure;
        total;
      }
  | Rv32 ->
      let compiled = Codegen_rv32.compile workload.Suite.kernel in
      let launch ?max_cycles ?inject () =
        Run_rv32.run ?max_cycles ?inject compiled ~args ~global_size
          ~local_size ()
      in
      let golden = launch () in
      let golden_out = Run_rv32.output golden workload.Suite.output_buffer in
      let golden_cycles = golden.Run_rv32.stats.Ggpu_riscv.Cpu.cycles in
      let max_cycles = watchdog ~factor:watchdog_factor ~golden_cycles in
      let one index =
        let fault =
          sample_fault ~seed ~index ~golden_cycles Fault.rv32_structures
        in
        let injector cpu =
          Inject.apply_rv32 (Rng.create fault.Fault.salt)
            fault.Fault.structure cpu
        in
        let outcome =
          match launch ~max_cycles ~inject:(fault.Fault.cycle, injector) () with
          | result ->
              classify ~golden_out
                ~out:(Run_rv32.output result workload.Suite.output_buffer)
          | exception Ggpu_riscv.Cpu.Watchdog_timeout _ -> Fault.Hang
          | exception Ggpu_riscv.Cpu.Out_of_fuel _ -> Fault.Hang
          | exception Ggpu_riscv.Cpu.Trap msg -> Fault.Due ("trap: " ^ msg)
          | exception e ->
              Log.warn (fun m ->
                  m "trial %d: unexpected exception %s counted as DUE" index
                    (Printexc.to_string e));
              Fault.Due (Printexc.to_string e)
        in
        { fault; outcome }
      in
      let trials_run = run_trials ?domains one trials in
      let by_structure, total =
        aggregate ~structures:Fault.rv32_structures trials_run
      in
      {
        target;
        kernel = workload.Suite.name;
        size;
        seed;
        golden_cycles;
        watchdog_cycles = max_cycles;
        trials = trials_run;
        by_structure;
        total;
      }

(* Compact per-structure counts, one token per structure, suitable for
   golden-file drift checks in CI. *)
let signature r =
  let token name c =
    Printf.sprintf "%s:%d/%d/%d/%d" name c.masked c.sdc c.due c.hang
  in
  String.concat ";"
    (List.map
       (fun (s, c) -> token (Fault.structure_name s) c)
       r.by_structure
    @ [ token "total" r.total ])

let pp_counts_row fmt name c =
  Format.fprintf fmt "%-12s %7d %7d %7d %7d %7d   %5.3f@," name (total_of c)
    c.masked c.sdc c.due c.hang (avf c)

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "campaign: %s on %s, size %d, %d trials, seed %d@,"
    r.kernel (target_name r.target) r.size (total_of r.total) r.seed;
  Format.fprintf fmt
    "golden run: %d cycles; watchdog at %d cycles@," r.golden_cycles
    r.watchdog_cycles;
  Format.fprintf fmt "%-12s %7s %7s %7s %7s %7s   %5s@," "structure" "trials"
    "masked" "sdc" "due" "hang" "AVF";
  List.iter
    (fun (s, c) -> pp_counts_row fmt (Fault.structure_name s) c)
    r.by_structure;
  pp_counts_row fmt "total" r.total;
  Format.fprintf fmt "@]"
