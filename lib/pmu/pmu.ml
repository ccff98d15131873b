(* Performance-monitoring unit for the FGPU simulator.

   The collector is a pure observer: every counter is derived from
   values the scheduler already computed (issue time, pipeline
   occupancy, the issuing wavefront's last stall cause), so an
   instrumented run is bit-identical to a bare one.  All state is
   native-int arrays owned by one simulator run on one domain — no
   atomics, no allocation on the per-issue path.

   Attribution model.  Per CU, the timeline is split exactly once:
   every cycle lands in one bucket, so the per-CU bucket vector sums to
   the run's total cycles by construction.  [on_issue] closes the gap
   since the CU's last accounted cycle:

   - the idle gap (scheduler found no ready wavefront) is charged to
     the stall cause of the wavefront that issues next — in an
     event-driven scheduler a ready wavefront issues immediately, so
     the gap exists precisely because that wavefront's previous
     instruction was still completing (memory, barrier, or plain
     pipeline latency);
   - the busy slice (vector-pipeline beats, divider occupancy, issue
     overhead) is charged to [issue], or to [div_serial] when the
     active mask was partial — divergent lane groups serialise, so
     those beats are the direct cost of divergence.

   [finalize] settles the tail: cycles after a CU's last issue are
   [idle_empty] (it drained early — an occupancy signal at the grid
   level), and an over-account from a trailing issue-overhead window is
   clipped from [issue] so the sum invariant survives any config.

   The hot-PC histogram samples the issued PC once per [stride] cycles
   of each CU's own timeline — cycle-strided like a real PMU's
   interrupt-driven profiler, and deterministic because simulated time
   is. *)

let n_buckets = 8
let b_issue = 0
let b_div_serial = 1
let b_stall_mem_hit = 2
let b_stall_mem_miss = 3
let b_stall_mem_axi = 4
let b_stall_barrier = 5
let b_stall_latency = 6
let b_idle_empty = 7

let bucket_names =
  [|
    "issue";
    "div_serial";
    "stall_mem_hit";
    "stall_mem_miss";
    "stall_mem_axi";
    "stall_barrier";
    "stall_latency";
    "idle_empty";
  |]

(* Stall kinds are the bucket ids of the stall rows, so the simulator
   can store one per wavefront and [on_issue] indexes directly. *)
let sk_barrier = b_stall_barrier
let sk_latency = b_stall_latency

let sk_of_mem_class = function
  | 0 -> b_stall_mem_hit
  | 1 -> b_stall_mem_miss
  | _ -> b_stall_mem_axi

type t = {
  num_cus : int;
  stride : int;
  buckets : int array; (* num_cus x n_buckets, CU-major *)
  acct : int array; (* per CU: first cycle not yet attributed *)
  next_sample : int array; (* per CU: next hot-PC sample cycle *)
  hot : int array; (* per program counter: samples *)
  mutable samples : int;
  mutable cycles : int; (* set by finalize *)
}

let create ?(stride = 64) ~num_cus ~prog_len () =
  if num_cus <= 0 then invalid_arg "Pmu.create: non-positive num_cus";
  if stride <= 0 then invalid_arg "Pmu.create: non-positive stride";
  {
    num_cus;
    stride;
    buckets = Array.make (num_cus * n_buckets) 0;
    acct = Array.make num_cus 0;
    next_sample = Array.make num_cus 0;
    hot = Array.make (max 1 prog_len) 0;
    samples = 0;
    cycles = 0;
  }

let num_cus t = t.num_cus

let on_issue t ~cu ~now ~busy ~pc ~divergent ~stall =
  let base = cu * n_buckets in
  let gap = now - Array.unsafe_get t.acct cu in
  if gap > 0 then
    Array.unsafe_set t.buckets (base + stall)
      (Array.unsafe_get t.buckets (base + stall) + gap);
  let busy_bucket = base + if divergent then b_div_serial else b_issue in
  Array.unsafe_set t.buckets busy_bucket
    (Array.unsafe_get t.buckets busy_bucket + busy);
  Array.unsafe_set t.acct cu (now + busy);
  if now >= Array.unsafe_get t.next_sample cu then begin
    Array.unsafe_set t.next_sample cu (now + t.stride);
    if pc >= 0 && pc < Array.length t.hot then begin
      Array.unsafe_set t.hot pc (Array.unsafe_get t.hot pc + 1);
      t.samples <- t.samples + 1
    end
  end

let finalize t ~cycles =
  t.cycles <- cycles;
  for cu = 0 to t.num_cus - 1 do
    let base = cu * n_buckets in
    let rem = cycles - t.acct.(cu) in
    if rem > 0 then
      t.buckets.(base + b_idle_empty) <- t.buckets.(base + b_idle_empty) + rem
    else if rem < 0 then
      (* a trailing issue-overhead window ran past the last completion;
         clip it from the busy bucket so the sum stays exact *)
      t.buckets.(base + b_issue) <- t.buckets.(base + b_issue) + rem;
    t.acct.(cu) <- cycles
  done

(* --- Timeline emission (through the ambient tracer) ------------------- *)

(* Simulated-time events borrow the tracer's nanosecond field for
   cycles (1 cycle = 1 ns, so Perfetto's microsecond axis reads as
   kilocycles).  Each CU gets its own virtual track. *)
let timeline_tid ~cu = 100 + cu

let occupancy ~cu ~now ~resident ~active =
  Ggpu_obs.Trace.counter ~ts_ns:now ~tid:(timeline_tid ~cu)
    (Printf.sprintf "cu%d.wavefronts" cu)
    [ ("resident", resident); ("active", active) ]

let wf_span ~cu ~wg ~wf ~dispatched ~retired =
  Ggpu_obs.Trace.complete ~ts_ns:dispatched
    ~dur_ns:(max 0 (retired - dispatched))
    ~tid:(timeline_tid ~cu)
    (Printf.sprintf "wg%d.wf%d" wg wf)

(* --- Summaries --------------------------------------------------------- *)

type summary = {
  s_num_cus : int;
  s_cycles : int;
  s_stride : int;
  s_samples : int;
  s_buckets : int array array; (* per CU, [n_buckets] cells each *)
  s_hot : (int * string * int) list; (* pc, disassembly, samples; hottest first *)
}

let summarize t ~program =
  let hot = ref [] in
  Array.iteri
    (fun pc n ->
      if n > 0 then
        let insn =
          if pc < Array.length program then
            Ggpu_isa.Fgpu_isa.to_string program.(pc)
          else "<out of program>"
        in
        hot := (pc, insn, n) :: !hot)
    t.hot;
  let s_hot =
    List.sort
      (fun (pa, _, na) (pb, _, nb) ->
        match Int.compare nb na with 0 -> Int.compare pa pb | c -> c)
      !hot
  in
  {
    s_num_cus = t.num_cus;
    s_cycles = t.cycles;
    s_stride = t.stride;
    s_samples = t.samples;
    s_buckets =
      Array.init t.num_cus (fun cu ->
          Array.sub t.buckets (cu * n_buckets) n_buckets);
    s_hot;
  }

let bucket_total s name =
  let b = ref (-1) in
  Array.iteri (fun i n -> if n = name then b := i) bucket_names;
  if !b < 0 then invalid_arg ("Pmu.bucket_total: unknown bucket " ^ name);
  Array.fold_left (fun acc row -> acc + row.(!b)) 0 s.s_buckets

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>%-6s %10s" "cu" "cycles";
  Array.iter (fun n -> Format.fprintf fmt " %14s" n) bucket_names;
  Format.fprintf fmt "@,";
  Array.iteri
    (fun cu row ->
      Format.fprintf fmt "%-6s %10d" (Printf.sprintf "cu%d" cu) s.s_cycles;
      Array.iter (fun v -> Format.fprintf fmt " %14d" v) row;
      Format.fprintf fmt "@,")
    s.s_buckets;
  Format.fprintf fmt "%-6s %10d" "total" (s.s_cycles * s.s_num_cus);
  Array.iteri
    (fun b _ ->
      let total = Array.fold_left (fun acc row -> acc + row.(b)) 0 s.s_buckets in
      Format.fprintf fmt " %14d" total)
    bucket_names;
  Format.fprintf fmt "@]"

let pp_hot ?(limit = 10) fmt s =
  if s.s_samples = 0 then Format.fprintf fmt "no samples"
  else begin
    Format.fprintf fmt "@[<v>%6s %8s %7s  %s@," "pc" "samples" "time%"
      "instruction";
    List.iteri
      (fun i (pc, insn, n) ->
        if i < limit then
          Format.fprintf fmt "%6d %8d %6.1f%%  %s@," pc n
            (100.0 *. float_of_int n /. float_of_int s.s_samples)
            insn)
      s.s_hot;
    Format.fprintf fmt "@]"
  end
