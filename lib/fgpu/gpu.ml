(* G-GPU top level: workgroup dispatch and discrete-event execution.

   Each compute unit owns a vector pipeline that is occupied for
   [wavefront_size / pes] beats per issued wavefront-instruction (8
   beats for the FGPU's 64-item wavefronts on 8 PEs).  Up to 512
   work-items are resident per CU; ready wavefronts are issued
   round-robin, hiding memory latency exactly as the FGPU's wavefront
   scheduler does.  Memory instructions coalesce into cache-line requests
   against the shared multi-port cache ({!Cache}), which is where
   multi-CU contention - the paper's 8-CU saturation effect - arises.

   The simulation is event-driven: every issue computes its completion
   time analytically, so no per-cycle loop is needed and multi-million
   cycle runs complete in seconds.

   The per-issue path allocates nothing: the scheduler's scans are
   top-level functions rather than per-call closures, heap keys carry
   the CU id so a pop returns one int, and the issue itself writes into
   a reused outcome record.  Each dispatched workgroup allocates its
   wavefront records, but in the sequential simulation it takes its
   register files — 33 x 64 words each, too large for the minor heap —
   from workgroups that retired earlier in the launch, so short, wide
   launches do not churn the major heap.

   Scheduler structures are flat: each CU keeps its resident wavefronts
   in a fixed array (paired with
   the owning workgroup, compacted in order on retirement, so slot order
   equals the old resident-list traversal order), and its earliest
   possible issue time is cached and invalidated only on the mutations
   that can change it (issue, dispatch, barrier release, retirement,
   fault injection).  Popping a stale heap entry therefore costs one
   cached comparison instead of a rebuild-and-scan of the resident set.
   The event order, and with it every counter in {!Stats}, is identical
   to the original list-based scheduler: the cache is only read when
   valid, and a valid cache means no mutation happened since it was
   computed, so a recomputation would return the same value.

   Two orthogonal execution choices sit on top of that scheduler:

   - [backend] picks how an issue executes its lanes: [Interp]
     dispatches on predecoded instruction tags ({!Wavefront.issue});
     [Threaded] runs per-pc closures compiled once per launch
     ({!Threaded}).  Both must leave identical architectural state —
     the golden cycle table and the differential property tests hold
     them to it.

   - [domains] > 1 splits the run into a functional phase and a timing
     phase.  Timing is not decomposable per CU (every memory issue
     arbitrates for the shared cache's ports and the AXI bus, and
     workgroup dispatch consults a global cursor), but the functional
     execution is: workgroups only interact through barriers within
     themselves, so each workgroup's lane work can run in its own
     domain.  Phase A executes all workgroups functionally in parallel
     ({!Ggpu_par.Parallel.map}), recording each wavefront's issue
     stream (pc, lane counts, coalesced lines, flags) into a compact
     trace.  Phase B replays those traces through the unchanged
     sequential scheduler — same heap, same cache arbitration, same
     dispatch, same PMU hooks — so every timing decision is made by
     exactly the code that makes it at [domains = 1], and the result is
     bit-identical at every domain count by construction.  Runs that
     need mid-flight architectural access (fault injection, watchdog
     truncation) fall back to in-place execution, as does any split run
     whose phase A faults or whose replay desynchronises (possible only
     for racy or non-uniformly-synchronised kernels): global memory is
     restored from a snapshot and the run repeats sequentially, giving
     exactly the sequential semantics including partial-result state. *)

type workgroup = {
  wg_id : int;
  wavefronts : Wavefront.t array;
  mutable barrier_waiting : int;
  mutable finished_wfs : int;
  items : int; (* resident work-item slots the workgroup occupies *)
}

let no_candidate = max_int

type cu = {
  cu_id : int;
  mutable vu_free : int; (* vector unit next free cycle *)
  wf_slots : Wavefront.t array; (* resident wavefronts, dispatch order *)
  wg_slots : workgroup array; (* owning workgroup, parallel to wf_slots *)
  mutable n_wfs : int; (* live prefix of the slot arrays *)
  mutable resident_items : int;
  mutable rr : int; (* round-robin cursor over resident wavefronts *)
  mutable cand : int; (* cached earliest issue time; [no_candidate] if idle *)
  mutable cand_valid : bool;
}

exception Launch_error of string
exception Watchdog_timeout of int

let fail fmt = Printf.ksprintf (fun s -> raise (Launch_error s)) fmt

type backend = Interp | Threaded

let backend_name = function Interp -> "interp" | Threaded -> "threaded"

let backend_of_string = function
  | "interp" -> Some Interp
  | "threaded" -> Some Threaded
  | _ -> None

(* Snapshot of the architectural state handed to a fault injector:
   every wavefront currently resident (CU-major, workgroup order), the
   cache tag/dirty arrays behind [cache], and global memory (native-int
   words, {!Ggpu_isa.I32} canonical). *)
type probe = {
  p_now : int;
  p_wavefronts : Wavefront.t array;
  p_cache : Cache.t;
  p_mem : int array;
}

let runnable wf = (not (Wavefront.finished wf)) && not wf.Wavefront.at_barrier

(* Earliest cycle at which [cu] could issue ([no_candidate] when no
   wavefront is ready), recomputed only when a mutation invalidated the
   cached value. *)
let candidate_time cu =
  if cu.cand_valid then cu.cand
  else begin
    let best = ref no_candidate in
    for i = 0 to cu.n_wfs - 1 do
      let wf = cu.wf_slots.(i) in
      if runnable wf && wf.Wavefront.ready_at < !best then
        best := wf.Wavefront.ready_at
    done;
    let c = if !best = no_candidate then no_candidate else max cu.vu_free !best in
    cu.cand <- c;
    cu.cand_valid <- true;
    c
  end

let invalidate cu = cu.cand_valid <- false

(* Fused candidate-time + round-robin pick for the burst continuation:
   one pass in probe order yields both the earliest issue time (cached
   into [cand] exactly as [candidate_time] would compute it) and the
   round-robin winner at that time.  Returns the winning slot index, -1
   when nothing is runnable; the caller reads the time from [cu.cand].

   Equivalence with [candidate_time] + [pick_wavefront]: the issue time
   is max(vu_free, min ready_at over runnable wavefronts).  When that
   minimum is <= vu_free the winner is the probe-order-first runnable
   wavefront with ready_at <= vu_free ([first_le]); otherwise every
   runnable wavefront has ready_at >= the minimum, so "ready at t'"
   means "ready_at = min" and the winner is the probe-order-first
   achiever of the minimum ([first_min], kept by strict-< update). *)
let rec next_issue_scan cu (slots : Wavefront.t array) n vu idx k min_ready
    first_le first_min =
  if k >= n then begin
    cu.cand_valid <- true;
    if min_ready = no_candidate then begin
      cu.cand <- no_candidate;
      -1
    end
    else if min_ready <= vu then begin
      cu.cand <- vu;
      first_le
    end
    else begin
      cu.cand <- min_ready;
      first_min
    end
  end
  else
    let wf = Array.unsafe_get slots idx in
    let idx' = if idx + 1 = n then 0 else idx + 1 in
    if runnable wf then
      let r = wf.Wavefront.ready_at in
      let first_le = if first_le < 0 && r <= vu then idx else first_le in
      if r < min_ready then
        next_issue_scan cu slots n vu idx' (k + 1) r first_le idx
      else
        next_issue_scan cu slots n vu idx' (k + 1) min_ready first_le first_min
    else
      next_issue_scan cu slots n vu idx' (k + 1) min_ready first_le first_min

let next_issue cu =
  let n = cu.n_wfs in
  let slots = cu.wf_slots in
  let vu = cu.vu_free in
  if n = 0 then begin
    cu.cand <- no_candidate;
    cu.cand_valid <- true;
    -1
  end
  else begin
    (* Steady-state fast path: the probe-order-first slot is the
       round-robin cursor itself, so when that wavefront is already
       ready at [vu_free] it wins outright — [min_ready <= ready_at <=
       vu] forces t' = vu and the probe stops on its first slot. *)
    let rr = cu.rr mod n in
    let wf0 = Array.unsafe_get slots rr in
    if runnable wf0 && wf0.Wavefront.ready_at <= vu then begin
      cu.cand <- vu;
      cu.cand_valid <- true;
      rr
    end
    else next_issue_scan cu slots n vu rr 0 no_candidate (-1) (-1)
  end

(* Pick the next wavefront to issue on [cu] at time [t]; stop at the
   round-robin winner instead of scanning the rest (hot path: called
   once per issue popped from the heap).  Returns the slot index, -1 if
   nothing is ready.  A pure scan: it probes (rr + k) mod n for k = 0..,
   without the per-probe division (the cursor may be stale past n after
   a workgroup retired, hence the initial mod).  The caller commits the
   cursor once it decides to issue the winner. *)
let rec probe_ready (slots : Wavefront.t array) n t idx k =
  if k >= n then -1
  else
    let wf = Array.unsafe_get slots idx in
    if runnable wf && wf.Wavefront.ready_at <= t then idx
    else probe_ready slots n t (if idx + 1 = n then 0 else idx + 1) (k + 1)

let pick_wavefront cu t =
  probe_ready cu.wf_slots cu.n_wfs t (cu.rr mod cu.n_wfs) 0

(* One wavefront's recorded issue stream for split-mode replay: per
   issue [pc; meta; line...] where [meta] packs the executed-lane
   count (bits 0-15), the coalesced line count (bits 16-31) and the
   outcome flags (bits 32+). *)
module Tbuf = struct
  type t = { mutable buf : int array; mutable len : int }

  let create () = { buf = Array.make 256 0; len = 0 }

  let record b (out : Wavefront.outcome) =
    let nl = out.Wavefront.mem_line_count in
    let need = b.len + 2 + nl in
    if need > Array.length b.buf then begin
      let a = Array.make (max (2 * Array.length b.buf) need) 0 in
      Array.blit b.buf 0 a 0 b.len;
      b.buf <- a
    end;
    let a = b.buf and p = b.len in
    a.(p) <- out.Wavefront.pc;
    let flags =
      (if out.Wavefront.partial_mask then 1 else 0)
      lor (if out.Wavefront.mem_is_store then 2 else 0)
      lor (if out.Wavefront.used_div then 4 else 0)
      lor (if out.Wavefront.used_mul then 8 else 0)
      lor (if out.Wavefront.taken_branch then 16 else 0)
      lor (if out.Wavefront.hit_barrier then 32 else 0)
      lor if out.Wavefront.retired then 64 else 0
    in
    a.(p + 1) <-
      out.Wavefront.executed_lanes lor (nl lsl 16) lor (flags lsl 32);
    for i = 0 to nl - 1 do
      a.(p + 2 + i) <- out.Wavefront.mem_lines.(i)
    done;
    b.len <- p + 2 + nl
end

let run ?max_cycles ?inject ?pmu ?(backend = Threaded) ?(domains = 1)
    (cfg : Config.t) ~program ~params ~global_size ~local_size ~mem =
  Ggpu_obs.Trace.with_span "fgpu.run"
    ~args:
      [
        ("cus", string_of_int cfg.Config.num_cus);
        ("global_size", string_of_int global_size);
        ("backend", backend_name backend);
      ]
  @@ fun () ->
  let t0_ns = Ggpu_obs.Metrics.now_ns () in
  let cfg = Config.validate cfg in
  if global_size < 0 then fail "negative global size";
  if local_size <= 0 then fail "non-positive local size";
  if local_size > cfg.Config.max_workitems_per_cu then
    fail "local size %d exceeds CU capacity %d" local_size
      cfg.Config.max_workitems_per_cu;
  if Array.length program = 0 then fail "empty program";
  if domains < 1 then fail "non-positive domain count";
  if global_size = 0 then Stats.create ()
  else begin
    let dprog = Ggpu_isa.Fgpu_predecode.of_program program in
    let prog_len = Array.length dprog in
    (* Instructions whose issue can touch state shared across CUs —
       cache/AXI arbitration (loads, stores), the global dispatch
       cursor (retirement), or barrier bookkeeping.  Everything else
       reads and writes only the issuing wavefront's registers, so its
       global timing order is unobservable; the event loop exploits
       that by bursting through such issues without heap traffic. *)
    let interactive =
      Array.map
        (fun d ->
          match d.Ggpu_isa.Fgpu_predecode.kind with
          | Ggpu_isa.Fgpu_predecode.KLw | Ggpu_isa.Fgpu_predecode.KSw
          | Ggpu_isa.Fgpu_predecode.KBarrier | Ggpu_isa.Fgpu_predecode.KRet ->
              true
          | _ -> false)
        dprog
    in
    let beats = Config.beats cfg in
    (* The PMU is a pure observer: [pmu_on] gates every touch of the
       collector, so a bare run pays one load-and-branch per issue and
       an instrumented run is bit-identical (nothing here feeds back
       into timing or stats).  [pmu_c] exists so the instrumented
       branch needs no option unwrap; the dummy is never written. *)
    let pmu_on = pmu <> None in
    let pmu_c =
      match pmu with
      | Some p ->
          if Ggpu_pmu.Pmu.num_cus p <> cfg.Config.num_cus then
            fail "PMU collector sized for %d CUs, config has %d"
              (Ggpu_pmu.Pmu.num_cus p) cfg.Config.num_cus;
          p
      | None -> Ggpu_pmu.Pmu.create ~num_cus:1 ~prog_len:0 ()
    in
    let wf_size = cfg.Config.wavefront_size in
    let num_wgs = (global_size + local_size - 1) / local_size in
    let wfs_per_wg = Config.wavefronts_per_workgroup cfg ~local_size in
    (* the simulator's working copy of global memory: unboxed native
       ints, copied back into the caller's [int32 array] on every exit
       path so partial results survive watchdogs and faults *)
    let imem = Array.map Ggpu_isa.I32.of_int32 mem in
    let copy_back () =
      for i = 0 to Array.length mem - 1 do
        mem.(i) <- Ggpu_isa.I32.to_int32 imem.(i)
      done
    in
    Fun.protect ~finally:copy_back @@ fun () ->
    let line_words = cfg.Config.cache.Config.line_words in
    (* how an issue executes its lanes; both backends write the same
       architectural state and the same outcome record *)
    let issue_arch : Wavefront.t -> Wavefront.outcome -> unit =
      match backend with
      | Threaded ->
          (* eta-expanded: a partial application here would send every
             issue through caml_curry with a fresh intermediate closure *)
          let th = Threaded.compile dprog ~wf_size ~mem:imem ~line_words in
          fun wf out -> Threaded.issue th wf out
      | Interp -> fun wf out -> Wavefront.issue wf ~dprog ~mem:imem ~line_words out
    in
    (* [reuse ()] offers a retired wavefront whose storage the new one
       may take over *)
    let make_wg ~reuse wg_id =
      let wavefronts =
        Array.init wfs_per_wg (fun wf_index ->
            Wavefront.create ?reuse:(reuse ()) ~wg_id ~wf_index ~size:wf_size
              ~wg_offset:(wg_id * local_size)
              ~wg_size:(min local_size (global_size - (wg_id * local_size)))
              ~global_size ~params ())
      in
      {
        wg_id;
        wavefronts;
        barrier_waiting = 0;
        finished_wfs = 0;
        items = wfs_per_wg * wf_size;
      }
    in
    let dummy_wg =
      { wg_id = -1; wavefronts = [||]; barrier_waiting = 0; finished_wfs = 0; items = 0 }
    in
    let dummy_wf =
      Wavefront.create ~wg_id:(-1) ~wf_index:0 ~size:1 ~wg_offset:0 ~wg_size:0
        ~global_size:0 ~params:[] ()
    in
    let slot_capacity =
      max wfs_per_wg (cfg.Config.max_workitems_per_cu / wf_size)
    in
    (* Split-mode is only sound when nothing needs to see or bound the
       architectural state mid-flight. *)
    let use_split =
      domains > 1 && Option.is_none inject && Option.is_none max_cycles
      && wfs_per_wg * wf_size <= cfg.Config.max_workitems_per_cu
    in
    (* Phase A: run every workgroup functionally, workgroups fanned out
       over domains.  Within a workgroup, wavefronts run in slot order
       in barrier-delimited rounds: each runs until it hits a barrier
       or retires, then all arrived wavefronts are released together —
       the architectural barrier semantics, independent of the timing
       interleaving phase B will choose.  Always runs every wavefront
       to retirement, so the traces cover any schedule phase B picks
       (a replay that needs less — a kernel whose sequential schedule
       deadlocks — fails and falls back to sequential execution). *)
    let exec_traces () =
      let exec_wg wg_id =
        let wg = make_wg ~reuse:(fun () -> None) wg_id in
        let wfs = wg.wavefronts in
        let nw = Array.length wfs in
        let out = Wavefront.make_outcome ~max_lanes:wf_size in
        let bufs = Array.init nw (fun _ -> Tbuf.create ()) in
        let again = ref true in
        while !again do
          again := false;
          for i = 0 to nw - 1 do
            let wf = wfs.(i) in
            if runnable wf then begin
              let stop = ref false in
              while not !stop do
                issue_arch wf out;
                Tbuf.record bufs.(i) out;
                if out.Wavefront.hit_barrier then begin
                  wf.Wavefront.at_barrier <- true;
                  stop := true
                end
                else if out.Wavefront.retired then stop := true
              done
            end
          done;
          Array.iter
            (fun wf ->
              if wf.Wavefront.at_barrier then begin
                wf.Wavefront.at_barrier <- false;
                again := true
              end)
            wfs
        done;
        bufs
      in
      let results =
        Ggpu_par.Parallel.map ~domains exec_wg (List.init num_wgs Fun.id)
      in
      Array.of_list results
    in
    (* The discrete-event simulation proper.  With [traces] the issue
       step replays the recorded streams; without, it executes lanes in
       place.  Everything else — dispatch, scheduling, cache and AXI
       arbitration, stats, PMU — is the same code either way. *)
    let simulate ~(traces : Tbuf.t array array option) =
      let stats = Stats.create () in
      let cache = Cache.create cfg ~stats in
      let cus =
        Array.init cfg.Config.num_cus (fun cu_id ->
            {
              cu_id;
              vu_free = 0;
              wf_slots = Array.make slot_capacity dummy_wf;
              wg_slots = Array.make slot_capacity dummy_wg;
              n_wfs = 0;
              resident_items = 0;
              rr = 0;
              cand = no_candidate;
              cand_valid = false;
            })
      in
      let heap = Event_heap.create ~dummy:() in
      (* Heap keys pack (time, cu_id) so that equal-time events pop in
         CU order.  The pop sequence is then a pure function of the
         event *values* — never of push history or internal heap layout
         — which is what lets the burst path below skip heap traffic for
         CU-local issues without perturbing the order in which shared
         state (cache ports, dispatch cursor) is touched. *)
      let cu_bits =
        let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
        bits (cfg.Config.num_cus - 1) 1
      in
      let cu_mask = (1 lsl cu_bits) - 1 in
      let push_event t cu_id =
        Event_heap.push heap ((t lsl cu_bits) lor cu_id) ()
      in
      let schedule cu =
        let t = candidate_time cu in
        if t <> no_candidate then push_event t cu.cu_id
      in
      let next_wg = ref 0 in
      (* Wavefronts of retired workgroups, whose register files the next
         dispatched workgroup takes over instead of allocating *)
      let spare = Stack.create () in
      let reuse () = Stack.pop_opt spare in
      (* One sample of [cu]'s wavefront-occupancy track, in simulated
         cycles; emitted at the points where occupancy changes (dispatch,
         barrier entry/release, retirement). *)
      let pmu_occupancy cu ~now =
        if pmu_on && Ggpu_obs.Trace.enabled () then begin
          let active = ref 0 in
          for i = 0 to cu.n_wfs - 1 do
            if runnable cu.wf_slots.(i) then incr active
          done;
          Ggpu_pmu.Pmu.occupancy ~cu:cu.cu_id ~now ~resident:cu.n_wfs
            ~active:!active
        end
      in
      (* Hand out at most one workgroup per call, so pending workgroups
         spread round-robin over CUs instead of piling onto the first. *)
      let dispatch_one cu ~now =
        if
          !next_wg < num_wgs
          && cu.resident_items + (wfs_per_wg * wf_size)
             <= cfg.Config.max_workitems_per_cu
        then begin
          let wg = make_wg ~reuse !next_wg in
          incr next_wg;
          Array.iter
            (fun wf ->
              wf.Wavefront.ready_at <- now;
              wf.Wavefront.last_cu <- cu.cu_id;
              wf.Wavefront.dispatched_at <- now;
              cu.wf_slots.(cu.n_wfs) <- wf;
              cu.wg_slots.(cu.n_wfs) <- wg;
              cu.n_wfs <- cu.n_wfs + 1)
            wg.wavefronts;
          cu.resident_items <- cu.resident_items + wg.items;
          invalidate cu;
          pmu_occupancy cu ~now;
          true
        end
        else false
      in
      (* initial dispatch, round-robin over CUs *)
      let made_progress = ref true in
      while !next_wg < num_wgs && !made_progress do
        made_progress := false;
        Array.iter
          (fun cu ->
            if dispatch_one cu ~now:0 then made_progress := true)
          cus
      done;
      if !next_wg = 0 then
        fail "workgroup of %d items does not fit any CU (capacity %d)"
          local_size cfg.Config.max_workitems_per_cu;
      Array.iter schedule cus;
      (* the round-robin advance [pick_wavefront] used to apply on a hit *)
      let commit_rr cu idx =
        cu.rr <- (if idx + 1 = cu.n_wfs then 0 else idx + 1)
      in
      let release_barrier cu wg ~now =
        Array.iter
          (fun wf ->
            if wf.Wavefront.at_barrier then begin
              wf.Wavefront.at_barrier <- false;
              wf.Wavefront.ready_at <- max wf.Wavefront.ready_at now
            end)
          wg.wavefronts;
        wg.barrier_waiting <- 0;
        invalidate cu
      in
      (* drop a fully-retired workgroup, preserving the slot order of the
         survivors (the round-robin cursor is deliberately left alone,
         exactly as the old list filter left it) *)
      let remove_wg cu wg =
        let j = ref 0 in
        for i = 0 to cu.n_wfs - 1 do
          if cu.wg_slots.(i).wg_id <> wg.wg_id then begin
            cu.wf_slots.(!j) <- cu.wf_slots.(i);
            cu.wg_slots.(!j) <- cu.wg_slots.(i);
            incr j
          end
        done;
        for i = !j to cu.n_wfs - 1 do
          cu.wf_slots.(i) <- dummy_wf;
          cu.wg_slots.(i) <- dummy_wg
        done;
        cu.n_wfs <- !j;
        cu.resident_items <- cu.resident_items - wg.items;
        Array.iter (fun wf -> Stack.push wf spare) wg.wavefronts;
        invalidate cu
      in
      let out = Wavefront.make_outcome ~max_lanes:wf_size in
      (* Charge the issue's coalesced lines to the cache newest-first,
         matching the consed list the old issue path handed to the
         (stateful, order-sensitive) port arbiter; returns the latest
         completion. *)
      let rec mem_loop now i acc =
        if i < 0 then acc
        else
          let c =
            Cache.access cache ~now ~addr:out.Wavefront.mem_lines.(i)
              ~write:out.Wavefront.mem_is_store
          in
          mem_loop now (i - 1) (if c > acc then c else acc)
      in
      let cursors =
        match traces with
        | None -> [||]
        | Some tr ->
            Array.map (fun bufs -> Array.make (Array.length bufs) 0) tr
      in
      let issue_into : Wavefront.t -> Wavefront.outcome -> unit =
        match traces with
        | None -> issue_arch
        | Some tr ->
            fun wf out ->
              let wg = wf.Wavefront.wg_id and wi = wf.Wavefront.wf_index in
              let b = tr.(wg).(wi) in
              let p = cursors.(wg).(wi) in
              if p >= b.Tbuf.len then
                fail "replay desync: trace exhausted for wg %d wf %d" wg wi;
              let a = b.Tbuf.buf in
              out.Wavefront.pc <- Array.unsafe_get a p;
              let meta = Array.unsafe_get a (p + 1) in
              out.Wavefront.executed_lanes <- meta land 0xFFFF;
              let nl = (meta lsr 16) land 0xFFFF in
              out.Wavefront.mem_line_count <- nl;
              let flags = meta lsr 32 in
              out.Wavefront.partial_mask <- flags land 1 <> 0;
              out.Wavefront.mem_is_store <- flags land 2 <> 0;
              out.Wavefront.used_div <- flags land 4 <> 0;
              out.Wavefront.used_mul <- flags land 8 <> 0;
              out.Wavefront.taken_branch <- flags land 16 <> 0;
              out.Wavefront.hit_barrier <- flags land 32 <> 0;
              let retired = flags land 64 <> 0 in
              out.Wavefront.retired <- retired;
              for i = 0 to nl - 1 do
                out.Wavefront.mem_lines.(i) <- Array.unsafe_get a (p + 2 + i)
              done;
              cursors.(wg).(wi) <- p + 2 + nl;
              (* memory already holds phase A's writes; only the
                 scheduler-visible liveness needs maintaining *)
              if retired then wf.Wavefront.live_lanes <- 0
      in
      (* The pc the wavefront's next issue will execute, read without
         mutating anything: the burst check consults [interactive] with
         it.  Out-of-range (a fault about to be raised, an exhausted
         replay trace) answers -1, which the burst check treats as
         interactive so the normal path reports it in event order. *)
      let peek_pc : Wavefront.t -> int =
        match traces with
        | None ->
            fun wf ->
              if wf.Wavefront.conv_pc >= 0 then wf.Wavefront.conv_pc
              else Wavefront.min_pc wf
        | Some tr ->
            fun wf ->
              let wg = wf.Wavefront.wg_id and wi = wf.Wavefront.wf_index in
              let b = tr.(wg).(wi) in
              let p = cursors.(wg).(wi) in
              if p >= b.Tbuf.len then -1 else b.Tbuf.buf.(p)
      in
      let pending_inject = ref inject in
      let watchdog = Option.is_some max_cycles in
      (* Execute one issue for the wavefront in slot [idx] of [cu] at
         cycle [t], then either chase the CU's next issue directly (the
         burst path) or hand the CU back to the event heap.

         Burst rule: while nothing demands a globally-ordered view of
         the run — no pending injection, no watchdog — and the pc the
         CU would issue next is non-[interactive], that issue reads and
         writes only its own wavefront's registers.  Its outcome and
         timing are independent of every event on other CUs, so it can
         run immediately instead of round-tripping through the heap.
         Every load, store, barrier, retirement and fault still surfaces
         through the heap in global event order, which keeps cache
         arbitration, workgroup dispatch, watchdog and injection
         semantics bit-identical to the unbursted loop.  An attached
         PMU does not need that order: each burst issue updates only
         its own CU's accounting row, sample cursor and the issuing
         wavefront's stall kind, plus two sums ([hot], [samples]) whose
         order does not matter, and the occupancy and lifetime events
         fire only on barrier and retire issues, which never burst. *)
      let rec do_issue cu t idx =
        commit_rr cu idx;
        let wf = Array.unsafe_get cu.wf_slots idx in
        let wg = Array.unsafe_get cu.wg_slots idx in
        issue_into wf out;
        stats.Stats.wf_instructions <- stats.Stats.wf_instructions + 1;
        stats.Stats.lane_instructions <-
          stats.Stats.lane_instructions + out.Wavefront.executed_lanes;
        if out.Wavefront.partial_mask then
          stats.Stats.divergent_issues <- stats.Stats.divergent_issues + 1;
        (* a division holds the CU's shared iterative divider (and with
           it the vector pipeline) for every active lane *)
        let div_occupancy =
          if out.Wavefront.used_div then
            out.Wavefront.executed_lanes * cfg.Config.div_latency
          else 0
        in
        cu.vu_free <- t + beats + div_occupancy + cfg.Config.issue_overhead;
        stats.Stats.vu_busy_cycles <-
          stats.Stats.vu_busy_cycles + beats + div_occupancy;
        let completion = t + beats + div_occupancy in
        let completion =
          if out.Wavefront.mem_line_count > 0 then begin
            if out.Wavefront.mem_is_store then
              stats.Stats.stores <- stats.Stats.stores + 1
            else stats.Stats.loads <- stats.Stats.loads + 1;
            mem_loop (t + beats) (out.Wavefront.mem_line_count - 1) completion
          end
          else completion
        in
        let completion =
          if out.Wavefront.used_mul then completion + cfg.Config.mul_latency
          else completion
        in
        let completion =
          if out.Wavefront.taken_branch then
            completion + cfg.Config.branch_penalty
          else completion
        in
        wf.Wavefront.ready_at <- completion;
        if completion > stats.Stats.cycles then
          stats.Stats.cycles <- completion;
        if out.Wavefront.hit_barrier then begin
          stats.Stats.barriers <- stats.Stats.barriers + 1;
          wf.Wavefront.at_barrier <- true;
          wg.barrier_waiting <- wg.barrier_waiting + 1;
          let active =
            Array.fold_left
              (fun n w -> if Wavefront.finished w then n else n + 1)
              0 wg.wavefronts
          in
          if wg.barrier_waiting >= active then
            release_barrier cu wg ~now:completion;
          pmu_occupancy cu ~now:completion
        end;
        if out.Wavefront.retired then begin
          wg.finished_wfs <- wg.finished_wfs + 1;
          if wg.finished_wfs = Array.length wg.wavefronts then begin
            stats.Stats.workgroups <- stats.Stats.workgroups + 1;
            remove_wg cu wg;
            ignore (dispatch_one cu ~now:completion : bool);
            pmu_occupancy cu ~now:completion
          end
        end;
        if pmu_on then begin
          (* Close the CU's timeline up to this issue: the idle gap is
             charged to whatever the issuing wavefront was waiting on,
             the busy slice to (divergent) issue.  Then classify what
             this issue's completion waits on, for the next gap. *)
          Ggpu_pmu.Pmu.on_issue pmu_c ~cu:cu.cu_id ~now:t
            ~busy:(beats + div_occupancy + cfg.Config.issue_overhead)
            ~pc:out.Wavefront.pc ~divergent:out.Wavefront.partial_mask
            ~stall:wf.Wavefront.stall_kind;
          wf.Wavefront.stall_kind <-
            (if out.Wavefront.hit_barrier then Ggpu_pmu.Pmu.sk_barrier
             else if out.Wavefront.mem_line_count > 0 then
               Ggpu_pmu.Pmu.sk_of_mem_class (Cache.take_access_class cache)
             else Ggpu_pmu.Pmu.sk_latency);
          if out.Wavefront.retired then
            Ggpu_pmu.Pmu.wf_span ~cu:cu.cu_id ~wg:wf.Wavefront.wg_id
              ~wf:wf.Wavefront.wf_index
              ~dispatched:wf.Wavefront.dispatched_at ~retired:completion
        end;
        if watchdog || Option.is_some !pending_inject then begin
          invalidate cu;
          schedule cu
        end
        else begin
          let idx' = next_issue cu in
          if idx' >= 0 then begin
            let t' = cu.cand in
            let pc = peek_pc cu.wf_slots.(idx') in
            if
              pc >= 0 && pc < prog_len
              && not (Array.unsafe_get interactive pc)
            then do_issue cu t' idx'
            else push_event t' cu.cu_id
          end
        end
      in
      (* main event loop *)
      let events_popped = ref 0 and heap_depth_max = ref 0 in
      while not (Event_heap.is_empty heap) do
        let key = Event_heap.pop_time heap in
        let t = key asr cu_bits and cu_id = key land cu_mask in
        incr events_popped;
        let depth = Event_heap.length heap in
        if depth > !heap_depth_max then heap_depth_max := depth;
        (match max_cycles with
        | Some limit when t > limit -> raise (Watchdog_timeout t)
        | _ -> ());
        (match !pending_inject with
        | Some (at, f) when t >= at ->
            pending_inject := None;
            let resident =
              Array.concat
                (Array.to_list
                   (Array.map (fun cu -> Array.sub cu.wf_slots 0 cu.n_wfs) cus))
            in
            (* converged wavefronts keep [pcs] stale; make it real before
               the injector reads or rewrites per-lane state *)
            Array.iter Wavefront.materialize_pcs resident;
            f { p_now = t; p_wavefronts = resident; p_cache = cache; p_mem = imem };
            (* injected state may have made an idle CU runnable again (a
               revived lane): re-arm every CU; stale events are harmless *)
            Array.iter invalidate cus;
            Array.iter schedule cus
        | _ -> ());
        let cu = cus.(cu_id) in
        let cand = candidate_time cu in
        if cand = no_candidate then () (* stale: nothing runnable here anymore *)
        else if cand > t then push_event cand cu.cu_id
        else begin
          let idx = pick_wavefront cu t in
          if idx < 0 then
            (* candidate_time guarantees a ready wavefront exists *)
            fail "scheduler inconsistency on CU %d at cycle %d" cu.cu_id t;
          do_issue cu t idx
        end
      done;
      if !next_wg < num_wgs then
        fail "deadlock: %d workgroups never dispatched" (num_wgs - !next_wg);
      (* a healthy run retires every wavefront before the heap drains; a
         corrupted one (e.g. a fault-injected lane lost before a barrier)
         can quiesce with work still resident - report it instead of
         returning a silently partial result *)
      let stuck =
        Array.fold_left
          (fun n cu ->
            let n = ref n in
            for i = 0 to cu.n_wfs - 1 do
              if not (Wavefront.finished cu.wf_slots.(i)) then incr n
            done;
            !n)
          0 cus
      in
      if stuck > 0 then fail "deadlock: %d wavefronts never retired" stuck;
      if pmu_on then Ggpu_pmu.Pmu.finalize pmu_c ~cycles:stats.Stats.cycles;
      if Ggpu_obs.Metrics.ambient_enabled () then begin
        let wall_ns = max 1 (Ggpu_obs.Metrics.now_ns () - t0_ns) in
        Ggpu_obs.Metrics.count "sim.fgpu.runs" 1;
        Ggpu_obs.Metrics.count "sim.fgpu.cycles" stats.Stats.cycles;
        Ggpu_obs.Metrics.count "sim.fgpu.wf_instructions"
          stats.Stats.wf_instructions;
        Ggpu_obs.Metrics.count "sim.fgpu.wall_ns" wall_ns;
        Ggpu_obs.Metrics.count "sim.fgpu.events" !events_popped;
        Ggpu_obs.Metrics.record_gauge "sim.fgpu.heap_depth" !heap_depth_max;
        Ggpu_obs.Metrics.record_gauge "sim.fgpu.kcycles_per_s"
          (stats.Stats.cycles * 1_000_000 / wall_ns)
      end;
      stats
    in
    if use_split then begin
      (* phase A mutates global memory; snapshot it so a fallback can
         repeat the run with exact sequential semantics *)
      let imem0 = Array.copy imem in
      match
        let traces = exec_traces () in
        if Ggpu_obs.Metrics.ambient_enabled () then
          Ggpu_obs.Metrics.count "sim.fgpu.split_runs" 1;
        simulate ~traces:(Some traces)
      with
      | stats -> stats
      | exception (Wavefront.Fault _ | Launch_error _) ->
          Array.blit imem0 0 imem 0 (Array.length imem0);
          if Ggpu_obs.Metrics.ambient_enabled () then
            Ggpu_obs.Metrics.count "sim.fgpu.split_fallbacks" 1;
          simulate ~traces:None
    end
    else simulate ~traces:None
  end
