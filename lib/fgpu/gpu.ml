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
   top-level functions rather than per-call closures, the event heap
   holds bare int keys that carry the CU id, and the issue itself
   writes into a reused outcome record.  Nor does it call C or divide:
   integer [max]/[min] go through [Int] (the polymorphic ones compare
   in C), and the round-robin cursor is reduced with [mod] only after a
   retirement left it past the resident set.  Each dispatched
   workgroup allocates its wavefront records.  In an in-place run or a
   record pass on one domain it takes their register files — 33 x 64
   words each, too large for the minor heap — from workgroups that
   retired earlier in the launch, so short, wide launches do not churn
   the major heap.  A replay's wavefronts have no register file at all
   ({!Wavefront.timing_only}).

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

   An issue executes its lanes through per-pc closures compiled once
   per launch ({!Threaded}).  [with_issue] lets a test substitute
   another lane engine — the reference in [test/fgpu_oracle.ml] — for
   the launches it makes; the golden cycle table and the differential
   property tests hold the two to identical architectural state.

   Record and replay splits a launch into a functional pass and a
   timing pass.  Timing is not decomposable per CU (every memory issue
   arbitrates for the shared cache's ports and the AXI bus, and
   workgroup dispatch consults a global cursor), but the functional
   execution is: workgroups only interact through barriers within
   themselves, so each workgroup's lane work can run on its own, in
   any order and on any domain.  The record pass executes all
   workgroups functionally ({!Ggpu_par.Parallel.map} over [domains]),
   recording each wavefront's issue stream (pc, lane counts,
   coalesced lines, flags) into a compact trace ({!Tbuf}).  A replay
   runs those traces through the unchanged scheduler — same heap,
   same cache arbitration, same dispatch, same PMU hooks — so every
   timing decision is made by exactly the code that makes it in
   place, and the result is bit-identical by construction.  Registers,
   memory and issue streams do not depend on the CU count, so
   [run_cus] records once and replays once per count, each replay
   from a fresh cache, heap and stats.  One count on one domain runs
   in place: a record pass plus one replay costs more.  Runs that need
   mid-flight architectural access (fault injection, watchdog
   truncation) run in place, as does every count of a launch whose
   record pass faults or whose replay desynchronises (possible only
   for racy or non-uniformly-synchronised kernels): global memory is
   restored from a snapshot before each count, giving exactly the
   in-place semantics including partial-result state.

   A replay with no PMU collector takes most of its issues through a
   lean burst step instead: wherever a burst continues into a
   non-interactive pc, the step reads the wavefront's record in place
   (pc and meta varints at its cursor), applies [time_issue], the
   timing update [do_issue] applies too, to an issue with no memory
   line, barrier or retirement, picks the next wavefront and peeks its
   record pc — no outcome record, no closure call, no allocation.  It
   is exact because a non-interactive pc never touches memory, a
   barrier or a retirement, so [do_issue] would do nothing else with
   that issue.  Heap pops, interactive issues, in-place runs and
   PMU-attached replays keep [do_issue]; a record at a non-interactive
   pc that carries lines or a barrier or retire flag is a desync. *)

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

type issue =
  Ggpu_isa.Fgpu_predecode.t array ->
  mem:int array ->
  line_words:int ->
  Wavefront.t ->
  Wavefront.outcome ->
  unit

(* The lane engine a test substituted on this domain; [None] runs
   {!Threaded}.  Read once per launch, before any work fans out. *)
let issue_override : issue option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_issue issue f =
  let prev = Domain.DLS.get issue_override in
  Domain.DLS.set issue_override (Some issue);
  Fun.protect ~finally:(fun () -> Domain.DLS.set issue_override prev) f

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
    let c =
      if !best = no_candidate then no_candidate else Int.max cu.vu_free !best
    in
    cu.cand <- c;
    cu.cand_valid <- true;
    c
  end

let invalidate cu = cu.cand_valid <- false

(* The round-robin cursor as a slot index.  [commit_rr] keeps it below
   the slot count; only a retirement that shrank the slots can leave it
   past them, so the division runs only then. *)
let[@inline] rr_slot cu n =
  let rr = cu.rr in
  if rr < n then rr else rr mod n

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
    let rr = rr_slot cu n in
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
   without the per-probe division.  The caller commits the cursor once
   it decides to issue the winner. *)
let rec probe_ready (slots : Wavefront.t array) n t idx k =
  if k >= n then -1
  else
    let wf = Array.unsafe_get slots idx in
    if runnable wf && wf.Wavefront.ready_at <= t then idx
    else probe_ready slots n t (if idx + 1 = n then 0 else idx + 1) (k + 1)

let pick_wavefront cu t =
  let n = cu.n_wfs in
  probe_ready cu.wf_slots n t (rr_slot cu n) 0

(* One wavefront's recorded issue stream for replay: a byte string of
   LEB128 varints (7 bits per byte, high bit set on every byte but the
   last).  Per issue: the pc; then one word packing the executed-lane
   count (low [lane_bits] bits), the coalesced line count (the next
   [lane_bits]) and, above them, the outcome's flag word as it is
   ({!Wavefront}'s [f_*] bits); then each line as its index (byte
   address over line size).  A full-width issue with no memory access
   and no flag takes two bytes.  Every field is non-negative: a
   recorded stream comes from a record pass that did not fault, so its
   lines passed the range check. *)
module Tbuf = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 64; len = 0 }

  (* bytes a varint of a non-negative int can take *)
  let max_varint = 9

  let rec put_slow buf p v =
    if v < 0x80 then begin
      Bytes.unsafe_set buf p (Char.unsafe_chr v);
      p + 1
    end
    else begin
      Bytes.unsafe_set buf p (Char.unsafe_chr (v land 0x7F lor 0x80));
      put_slow buf (p + 1) (v lsr 7)
    end

  (* write [v] at [p]; returns the position after it *)
  let[@inline] put buf p v =
    if v < 0x80 then begin
      Bytes.unsafe_set buf p (Char.unsafe_chr v);
      p + 1
    end
    else put_slow buf p v

  (* [lane_bits] holds any lane or line count of the launch *)
  let record b ~lane_bits ~line_bytes (out : Wavefront.outcome) =
    let nl = out.Wavefront.mem_line_count in
    let need = b.len + (max_varint * (2 + nl)) in
    if need > Bytes.length b.buf then begin
      let a = Bytes.create (Int.max (2 * Bytes.length b.buf) need) in
      Bytes.blit b.buf 0 a 0 b.len;
      b.buf <- a
    end;
    let buf = b.buf in
    let p = put buf b.len out.Wavefront.pc in
    let p =
      ref
        (put buf p
           (out.Wavefront.executed_lanes lor (nl lsl lane_bits)
           lor (out.Wavefront.flags lsl (2 * lane_bits))))
    in
    for i = 0 to nl - 1 do
      p := put buf !p (out.Wavefront.mem_lines.(i) / line_bytes)
    done;
    b.len <- !p

  (* A read position.  The stream's bytes are passed to each read, so
     moving a reader between streams writes only an int. *)
  type reader = { mutable pos : int }

  let reader () = { pos = 0 }

  let rec get_slow buf r v shift =
    let c = Char.code (Bytes.unsafe_get buf r.pos) in
    r.pos <- r.pos + 1;
    let v = v lor ((c land 0x7F) lsl shift) in
    if c < 0x80 then v else get_slow buf r v (shift + 7)

  (* the varint at the reader's position, which moves past it *)
  let[@inline] get buf r =
    let c = Char.code (Bytes.unsafe_get buf r.pos) in
    r.pos <- r.pos + 1;
    if c < 0x80 then c else get_slow buf r (c land 0x7F) 7

  (* The fields of a meta word: the executed-lane count, the line
     count and the outcome's flag word *)
  let[@inline] lanes ~lane_bits meta = meta land ((1 lsl lane_bits) - 1)

  let[@inline] lines ~lane_bits meta =
    (meta lsr lane_bits) land ((1 lsl lane_bits) - 1)

  let[@inline] flags ~lane_bits meta = meta lsr (2 * lane_bits)

  (* an issue with no memory line, barrier or retirement *)
  let[@inline] register_only ~lane_bits meta =
    lines ~lane_bits meta = 0
    && flags ~lane_bits meta land (Wavefront.f_barrier lor Wavefront.f_retire)
       = 0

  (* Decode the issue at the reader's position into [out], moving past
     it; the inverse of [record]. *)
  let read buf r ~lane_bits ~line_bytes (out : Wavefront.outcome) =
    out.Wavefront.pc <- get buf r;
    let meta = get buf r in
    out.Wavefront.executed_lanes <- lanes ~lane_bits meta;
    let nl = lines ~lane_bits meta in
    out.Wavefront.mem_line_count <- nl;
    out.Wavefront.flags <- flags ~lane_bits meta;
    for i = 0 to nl - 1 do
      out.Wavefront.mem_lines.(i) <- get buf r * line_bytes
    done
end

(* [run_cus] with the single-count options: [inject], [max_cycles] and
   [pmu] need one count, and only [run] passes them. *)
let launch ?max_cycles ?inject ?pmu ?(domains = 1) (base : Config.t) ~cus
    ~program ~params ~global_size ~local_size ~mem =
  Ggpu_obs.Trace.with_span "fgpu.run"
    ~args:
      [
        ("cus", String.concat "," (List.map string_of_int cus));
        ("global_size", string_of_int global_size);
      ]
  @@ fun () ->
  (* where the wall time of the next published run starts *)
  let mark_ns = ref (Ggpu_obs.Metrics.now_ns ()) in
  if cus = [] then fail "empty CU-count list";
  let cfgs = List.map (Config.with_cus base) cus in
  (* Only [num_cus] differs between counts: the launch geometry, line
     size and timing parameters below are shared by every count. *)
  let cfg = List.hd cfgs in
  if global_size < 0 then fail "negative global size";
  if local_size <= 0 then fail "non-positive local size";
  if local_size > cfg.Config.max_workitems_per_cu then
    fail "local size %d exceeds CU capacity %d" local_size
      cfg.Config.max_workitems_per_cu;
  if Array.length program = 0 then fail "empty program";
  if domains < 1 then fail "non-positive domain count";
  if global_size = 0 then List.map (fun _ -> Stats.create ()) cfgs
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
    let line_words = cfg.Config.cache.Config.line_words in
    let line_bytes = 4 * line_words in
    (* bits that hold any count up to [wf_size] *)
    let lane_bits =
      let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
      width wf_size
    in
    (* how an issue executes its lanes *)
    let issue_arch : Wavefront.t -> Wavefront.outcome -> unit =
      match Domain.DLS.get issue_override with
      | None ->
          (* eta-expanded: a partial application here would send every
             issue through caml_curry with a fresh intermediate closure *)
          let th = Threaded.compile dprog ~wf_size ~mem ~line_words in
          fun wf out -> Threaded.issue th wf out
      | Some issue -> fun wf out -> issue dprog ~mem ~line_words wf out
    in
    (* [reuse ()] offers a retired wavefront whose storage the new one
       may take over; [reuse = None] builds timing-only wavefronts, for a
       replay *)
    let make_wg ~reuse wg_id =
      let wg_offset = wg_id * local_size in
      (* [Wgsize] reads the launch's local size in a tail workgroup
         too, as the reference interpreter and the RISC-V build do; its
         live lanes still stop at the global size *)
      let wg_size = local_size in
      let wavefronts =
        Array.init wfs_per_wg (fun wf_index ->
            match reuse with
            | Some reuse ->
                Wavefront.create ?reuse:(reuse ()) ~wg_id ~wf_index
                  ~size:wf_size ~wg_offset ~wg_size ~global_size ~params ()
            | None ->
                Wavefront.timing_only ~wg_id ~wf_index ~size:wf_size
                  ~wg_offset ~wg_size ~global_size)
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
      Wavefront.timing_only ~wg_id:(-1) ~wf_index:0 ~size:1 ~wg_offset:0
        ~wg_size:0 ~global_size:0
    in
    let slot_capacity =
      Int.max wfs_per_wg (cfg.Config.max_workitems_per_cu / wf_size)
    in
    (* Recording is worth it when its streams are replayed more than
       once or its functional work fans out over domains, and sound only
       when nothing needs to see or bound the architectural state
       mid-flight. *)
    let record =
      (List.compare_length_with cfgs 1 > 0 || domains > 1)
      && Option.is_none inject && Option.is_none max_cycles
      && wfs_per_wg * wf_size <= cfg.Config.max_workitems_per_cu
    in
    (* The record pass: run every workgroup functionally, workgroups
       fanned out over domains.  Within a workgroup, wavefronts run in
       slot order in barrier-delimited rounds: each runs until it hits a
       barrier or retires, then all arrived wavefronts are released
       together — the architectural barrier semantics, independent of
       the timing interleaving a replay will choose.  Always runs every
       wavefront to retirement, so the traces cover any schedule a
       replay picks (a replay that needs less — a kernel whose
       sequential schedule deadlocks — fails and falls back to in-place
       execution).  On one domain the workgroups run one after another,
       and each takes its register files from the one before. *)
    let record_pass () =
      let spare = Stack.create () in
      let reuse () = if domains = 1 then Stack.pop_opt spare else None in
      let exec_wg wg_id =
        let wg = make_wg ~reuse:(Some reuse) wg_id in
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
                Tbuf.record bufs.(i) ~lane_bits ~line_bytes out;
                let flags = out.Wavefront.flags in
                if flags land Wavefront.f_barrier <> 0 then begin
                  wf.Wavefront.at_barrier <- true;
                  stop := true
                end
                else if flags land Wavefront.f_retire <> 0 then stop := true
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
        if domains = 1 then Array.iter (fun wf -> Stack.push wf spare) wfs;
        bufs
      in
      (* one stream per wavefront, indexed [wg_id * wfs_per_wg + wf_index] *)
      Array.concat
        (Ggpu_par.Parallel.map ~domains exec_wg (List.init num_wgs Fun.id))
    in
    (* The discrete-event simulation proper, at [cfg]'s CU count.  With
       [traces] the issue step replays the recorded streams; without, it
       executes lanes in place.  Everything else — dispatch, scheduling,
       cache and AXI arbitration, stats, PMU — is the same code either
       way, and every call starts from its own cache, event heap and
       stats.  Returns the stats with the event count, peak heap depth
       and end time, which [publish] reports once the run's result is
       kept. *)
    let simulate (cfg : Config.t) ~(traces : Tbuf.t array option) =
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
      let heap = Event_heap.create () in
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
        Event_heap.push heap ((t lsl cu_bits) lor cu_id)
      in
      let schedule cu =
        let t = candidate_time cu in
        if t <> no_candidate then push_event t cu.cu_id
      in
      let next_wg = ref 0 in
      (* Wavefronts of retired workgroups, whose register files the next
         dispatched workgroup takes over instead of allocating; a
         replay's have none *)
      let spare = Stack.create () in
      let reuse =
        if Option.is_some traces then None
        else Some (fun () -> Stack.pop_opt spare)
      in
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
              wf.Wavefront.ready_at <- Int.max wf.Wavefront.ready_at now
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
        if Option.is_some reuse then
          Array.iter (fun wf -> Stack.push wf spare) wg.wavefronts;
        invalidate cu
      in
      let out = Wavefront.make_outcome ~max_lanes:wf_size in
      (* Charge the issue's coalesced lines to the cache newest-first,
         matching the consed list the old issue path handed to the
         (stateful, order-sensitive) port arbiter; returns the latest
         completion. *)
      let rec mem_loop now ~write i acc =
        if i < 0 then acc
        else
          let c =
            Cache.access cache ~now ~addr:out.Wavefront.mem_lines.(i) ~write
          in
          mem_loop now ~write (i - 1) (if c > acc then c else acc)
      in
      (* a replay's streams (none in place), its read position in each
         and its reader *)
      let tr = Option.value traces ~default:[||] in
      let cursors = Array.make (Array.length tr) 0 in
      let rd = Tbuf.reader () in
      let stream (wf : Wavefront.t) =
        (wf.Wavefront.wg_id * wfs_per_wg) + wf.Wavefront.wf_index
      in
      (* The pc of stream [s]'s next record, leaving [rd] on the meta
         word after it; -1 once the stream is exhausted.  [s] comes from
         [stream], so it indexes both arrays. *)
      let[@inline] record_pc s =
        let b = Array.unsafe_get tr s and p = Array.unsafe_get cursors s in
        if p >= b.Tbuf.len then -1
        else begin
          rd.Tbuf.pos <- p;
          Tbuf.get b.Tbuf.buf rd
        end
      in
      let issue_into : Wavefront.t -> Wavefront.outcome -> unit =
        match traces with
        | None -> issue_arch
        | Some _ ->
            fun wf out ->
              let s = stream wf in
              let b = tr.(s) and p = cursors.(s) in
              if p >= b.Tbuf.len then
                fail "replay desync: trace exhausted for wg %d wf %d"
                  wf.Wavefront.wg_id wf.Wavefront.wf_index;
              rd.Tbuf.pos <- p;
              Tbuf.read b.Tbuf.buf rd ~lane_bits ~line_bytes out;
              cursors.(s) <- rd.Tbuf.pos;
              (* memory already holds the record pass's writes; only the
                 scheduler-visible liveness needs maintaining *)
              if out.Wavefront.flags land Wavefront.f_retire <> 0 then
                wf.Wavefront.live_lanes <- 0
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
        | Some _ -> fun wf -> record_pc (stream wf)
      in
      (* whether the CU may run an issue at [pc] at once: see the burst
         rule at [do_issue] *)
      let[@inline] bursts pc =
        pc >= 0 && pc < prog_len && not (Array.unsafe_get interactive pc)
      in
      let pending_inject = ref inject in
      let watchdog = Option.is_some max_cycles in
      (* The timing update of every issue: the counters, the divider's
         hold on the vector pipeline, the mul and branch latency.
         [flags] is the issue's flag word, the outcome's or a meta
         word's, which hold it alike; [mem_done] is the latest
         completion of its memory lines, 0 when it has none.  Returns
         the issue's completion. *)
      let div_latency = cfg.Config.div_latency
      and mul_latency = cfg.Config.mul_latency
      and branch_penalty = cfg.Config.branch_penalty
      and issue_overhead = cfg.Config.issue_overhead in
      let[@inline] time_issue cu (wf : Wavefront.t) t ~lanes ~flags
          ~mem_done =
        stats.Stats.wf_instructions <- stats.Stats.wf_instructions + 1;
        stats.Stats.lane_instructions <- stats.Stats.lane_instructions + lanes;
        if flags land Wavefront.f_partial <> 0 then
          stats.Stats.divergent_issues <- stats.Stats.divergent_issues + 1;
        (* a division holds the CU's shared iterative divider (and with
           it the vector pipeline) for every active lane *)
        let busy =
          if flags land Wavefront.f_div <> 0 then beats + (lanes * div_latency)
          else beats
        in
        cu.vu_free <- t + busy + issue_overhead;
        stats.Stats.vu_busy_cycles <- stats.Stats.vu_busy_cycles + busy;
        let completion = Int.max (t + busy) mem_done in
        let completion =
          if flags land Wavefront.f_mul <> 0 then completion + mul_latency
          else completion
        in
        let completion =
          if flags land Wavefront.f_branch <> 0 then completion + branch_penalty
          else completion
        in
        wf.Wavefront.ready_at <- completion;
        if completion > stats.Stats.cycles then stats.Stats.cycles <- completion;
        completion
      in
      (* The lean burst step (see the top of this file), for a replay
         with no collector attached; a replay never has a watchdog or an
         injection.  [lean_issue cu t idx s] issues the wavefront in slot
         [idx] of [cu] at cycle [t] whose next record, in stream [s], the
         caller peeked: its pc is non-[interactive] and [rd] sits on the
         meta word after it. *)
      let lean = Option.is_some traces && not pmu_on in
      let rec lean_issue cu t idx s =
        commit_rr cu idx;
        let wf = Array.unsafe_get cu.wf_slots idx in
        let meta = Tbuf.get (Array.unsafe_get tr s).Tbuf.buf rd in
        Array.unsafe_set cursors s rd.Tbuf.pos;
        if not (Tbuf.register_only ~lane_bits meta) then
          fail "replay desync: wg %d wf %d records a memory, barrier or \
                retire issue at a register-only pc"
            wf.Wavefront.wg_id wf.Wavefront.wf_index;
        let (_ : int) =
          time_issue cu wf t
            ~lanes:(Tbuf.lanes ~lane_bits meta)
            ~flags:(Tbuf.flags ~lane_bits meta)
            ~mem_done:0
        in
        lean_next cu
      (* [next_issue], then the burst check on the winner's record pc,
         read in place *)
      and lean_next cu =
        let idx = next_issue cu in
        if idx >= 0 then begin
          let t = cu.cand in
          let s = stream (Array.unsafe_get cu.wf_slots idx) in
          if bursts (record_pc s) then lean_issue cu t idx s
          else push_event t cu.cu_id
        end
      in
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
        let flags = out.Wavefront.flags in
        let mem_done =
          if out.Wavefront.mem_line_count > 0 then begin
            let write = flags land Wavefront.f_store <> 0 in
            if write then stats.Stats.stores <- stats.Stats.stores + 1
            else stats.Stats.loads <- stats.Stats.loads + 1;
            mem_loop (t + beats) ~write (out.Wavefront.mem_line_count - 1) 0
          end
          else 0
        in
        let completion =
          time_issue cu wf t ~lanes:out.Wavefront.executed_lanes ~flags
            ~mem_done
        in
        if flags land Wavefront.f_barrier <> 0 then begin
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
        if flags land Wavefront.f_retire <> 0 then begin
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
             the busy slice, up to [vu_free], to (divergent) issue.
             Then classify what
             this issue's completion waits on, for the next gap. *)
          Ggpu_pmu.Pmu.on_issue pmu_c ~cu:cu.cu_id ~now:t
            ~busy:(cu.vu_free - t)
            ~pc:out.Wavefront.pc
            ~divergent:(flags land Wavefront.f_partial <> 0)
            ~stall:wf.Wavefront.stall_kind;
          wf.Wavefront.stall_kind <-
            (if flags land Wavefront.f_barrier <> 0 then Ggpu_pmu.Pmu.sk_barrier
             else if out.Wavefront.mem_line_count > 0 then
               Ggpu_pmu.Pmu.sk_of_mem_class (Cache.take_access_class cache)
             else Ggpu_pmu.Pmu.sk_latency);
          if flags land Wavefront.f_retire <> 0 then
            Ggpu_pmu.Pmu.wf_span ~cu:cu.cu_id ~wg:wf.Wavefront.wg_id
              ~wf:wf.Wavefront.wf_index
              ~dispatched:wf.Wavefront.dispatched_at ~retired:completion
        end;
        if watchdog || Option.is_some !pending_inject then begin
          invalidate cu;
          schedule cu
        end
        else if lean then lean_next cu
        else begin
          let idx' = next_issue cu in
          if idx' >= 0 then begin
            let t' = cu.cand in
            if bursts (peek_pc cu.wf_slots.(idx')) then do_issue cu t' idx'
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
            f { p_now = t; p_wavefronts = resident; p_cache = cache; p_mem = mem };
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
      let end_ns =
        if Ggpu_obs.Metrics.ambient_enabled () then Ggpu_obs.Metrics.now_ns ()
        else 0
      in
      (stats, !events_popped, !heap_depth_max, end_ns)
    in
    (* Report a run whose result the launch keeps.  Its wall time runs
       from the end of the previous kept run (or the launch's start), so
       a replay's includes nothing of the replays before it, the first
       includes the record pass, and the times of a launch's runs add up
       to the launch's. *)
    let publish (stats, events, heap_depth, end_ns) =
      if Ggpu_obs.Metrics.ambient_enabled () then begin
        let wall_ns = Int.max 1 (end_ns - !mark_ns) in
        mark_ns := end_ns;
        Ggpu_obs.Metrics.count "sim.fgpu.runs" 1;
        Ggpu_obs.Metrics.count "sim.fgpu.cycles" stats.Stats.cycles;
        Ggpu_obs.Metrics.count "sim.fgpu.wf_instructions"
          stats.Stats.wf_instructions;
        Ggpu_obs.Metrics.count "sim.fgpu.wall_ns" wall_ns;
        Ggpu_obs.Metrics.count "sim.fgpu.events" events;
        Ggpu_obs.Metrics.record_gauge "sim.fgpu.heap_depth" heap_depth;
        Ggpu_obs.Metrics.record_gauge "sim.fgpu.kcycles_per_s"
          (stats.Stats.cycles * 1_000_000 / wall_ns)
      end;
      stats
    in
    if not (record || List.compare_length_with cfgs 1 > 0) then
      [ publish (simulate cfg ~traces:None) ]
    else begin
      (* the record pass and each in-place count mutate global memory;
         every count starts from this image *)
      let mem0 = Array.copy mem in
      let restore () = Array.blit mem0 0 mem 0 (Array.length mem0) in
      let in_place () =
        List.mapi
          (fun i cfg ->
            if i > 0 then restore ();
            publish (simulate cfg ~traces:None))
          cfgs
      in
      if not record then in_place ()
      else
        match
          let traces = Ggpu_obs.Trace.with_span "fgpu.record" record_pass in
          List.map
            (fun (cfg : Config.t) ->
              Ggpu_obs.Trace.with_span "fgpu.replay"
                ~args:[ ("cus", string_of_int cfg.Config.num_cus) ]
                (fun () -> simulate cfg ~traces:(Some traces)))
            cfgs
        with
        | runs ->
            if Ggpu_obs.Metrics.ambient_enabled () then begin
              Ggpu_obs.Metrics.count "sim.fgpu.record_passes" 1;
              Ggpu_obs.Metrics.count "sim.fgpu.split_runs" (List.length runs);
              Ggpu_obs.Metrics.count "sim.fgpu.split_fallbacks" 0
            end;
            List.map publish runs
        | exception (Wavefront.Fault _ | Launch_error _) ->
            restore ();
            if Ggpu_obs.Metrics.ambient_enabled () then
              Ggpu_obs.Metrics.count "sim.fgpu.split_fallbacks" 1;
            in_place ()
    end
  end

let run_cus ?domains cfg ~cus ~program ~params ~global_size ~local_size ~mem =
  launch ?domains cfg ~cus ~program ~params ~global_size ~local_size ~mem

let run ?max_cycles ?inject ?pmu ?domains (cfg : Config.t) ~program ~params
    ~global_size ~local_size ~mem =
  List.hd
    (launch ?max_cycles ?inject ?pmu ?domains cfg ~cus:[ cfg.Config.num_cus ]
       ~program ~params ~global_size ~local_size ~mem)
