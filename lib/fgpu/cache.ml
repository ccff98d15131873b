(* Timing model of the central data cache and its AXI data movers.

   The cache is direct-mapped, write-back, write-allocate and multi-port,
   exactly the organisation the paper describes for FGPU.  It models
   timing and traffic only: data functionally lives in the global memory
   array (the simulated kernels are data-race-free across work-items, so
   the visible values are unaffected by fill/evict ordering).

   Each coalesced line request occupies one cache port slot (one request
   per port per cycle); a miss additionally occupies an AXI data port for
   the duration of the line transfer (plus another transfer when a dirty
   victim is written back).  Completion times are computed analytically,
   which lets the G-GPU simulator run as a discrete-event simulation
   rather than a per-cycle loop. *)

type t = {
  line_words : int;
  num_lines : int;
  tags : int array; (* -1 = invalid *)
  dirty : bool array;
  ports : int array; (* per cache port: next free cycle *)
  axi_ports : int array; (* per AXI data port: next free cycle *)
  hit_latency : int;
  axi_latency : int;
  line_beats : int; (* cycles to move one line over one AXI port *)
  stats : Stats.t;
  mutable acc_class : int;
      (* worst access class since the last [take_access_class]:
         0 = all lines hit, 1 = a line missed, 2 = a miss also queued
         behind a busy AXI port.  Pure observation for the PMU; the
         hit path never writes it. *)
}

let create (cfg : Config.t) ~stats =
  let line_bytes = cfg.Config.cache.Config.line_words * 4 in
  let num_lines =
    Int.max 1 (cfg.Config.cache.Config.size_bytes / line_bytes)
  in
  {
    line_words = cfg.Config.cache.Config.line_words;
    num_lines;
    tags = Array.make num_lines (-1);
    dirty = Array.make num_lines false;
    ports = Array.make cfg.Config.cache.Config.ports 0;
    axi_ports = Array.make cfg.Config.axi.Config.data_ports 0;
    hit_latency = cfg.Config.cache.Config.hit_latency;
    axi_latency = cfg.Config.axi.Config.latency;
    line_beats =
      (cfg.Config.cache.Config.line_words
      + cfg.Config.axi.Config.words_per_beat - 1)
      / cfg.Config.axi.Config.words_per_beat;
    stats;
    acc_class = 0;
  }

let take_access_class t =
  let c = t.acc_class in
  t.acc_class <- 0;
  c

let line_of_addr t ~addr = addr / 4 / t.line_words

(* Introspection for fault injection. *)
let num_lines t = t.num_lines
let line_words t = t.line_words
let tag t i = t.tags.(i)
let set_tag t i v = t.tags.(i) <- v
let line_addr t i = (t.tags.(i) * t.num_lines + i) * t.line_words * 4

(* Earliest-free resource arbitration: pick the slot that frees first,
   start no earlier than [now], occupy it for [busy] cycles.  [Int.max],
   not [max]: the polymorphic one is a C call once per line. *)
let acquire (slots : int array) ~now ~busy =
  let best = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!best) then best := i
  done;
  let start = Int.max now slots.(!best) in
  slots.(!best) <- start + busy;
  start

(* One coalesced line access.  Returns the completion cycle. *)
let access t ~now ~addr ~write =
  t.stats.Stats.line_requests <- t.stats.Stats.line_requests + 1;
  let start = acquire t.ports ~now ~busy:1 in
  let line = line_of_addr t ~addr in
  let index = line mod t.num_lines in
  let tag = line / t.num_lines in
  if t.tags.(index) = tag then begin
    t.stats.Stats.cache_hits <- t.stats.Stats.cache_hits + 1;
    if write then t.dirty.(index) <- true;
    start + t.hit_latency
  end
  else begin
    t.stats.Stats.cache_misses <- t.stats.Stats.cache_misses + 1;
    let victim_beats =
      if t.tags.(index) >= 0 && t.dirty.(index) then begin
        t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
        t.stats.Stats.axi_words <- t.stats.Stats.axi_words + t.line_words;
        t.line_beats
      end
      else 0
    in
    t.stats.Stats.axi_words <- t.stats.Stats.axi_words + t.line_words;
    let axi_start =
      acquire t.axi_ports ~now:start ~busy:(victim_beats + t.line_beats)
    in
    if axi_start > start then t.acc_class <- 2
    else if t.acc_class = 0 then t.acc_class <- 1;
    t.tags.(index) <- tag;
    t.dirty.(index) <- write;
    axi_start + victim_beats + t.axi_latency + t.line_beats + t.hit_latency
  end
