(* G-GPU execution configuration.

   Mirrors the FGPU architecture of the paper's Fig. 1: 1-8 compute
   units, each a SIMD machine of 8 processing elements executing
   64-work-item wavefronts over 8 beats; workgroups of up to 512
   work-items resident per CU; a central direct-mapped multi-port
   write-back data cache; and up to four AXI data interfaces to global
   memory. *)

type cache = {
  size_bytes : int;
  line_words : int; (* words per cache line *)
  ports : int; (* lane requests accepted per cycle (multi-port) *)
  hit_latency : int;
}

type axi = {
  data_ports : int; (* 1..4 in FGPU *)
  latency : int; (* memory round-trip, cycles *)
  words_per_beat : int; (* transfer width per port per cycle *)
}

type t = {
  num_cus : int;
  pes_per_cu : int;
  wavefront_size : int;
  max_workitems_per_cu : int; (* FGPU: 512 *)
  cache : cache;
  axi : axi;
  div_latency : int;
      (* cycles per active lane on the CU's shared iterative divider: a
         division occupies the vector pipeline for [active_lanes *
         div_latency] cycles, the reason div_int barely beats the CPU in
         the paper's Fig. 5 *)
  mul_latency : int;
  branch_penalty : int; (* extra cycles on a taken branch *)
  issue_overhead : int; (* per-instruction front-end overhead *)
}

exception Bad_config of string

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad_config s)) fmt in
  (* the generator's 1..8 range plus the 16/32/64 scaling grid
     (Ggpu_rtlgen.Arch_params.supported_cu_counts; duplicated here
     because ggpu_fgpu sits below ggpu_rtlgen in the library graph) *)
  if
    not (t.num_cus >= 1 && t.num_cus <= 8)
    && not (List.mem t.num_cus [ 16; 32; 64 ])
  then
    fail "num_cus %d unsupported (GPUPlanner generates 1..8, 16, 32 or 64)"
      t.num_cus;
  if t.pes_per_cu < 1 then fail "pes_per_cu < 1";
  if t.wavefront_size mod t.pes_per_cu <> 0 then
    fail "wavefront size %d not a multiple of PE count %d" t.wavefront_size
      t.pes_per_cu;
  if t.max_workitems_per_cu < t.wavefront_size then
    fail "max_workitems_per_cu below one wavefront";
  if t.cache.ports < 1 then fail "cache needs at least one port";
  if t.axi.data_ports < 1 || t.axi.data_ports > 4 then
    fail "AXI data ports %d outside 1..4" t.axi.data_ports;
  if t.cache.line_words < 1 then fail "line_words < 1";
  t

let default =
  validate
    {
      num_cus = 1;
      pes_per_cu = 8;
      wavefront_size = 64;
      max_workitems_per_cu = 512;
      cache =
        { size_bytes = 32 * 1024; line_words = 16; ports = 4; hit_latency = 4 };
      axi = { data_ports = 4; latency = 24; words_per_beat = 2 };
      div_latency = 64;
      mul_latency = 2;
      branch_penalty = 2;
      issue_overhead = 0;
    }

let with_cus t num_cus = validate { t with num_cus }

(* Order-fixed rendering of every field — simulated results are a pure
   function of (config, program, args, geometry), so this string is the
   config fragment of a sim memo-cache key.  Backend and domain fan-out
   are deliberately absent: they never change observables. *)
let canonical b t =
  let field name v =
    Buffer.add_string b name;
    Ggpu_obs.Json.add_int b v
  in
  field "cus=" t.num_cus;
  field ";pes=" t.pes_per_cu;
  field ";wf=" t.wavefront_size;
  field ";maxwi=" t.max_workitems_per_cu;
  field ";c.size=" t.cache.size_bytes;
  field ";c.line=" t.cache.line_words;
  field ";c.ports=" t.cache.ports;
  field ";c.hit=" t.cache.hit_latency;
  field ";axi.ports=" t.axi.data_ports;
  field ";axi.lat=" t.axi.latency;
  field ";axi.beat=" t.axi.words_per_beat;
  field ";div=" t.div_latency;
  field ";mul=" t.mul_latency;
  field ";br=" t.branch_penalty;
  field ";iss=" t.issue_overhead

(* Wavefront occupancy of the vector pipeline per instruction. *)
let beats t = t.wavefront_size / t.pes_per_cu

let wavefronts_per_workgroup t ~local_size =
  (local_size + t.wavefront_size - 1) / t.wavefront_size
