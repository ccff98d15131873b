(* Static timing analysis.

   Computes worst arrival times over the combinational graph between
   sequential elements (flip-flops and SRAM macros), then checks every
   register-to-register path against a clock period:

     launch clk-to-q  +  combinational delay  +  setup  +  skew  <= T

   Launch and setup numbers come from the technology: flip-flops from
   the standard-cell model, macros from the memory-compiler model (which
   is how macro geometry ends up on the critical path - the pivot of the
   paper's whole design-space exploration).

   The analysis is an incremental CSR engine ([make_engine],
   [engine_analyse]): cells and nets are numbered densely by their
   already-dense ids, arrivals live in unboxed [float array]s, the
   combinational graph is levelized once per build, the initial sweep
   walks cells in level order over flat compressed-sparse-row adjacency,
   and after an edit the dirty cones are re-swept through a level-bucket
   queue so every dirty cell is relaxed at most once per sync.  The
   report reads one endpoint summary per sequential cell (endpoint
   count, worst delay, that endpoint's net).  A sync refreshes only the
   summaries of the journal's cells and of the sequential readers of
   nets whose arrival, predecessor or launch changed, so analysing after
   an edit costs what the edit touches, not what the design holds.

   Arrival times are the unique fixpoint of max-plus propagation on the
   DAG, and every tie-break mirrors the plain full sweep in
   [test/sta_oracle.ml] exactly (first-max over input pins,
   ascending-id endpoint scans, strictly greater replacement: a summary
   keeps its cell's first maximum in pin order, and the report takes the
   first maximum over summaries in ascending cell id), so the engine is
   bit-identical to it - enforced by the differential tests in
   [test/test_csr.ml] and [test/test_incremental.ml]. *)

open Ggpu_hw
open Ggpu_tech

type path = {
  launch : Cell.t; (* sequential cell the path starts at *)
  capture : Cell.t; (* sequential cell the path ends at *)
  through : Cell.t list; (* combinational cells, launch-to-capture order *)
  delay_ns : float; (* total including clk-to-q, setup and skew *)
}

type report = {
  worst : path;
  max_delay_ns : float;
  fmax_mhz : float;
  endpoint_count : int;
}

exception No_paths

let launch_delay tech cell =
  match Cell.kind cell with
  | Cell.Dff -> tech.Tech.stdcell.Stdcell.dff_clk_to_q_ns
  | Cell.Macro spec -> (Memlib.query tech.Tech.memory spec).Memlib.clk_to_q_ns
  | Cell.Comb _ -> invalid_arg "launch_delay: combinational cell"

let setup_time tech cell =
  match Cell.kind cell with
  | Cell.Dff -> tech.Tech.stdcell.Stdcell.dff_setup_ns
  | Cell.Macro spec -> (Memlib.query tech.Tech.memory spec).Memlib.setup_ns
  | Cell.Comb _ -> invalid_arg "setup_time: combinational cell"

let cell_delay tech cell =
  match Cell.kind cell with
  | Cell.Comb op ->
      Stdcell.comb_delay_ns tech.Tech.stdcell op ~width:(Cell.output_width cell)
  | Cell.Dff | Cell.Macro _ -> invalid_arg "cell_delay: sequential cell"

(* The tests' view of the engine's tables ({!engine_arrivals}): arrival
   time and worst predecessor for every net driven by the combinational
   subgraph, sequential outputs seeded with clk-to-q.  [net_launch]
   holds the sequential cell the worst path into each net launches from
   (absent for primary-input-rooted cones). *)
type arrivals = {
  net_arrival : (int, float) Hashtbl.t;
  (* net id -> (driving comb cell, worst input net) *)
  net_pred : (int, Cell.t * Net.t option) Hashtbl.t;
  net_launch : (int, Cell.t) Hashtbl.t;
}

(* --- CSR levelized engine --------------------------------------------- *)

(* Net and cell ids are handed out by dense monotonic counters, so raw
   ids index flat arrays directly (removed ids leave small holes).  The
   persistent state is the per-net arrival/predecessor/launch arrays and
   the per-cell levelization; CSR adjacency exists during full sweeps
   and is dropped afterwards — the incremental path reads pin lists
   straight off the (small) dirty cones. *)
type engine = {
  k_tech : Tech.t;
  k_netlist : Netlist.t;
  mutable k_revision : int;
  (* per-net, indexed by raw net id *)
  mutable k_arr : float array; (* worst arrival; 0.0 when absent *)
  mutable k_driven : Bytes.t; (* '\001' iff the net has an arrival entry *)
  mutable k_pred_cell : int array; (* driving comb cell id; -1 = none *)
  mutable k_pred_net : int array; (* worst input net id; -1 = none *)
  mutable k_launch : int array; (* launching sequential cell id; -1 *)
  (* per-cell, indexed by raw cell id *)
  mutable k_level : int array; (* comb level; -1 for non-comb/absent *)
  mutable k_queued : Bytes.t;
      (* membership: comb cells in the level buckets, other cells in the
         stale-endpoint list *)
  mutable k_max_level : int;
  (* endpoint summary of a sequential cell, over the input pins a launch
     register reaches: their number, the worst [arrival +. setup +. skew]
     and the net of the first pin to reach it; count 0 for other ids *)
  mutable k_ep_count : int array;
  mutable k_ep_delay : float array;
  mutable k_ep_net : int array;
  mutable k_report : (int * report) option;
  mutable k_full : int;
  mutable k_incremental : int;
}

let grow_int_array a n ~default =
  let b = Array.make n default in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float_array a n =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bytes a n =
  let b = Bytes.make n '\000' in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

let ensure_net_capacity k id =
  if id >= Array.length k.k_arr then begin
    let n = max (id + 1) (2 * Array.length k.k_arr) in
    k.k_arr <- grow_float_array k.k_arr n;
    k.k_driven <- grow_bytes k.k_driven n;
    k.k_pred_cell <- grow_int_array k.k_pred_cell n ~default:(-1);
    k.k_pred_net <- grow_int_array k.k_pred_net n ~default:(-1);
    k.k_launch <- grow_int_array k.k_launch n ~default:(-1)
  end

let ensure_cell_capacity k id =
  if id >= Array.length k.k_level then begin
    let n = max (id + 1) (2 * Array.length k.k_level) in
    k.k_level <- grow_int_array k.k_level n ~default:(-1);
    k.k_queued <- grow_bytes k.k_queued n;
    k.k_ep_count <- grow_int_array k.k_ep_count n ~default:0;
    k.k_ep_delay <- grow_float_array k.k_ep_delay n;
    k.k_ep_net <- grow_int_array k.k_ep_net n ~default:(-1)
  end

(* Recompute the endpoint summary of cell [id] from the arrival arrays
   with the full sweep's endpoint arithmetic and pin order (strictly
   greater replaces, so the first maximum wins).  A removed or combinational
   cell has no endpoints. *)
let csr_refresh_endpoints k id =
  ensure_cell_capacity k id;
  k.k_ep_count.(id) <- 0;
  k.k_ep_net.(id) <- -1;
  let nl = k.k_netlist in
  if Netlist.mem_cell nl id then begin
    let cell = Netlist.find_cell nl id in
    if Cell.is_sequential cell then begin
      let setup = setup_time k.k_tech cell in
      let skew = k.k_tech.Tech.stdcell.Stdcell.clock_skew_ns in
      List.iter
        (fun net ->
          let nid = Net.id net in
          if nid < Array.length k.k_launch && k.k_launch.(nid) >= 0 then begin
            let delay_ns = k.k_arr.(nid) +. setup +. skew in
            if k.k_ep_count.(id) = 0 || delay_ns > k.k_ep_delay.(id) then begin
              k.k_ep_delay.(id) <- delay_ns;
              k.k_ep_net.(id) <- nid
            end;
            k.k_ep_count.(id) <- k.k_ep_count.(id) + 1
          end)
        (Cell.inputs cell)
    end
  end

(* Rebuild the CSR structure from scratch and run the levelized full
   sweep.  Cell-to-cell edges are deduplicated once per (driver, reader)
   pair — however many pins or nets connect them — and the indegrees and
   the successor CSR both derive from the same edge list, so the two
   sides can never diverge (the counting property {!Topo} documents). *)
let csr_rebuild k =
  let nl = k.k_netlist and tech = k.k_tech in
  let net_bound =
    Netlist.fold_nets nl ~init:1 ~f:(fun m n -> max m (Net.id n + 1))
  in
  let cell_bound =
    Netlist.fold_cells nl ~init:1 ~f:(fun m c -> max m (Cell.id c + 1))
  in
  k.k_arr <- Array.make net_bound 0.0;
  k.k_driven <- Bytes.make net_bound '\000';
  k.k_pred_cell <- Array.make net_bound (-1);
  k.k_pred_net <- Array.make net_bound (-1);
  k.k_launch <- Array.make net_bound (-1);
  k.k_level <- Array.make cell_bound (-1);
  k.k_queued <- Bytes.make cell_bound '\000';
  k.k_ep_count <- Array.make cell_bound 0;
  k.k_ep_delay <- Array.make cell_bound 0.0;
  k.k_ep_net <- Array.make cell_bound (-1);
  (* dense comb numbering, ascending cell id *)
  let comb_rev =
    Netlist.fold_cells nl ~init:[] ~f:(fun acc c ->
        if Cell.is_comb c then Cell.id c :: acc else acc)
  in
  let comb_ids = Array.of_list (List.sort Int.compare comb_rev) in
  let n_comb = Array.length comb_ids in
  let cells = Array.map (Netlist.find_cell nl) comb_ids in
  (* input pins (net ids, pin order) and per-cell delay *)
  let in_off = Array.make (n_comb + 1) 0 in
  for c = 0 to n_comb - 1 do
    in_off.(c + 1) <- in_off.(c) + List.length (Cell.inputs cells.(c))
  done;
  let in_net = Array.make (max 1 in_off.(n_comb)) 0 in
  let delay = Array.make (max 1 n_comb) 0.0 in
  for c = 0 to n_comb - 1 do
    let pos = ref in_off.(c) in
    List.iter
      (fun net ->
        in_net.(!pos) <- Net.id net;
        incr pos)
      (Cell.inputs cells.(c));
    delay.(c) <- cell_delay tech cells.(c)
  done;
  (* output pins *)
  let out_off = Array.make (n_comb + 1) 0 in
  for c = 0 to n_comb - 1 do
    out_off.(c + 1) <- out_off.(c) + List.length (Cell.outputs cells.(c))
  done;
  let out_net = Array.make (max 1 out_off.(n_comb)) 0 in
  for c = 0 to n_comb - 1 do
    let pos = ref out_off.(c) in
    List.iter
      (fun net ->
        out_net.(!pos) <- Net.id net;
        incr pos)
      (Cell.outputs cells.(c))
  done;
  (* net -> dense driving comb cell (a net has at most one driver) *)
  let net_comb_driver = Array.make net_bound (-1) in
  for c = 0 to n_comb - 1 do
    for p = out_off.(c) to out_off.(c + 1) - 1 do
      net_comb_driver.(out_net.(p)) <- c
    done
  done;
  (* deduplicated (driver, reader) edges over dense indices *)
  let edge_from = ref (Array.make (max 16 n_comb) 0) in
  let edge_to = ref (Array.make (max 16 n_comb) 0) in
  let n_edges = ref 0 in
  let push_edge d c =
    if !n_edges = Array.length !edge_from then begin
      edge_from := grow_int_array !edge_from (2 * !n_edges) ~default:0;
      edge_to := grow_int_array !edge_to (2 * !n_edges) ~default:0
    end;
    !edge_from.(!n_edges) <- d;
    !edge_to.(!n_edges) <- c;
    incr n_edges
  in
  let seen = Array.make (max 1 n_comb) (-1) in
  (* dedup marker: last reader that saw this driver *)
  for c = 0 to n_comb - 1 do
    for p = in_off.(c) to in_off.(c + 1) - 1 do
      let d = net_comb_driver.(in_net.(p)) in
      if d >= 0 && seen.(d) <> c then begin
        seen.(d) <- c;
        push_edge d c
      end
    done
  done;
  (* indegrees and successor CSR from the same edge list *)
  let indeg = Array.make (max 1 n_comb) 0 in
  let succ_off = Array.make (n_comb + 1) 0 in
  for e = 0 to !n_edges - 1 do
    indeg.(!edge_to.(e)) <- indeg.(!edge_to.(e)) + 1;
    succ_off.(!edge_from.(e) + 1) <- succ_off.(!edge_from.(e) + 1) + 1
  done;
  for c = 0 to n_comb - 1 do
    succ_off.(c + 1) <- succ_off.(c + 1) + succ_off.(c)
  done;
  let succ = Array.make (max 1 !n_edges) 0 in
  let fill = Array.copy succ_off in
  for e = 0 to !n_edges - 1 do
    let d = !edge_from.(e) in
    succ.(fill.(d)) <- !edge_to.(e);
    fill.(d) <- fill.(d) + 1
  done;
  (* levelization by Kahn relaxation: level = longest comb-driver chain *)
  let lvl = Array.make (max 1 n_comb) 0 in
  let stack = Array.make (max 1 n_comb) 0 in
  let sp = ref 0 in
  for c = 0 to n_comb - 1 do
    if indeg.(c) = 0 then begin
      stack.(!sp) <- c;
      incr sp
    end
  done;
  let emitted = ref 0 in
  while !sp > 0 do
    decr sp;
    let c = stack.(!sp) in
    incr emitted;
    for p = succ_off.(c) to succ_off.(c + 1) - 1 do
      let s = succ.(p) in
      if lvl.(c) + 1 > lvl.(s) then lvl.(s) <- lvl.(c) + 1;
      indeg.(s) <- indeg.(s) - 1;
      if indeg.(s) = 0 then begin
        stack.(!sp) <- s;
        incr sp
      end
    done
  done;
  if !emitted <> n_comb then begin
    let stuck = ref [] in
    for c = 0 to n_comb - 1 do
      if indeg.(c) > 0 then stuck := Cell.name cells.(c) :: !stuck
    done;
    raise (Topo.Combinational_loop (List.sort String.compare !stuck))
  end;
  k.k_max_level <- Array.fold_left max 0 lvl;
  for c = 0 to n_comb - 1 do
    k.k_level.(comb_ids.(c)) <- lvl.(c)
  done;
  (* seed sequential outputs before sweeping *)
  Netlist.iter_cells nl (fun cell ->
      if Cell.is_sequential cell then begin
        let t = launch_delay tech cell in
        List.iter
          (fun net ->
            let nid = Net.id net in
            k.k_arr.(nid) <- t;
            Bytes.set k.k_driven nid '\001';
            k.k_launch.(nid) <- Cell.id cell)
          (Cell.outputs cell)
      end);
  (* one dense relaxation of a comb cell over the flat arrays: the first
     maximum over input pins (strictly greater keeps the earliest pin) *)
  let relax c =
    let lo = in_off.(c) and hi = in_off.(c + 1) in
    let in_time, best_net =
      if lo = hi then (0.0, -1)
      else begin
        let best = ref k.k_arr.(in_net.(lo)) and bn = ref in_net.(lo) in
        for p = lo + 1 to hi - 1 do
          let t = k.k_arr.(in_net.(p)) in
          if t > !best then begin
            best := t;
            bn := in_net.(p)
          end
        done;
        (!best, !bn)
      end
    in
    let launch = if best_net >= 0 then k.k_launch.(best_net) else -1 in
    let out_time = in_time +. delay.(c) in
    let id = comb_ids.(c) in
    for p = out_off.(c) to out_off.(c + 1) - 1 do
      let nid = out_net.(p) in
      k.k_arr.(nid) <- out_time;
      Bytes.set k.k_driven nid '\001';
      k.k_pred_cell.(nid) <- id;
      k.k_pred_net.(nid) <- best_net;
      k.k_launch.(nid) <- launch
    done
  in
  (* sweep order: (level, dense index); [comb_ids] ascends by cell id
     and the sort is stable, so ties break on ascending id *)
  let order = Array.init n_comb (fun c -> c) in
  let cmp a b =
    let d = compare lvl.(a) lvl.(b) in
    if d <> 0 then d else compare a b
  in
  Array.sort cmp order;
  Array.iter relax order;
  Netlist.iter_cells nl (fun cell ->
      if Cell.is_sequential cell then csr_refresh_endpoints k (Cell.id cell))

(* Incremental sync, phase A: restore the level fixpoint over the dirty
   region.  level(c) = 1 + max level of distinct comb drivers (0 with
   none); chaotic iteration over a FIFO converges when the graph is
   acyclic, since every change re-enqueues the readers.  An edit that
   closed a combinational loop makes the levels around it grow without
   end.  In an acyclic graph no level this computes exceeds the largest
   level held on entry plus the number of cells (a stale level upstream
   plus a chain of distinct cells), so reaching that bound proves a
   cycle, reported as a fresh engine's levelization reports it. *)
let csr_fix_levels k ~cells ~nets =
  let nl = k.k_netlist in
  let bound = k.k_max_level + Netlist.cell_count nl + 1 in
  let queue = Queue.create () in
  let queued = Hashtbl.create 64 in
  let enqueue id =
    if not (Hashtbl.mem queued id) then begin
      Hashtbl.add queued id ();
      Queue.add id queue
    end
  in
  List.iter
    (fun id ->
      ensure_cell_capacity k id;
      if Netlist.mem_cell nl id then begin
        let cell = Netlist.find_cell nl id in
        if Cell.is_comb cell then enqueue id else k.k_level.(id) <- -1
      end
      else k.k_level.(id) <- -1)
    cells;
  List.iter
    (fun nid ->
      ensure_net_capacity k nid;
      let net = Netlist.find_net nl nid in
      List.iter
        (fun reader ->
          if Cell.is_comb reader then begin
            ensure_cell_capacity k (Cell.id reader);
            enqueue (Cell.id reader)
          end)
        (Netlist.readers_of nl net))
    nets;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Hashtbl.remove queued id;
    if Netlist.mem_cell nl id then begin
      let cell = Netlist.find_cell nl id in
      if Cell.is_comb cell then begin
        let lvl =
          List.fold_left
            (fun acc net ->
              match Netlist.driver_of nl net with
              | Some d when Cell.is_comb d ->
                  let did = Cell.id d in
                  ensure_cell_capacity k did;
                  max acc (k.k_level.(did) + 1)
              | Some _ | None -> acc)
            0 (Cell.inputs cell)
        in
        if lvl >= bound then begin
          (* names the cells on and behind the loop *)
          ignore (Topo.order nl : Cell.t list);
          raise (Topo.Combinational_loop [ Cell.name cell ])
        end;
        if lvl <> k.k_level.(id) then begin
          k.k_level.(id) <- lvl;
          if lvl > k.k_max_level then k.k_max_level <- lvl;
          List.iter
            (fun net ->
              List.iter
                (fun reader ->
                  if Cell.is_comb reader then begin
                    ensure_cell_capacity k (Cell.id reader);
                    enqueue (Cell.id reader)
                  end)
                (Netlist.readers_of nl net))
            (Cell.outputs cell)
        end
      end
    end
  done

(* Incremental sync, phase B: level-bounded re-sweep of the dirty cones.
   Dirty comb cells sit in per-level buckets; processing levels in
   ascending order relaxes every dirty cell exactly once, after all its
   dirty predecessors (a reader's level strictly exceeds its comb
   driver's, restored by phase A).  Seeds are the full sweep's
   (clk-to-q on sequential outputs, no entry on an undriven net) and each
   relaxation is the initial sweep's first-max fold, so the re-swept
   cones hold what a full sweep computes; a cell's readers are queued
   only when one of its outputs changed arrival, predecessor or
   launch.  Returns the cells
   whose endpoint summaries are stale: the journal's non-comb cells and
   the sequential readers of every net whose arrival, predecessor or
   launch changed. *)
let csr_resweep k ~cells ~nets =
  let nl = k.k_netlist and tech = k.k_tech in
  let buckets = ref (Array.make (k.k_max_level + 1) []) in
  let ensure_bucket l =
    if l >= Array.length !buckets then begin
      let b = Array.make (max (l + 1) (2 * Array.length !buckets)) [] in
      Array.blit !buckets 0 b 0 (Array.length !buckets);
      buckets := b
    end
  in
  (* [k_queued] admits a cell once per sync: a comb cell into the level
     buckets, any other id into [stale] *)
  let first_visit id =
    ensure_cell_capacity k id;
    let fresh = Bytes.get k.k_queued id = '\000' in
    Bytes.set k.k_queued id '\001';
    fresh
  in
  let stale = ref [] in
  let mark_stale id = if first_visit id then stale := id :: !stale in
  let enqueue cell =
    let id = Cell.id cell in
    if not (Cell.is_comb cell) then mark_stale id
    else if first_visit id then begin
      let l = max 0 k.k_level.(id) in
      ensure_bucket l;
      !buckets.(l) <- id :: !buckets.(l)
    end
  in
  let enqueue_readers net = List.iter enqueue (Netlist.readers_of nl net) in
  (* a sequential driver re-seeds its output nets with clk-to-q *)
  let reseed_seq_output cell net =
    let nid = Net.id net in
    ensure_net_capacity k nid;
    let t = launch_delay tech cell in
    let same_launch = k.k_launch.(nid) = Cell.id cell in
    if
      Bytes.get k.k_driven nid = '\000'
      || k.k_arr.(nid) <> t
      || k.k_pred_cell.(nid) >= 0
      || not same_launch
    then begin
      k.k_arr.(nid) <- t;
      Bytes.set k.k_driven nid '\001';
      k.k_pred_cell.(nid) <- -1;
      k.k_pred_net.(nid) <- -1;
      k.k_launch.(nid) <- Cell.id cell;
      enqueue_readers net
    end
  in
  let touch_net nid =
    ensure_net_capacity k nid;
    let net = Netlist.find_net nl nid in
    match Netlist.driver_of nl net with
    | None ->
        (* driver removed and not replaced: the net reverts to the
           primary-input default (no table entry) *)
        if
          Bytes.get k.k_driven nid = '\001'
          || k.k_pred_cell.(nid) >= 0
          || k.k_launch.(nid) >= 0
        then begin
          k.k_arr.(nid) <- 0.0;
          Bytes.set k.k_driven nid '\000';
          k.k_pred_cell.(nid) <- -1;
          k.k_pred_net.(nid) <- -1;
          k.k_launch.(nid) <- -1;
          enqueue_readers net
        end
    | Some driver when Cell.is_sequential driver -> reseed_seq_output driver net
    | Some driver -> enqueue driver
  in
  List.iter touch_net nets;
  List.iter
    (fun id ->
      if Netlist.mem_cell nl id then begin
        let cell = Netlist.find_cell nl id in
        if Cell.is_comb cell then enqueue cell
        else begin
          mark_stale id;
          List.iter (reseed_seq_output cell) (Cell.outputs cell)
        end
      end
      else
        (* removed cells: their output nets are in [nets]; a removed
           register's summary must go *)
        mark_stale id)
    cells;
  (* relaxation of one dirty cell: the same first-max fold as
     [csr_rebuild]'s, reading pin lists off the cell *)
  let relaxed = ref 0 in
  let relax cell =
    incr relaxed;
    let worst_in =
      List.fold_left
        (fun acc net ->
          let nid = Net.id net in
          ensure_net_capacity k nid;
          let t = k.k_arr.(nid) in
          match acc with
          | Some (best, _) when best >= t -> acc
          | _ -> Some (t, nid))
        None (Cell.inputs cell)
    in
    let in_time, in_net =
      match worst_in with Some (t, nid) -> (t, nid) | None -> (0.0, -1)
    in
    let launch = if in_net >= 0 then k.k_launch.(in_net) else -1 in
    let out_time = in_time +. cell_delay tech cell in
    let id = Cell.id cell in
    List.iter
      (fun net ->
        let nid = Net.id net in
        ensure_net_capacity k nid;
        let same_arrival =
          Bytes.get k.k_driven nid = '\001' && k.k_arr.(nid) = out_time
        in
        let same_pred =
          k.k_pred_cell.(nid) = id && k.k_pred_net.(nid) = in_net
        in
        let same_launch = k.k_launch.(nid) = launch in
        k.k_arr.(nid) <- out_time;
        Bytes.set k.k_driven nid '\001';
        k.k_pred_cell.(nid) <- id;
        k.k_pred_net.(nid) <- in_net;
        k.k_launch.(nid) <- launch;
        if not (same_arrival && same_pred && same_launch) then
          enqueue_readers net)
      (Cell.outputs cell)
  in
  let l = ref 0 in
  while !l < Array.length !buckets do
    (* readers enqueued while draining level [l] always land strictly
       above it; only the seed pass fills the current level *)
    let rec drain () =
      match !buckets.(!l) with
      | [] -> ()
      | ids ->
          !buckets.(!l) <- [];
          List.iter
            (fun id ->
              Bytes.set k.k_queued id '\000';
              if Netlist.mem_cell nl id then begin
                let cell = Netlist.find_cell nl id in
                if Cell.is_comb cell then relax cell
              end)
            (List.rev ids);
          drain ()
    in
    drain ();
    incr l
  done;
  List.iter (fun id -> Bytes.set k.k_queued id '\000') !stale;
  (!stale, !relaxed)

(* Materialize the hashtable view of the CSR arrays, for the
   differential tests through {!engine_arrivals}. *)
let csr_arrivals k =
  let nl = k.k_netlist in
  let size = max 64 (Netlist.net_count nl) in
  let arrivals =
    {
      net_arrival = Hashtbl.create size;
      net_pred = Hashtbl.create size;
      net_launch = Hashtbl.create size;
    }
  in
  Netlist.iter_nets nl (fun net ->
      let nid = Net.id net in
      if nid < Array.length k.k_arr then begin
        if Bytes.get k.k_driven nid = '\001' then
          Hashtbl.replace arrivals.net_arrival nid k.k_arr.(nid);
        if k.k_pred_cell.(nid) >= 0 then begin
          let cell = Netlist.find_cell nl k.k_pred_cell.(nid) in
          let prev =
            if k.k_pred_net.(nid) >= 0 then
              Some (Netlist.find_net nl k.k_pred_net.(nid))
            else None
          in
          Hashtbl.replace arrivals.net_pred nid (cell, prev)
        end;
        if k.k_launch.(nid) >= 0 then
          Hashtbl.replace arrivals.net_launch nid
            (Netlist.find_cell nl k.k_launch.(nid))
      end);
  arrivals

(* Worst path over the endpoint summaries: the first strict maximum in
   ascending cell id, which is the full sweep's endpoint scan order since
   each summary already holds its cell's first maximum in pin order. *)
let csr_report k =
  let nl = k.k_netlist in
  let worst = ref (-1) and endpoints = ref 0 in
  for id = 0 to Array.length k.k_ep_count - 1 do
    let n = k.k_ep_count.(id) in
    if n > 0 then begin
      endpoints := !endpoints + n;
      if !worst < 0 || k.k_ep_delay.(id) > k.k_ep_delay.(!worst) then
        worst := id
    end
  done;
  if !worst < 0 then raise No_paths;
  let capture = Netlist.find_cell nl !worst in
  let rec walk nid acc =
    if nid < Array.length k.k_pred_cell && k.k_pred_cell.(nid) >= 0 then begin
      let cell = Netlist.find_cell nl k.k_pred_cell.(nid) in
      let prev = k.k_pred_net.(nid) in
      if prev >= 0 then walk prev (cell :: acc) else (cell :: acc, None)
    end
    else (acc, Netlist.driver_of nl (Netlist.find_net nl nid))
  in
  let through, launch_opt = walk k.k_ep_net.(!worst) [] in
  match launch_opt with
  | Some launch when Cell.is_sequential launch ->
      let delay_ns = k.k_ep_delay.(!worst) in
      {
        worst = { launch; capture; through; delay_ns };
        max_delay_ns = delay_ns;
        fmax_mhz = 1000.0 /. delay_ns;
        endpoint_count = !endpoints;
      }
  | Some _ | None -> raise No_paths (* cannot happen: endpoint has a launch *)

let make_engine tech netlist =
  Ggpu_obs.Trace.with_span "sta.engine_init" @@ fun () ->
  let k =
    {
      k_tech = tech;
      k_netlist = netlist;
      k_revision = Netlist.revision netlist;
      k_arr = [||];
      k_driven = Bytes.empty;
      k_pred_cell = [||];
      k_pred_net = [||];
      k_launch = [||];
      k_level = [||];
      k_queued = Bytes.empty;
      k_max_level = 0;
      k_ep_count = [||];
      k_ep_delay = [||];
      k_ep_net = [||];
      k_report = None;
      k_full = 1;
      k_incremental = 0;
    }
  in
  csr_rebuild k;
  k

let csr_sync k =
  let rev = Netlist.revision k.k_netlist in
  if rev <> k.k_revision then begin
    (match Netlist.changes_since k.k_netlist k.k_revision with
    | Some { Netlist.cells = []; nets = [] } -> ()
    | Some { Netlist.cells; nets } ->
        let refreshed, relaxed =
          Ggpu_obs.Trace.with_span "sta.incremental" (fun () ->
              csr_fix_levels k ~cells ~nets;
              let stale, relaxed = csr_resweep k ~cells ~nets in
              List.iter (csr_refresh_endpoints k) stale;
              (List.length stale, relaxed))
        in
        k.k_incremental <- k.k_incremental + 1;
        Ggpu_obs.Metrics.count "sta.incremental_updates" 1;
        Ggpu_obs.Metrics.observe_named "sta.cone_cells" relaxed;
        Ggpu_obs.Metrics.observe_named "sta.endpoints_refreshed" refreshed
    | None ->
        (* journal truncated: too far behind, rebuild from scratch *)
        Ggpu_obs.Trace.with_span "sta.full" (fun () -> csr_rebuild k);
        k.k_full <- k.k_full + 1;
        Ggpu_obs.Metrics.count "sta.full_recomputes" 1);
    k.k_revision <- rev;
    k.k_report <- None
  end

type engine_stats = { full_recomputes : int; incremental_updates : int }

let engine_stats k =
  { full_recomputes = k.k_full; incremental_updates = k.k_incremental }

let engine_arrivals k =
  csr_sync k;
  csr_arrivals k

let engine_net_arrival k net =
  csr_sync k;
  let nid = Net.id net in
  if nid < Array.length k.k_arr && Bytes.get k.k_driven nid = '\001' then
    k.k_arr.(nid)
  else 0.0

let engine_analyse k =
  csr_sync k;
  match k.k_report with
  | Some (rev, report) when rev = k.k_revision -> report
  | Some _ | None ->
      let report = csr_report k in
      k.k_report <- Some (k.k_revision, report);
      report

let slack_ns report ~period_ns = period_ns -. report.max_delay_ns
let meets report ~period_ns = slack_ns report ~period_ns >= 0.0

let pp_path fmt path =
  Format.fprintf fmt "%s -> %s (%.3f ns, %d cells)"
    (Cell.name path.launch) (Cell.name path.capture) path.delay_ns
    (List.length path.through)
