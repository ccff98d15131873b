(* Metrics registry with a deterministic merge.

   The design constraint is the Parallel fan-outs: work is distributed
   over domains by an atomic work-stealing counter, so which domain
   handles which item is a race.  Metrics must nevertheless aggregate to
   the same bits at any domain count.  The fix is to keep every merge
   operation associative AND commutative on exact values: counters and
   histogram cells are ints under addition, gauges are ints under max,
   and timings are integer nanoseconds.  No floats are ever summed. *)

type counter = { mutable c : int }
type gauge = { mutable g : int; mutable g_set : bool }

type histogram = {
  h_bounds : int array; (* strictly ascending inclusive upper bounds *)
  h_counts : int array; (* length = bounds + 1 (overflow) *)
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type entry = Counter of counter | Gauge of gauge | Histogram of histogram
type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 32 }

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " already has another kind")

let counter t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name
  | None ->
      let c = { c = 0 } in
      Hashtbl.add t.entries name (Counter c);
      c

let add c by =
  if by < 0 then invalid_arg "Metrics.add: negative increment";
  c.c <- c.c + by

let incr c = add c 1
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name
  | None ->
      let g = { g = min_int; g_set = false } in
      Hashtbl.add t.entries name (Gauge g);
      g

let gauge_max g v =
  if (not g.g_set) || v > g.g then begin
    g.g <- v;
    g.g_set <- true
  end

let gauge_value g = if g.g_set then Some g.g else None

let default_buckets =
  [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536; 1_048_576 ]

let check_buckets = function
  | [] -> invalid_arg "Metrics.histogram: empty buckets"
  | b ->
      ignore
        (List.fold_left
           (fun prev x ->
             (match prev with
             | Some p when x <= p ->
                 invalid_arg "Metrics.histogram: buckets not strictly ascending"
             | _ -> ());
             Some x)
           None b)

let histogram ?(buckets = default_buckets) t name =
  check_buckets buckets;
  let bounds = Array.of_list buckets in
  match Hashtbl.find_opt t.entries name with
  | Some (Histogram h) ->
      if h.h_bounds <> bounds then
        invalid_arg ("Metrics.histogram: conflicting buckets for " ^ name);
      h
  | Some _ -> kind_error name
  | None ->
      let h =
        {
          h_bounds = bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0;
          h_min = max_int;
          h_max = min_int;
        }
      in
      Hashtbl.add t.entries name (Histogram h);
      h

let bucket_index bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    Stdlib.incr i
  done;
  !i

let observe h v =
  let i = bucket_index h.h_bounds v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time_counter c f =
  let t0 = now_ns () in
  Fun.protect f ~finally:(fun () -> add c (max 0 (now_ns () - t0)))

(* --- Snapshots --------------------------------------------------------- *)

type hist_snapshot = {
  bounds : int list;
  counts : int list;
  sum : int;
  min_v : int;
  max_v : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let empty_snapshot = { counters = []; gauges = []; histograms = [] }

let by_name (a, _) (b, _) = String.compare a b

let snapshot t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name entry ->
      match entry with
      | Counter c -> counters := (name, c.c) :: !counters
      | Gauge g -> if g.g_set then gauges := (name, g.g) :: !gauges
      | Histogram h ->
          histograms :=
            ( name,
              {
                bounds = Array.to_list h.h_bounds;
                counts = Array.to_list h.h_counts;
                sum = h.h_sum;
                min_v = h.h_min;
                max_v = h.h_max;
              } )
            :: !histograms)
    t.entries;
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

(* Merge two sorted assoc lists, combining equal keys. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c < 0 then (ka, va) :: merge_assoc combine ta b
      else if c > 0 then (kb, vb) :: merge_assoc combine a tb
      else (ka, combine ka va vb) :: merge_assoc combine ta tb

let merge_hist name a b =
  if a.bounds <> b.bounds then
    invalid_arg ("Metrics.merge: conflicting buckets for " ^ name);
  {
    bounds = a.bounds;
    counts = List.map2 ( + ) a.counts b.counts;
    sum = a.sum + b.sum;
    min_v = min a.min_v b.min_v;
    max_v = max a.max_v b.max_v;
  }

let merge a b =
  {
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    gauges = merge_assoc (fun _ x y -> max x y) a.gauges b.gauges;
    histograms = merge_assoc merge_hist a.histograms b.histograms;
  }

let merge_all = List.fold_left merge empty_snapshot
let equal_snapshot (a : snapshot) b = a = b
let hist_total h = List.fold_left ( + ) 0 h.counts

(* Percentiles from cells: the smallest bucket whose cumulative count
   covers the requested rank.  Integer-exact given the cells, so every
   consumer of one snapshot (bench serve, serve stats, the CLI
   renderer) derives the same number — the property PR 7's ad-hoc
   windowed sampling lacked. *)
let hist_percentile h q =
  let total = hist_total h in
  if total = 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (min total (int_of_float (ceil (q *. float_of_int total)))) in
    let observed_max = if h.max_v = min_int then 0 else h.max_v in
    let rec go cum bounds counts =
      match (bounds, counts) with
      (* overflow cell (or exhausted): all we know is the observed max *)
      | [], _ | _, [] -> observed_max
      | b :: bs, c :: cs ->
          if cum + c >= rank then min b observed_max else go (cum + c) bs cs
    in
    go 0 h.bounds h.counts
  end
let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges
let find_histogram s name = List.assoc_opt name s.histograms

let snapshot_to_json s =
  let hist_json h =
    Json.Obj
      [
        ("bounds", Json.List (List.map (fun b -> Json.Int b) h.bounds));
        ("counts", Json.List (List.map (fun c -> Json.Int c) h.counts));
        ("sum", Json.Int h.sum);
        ("count", Json.Int (hist_total h));
        ("min", Json.Int (if h.min_v = max_int then 0 else h.min_v));
        ("max", Json.Int (if h.max_v = min_int then 0 else h.max_v));
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) s.histograms) );
    ]

(* Text exposition: one line per value, sorted by the snapshot's own
   name ordering, cumulative bucket counts — a stable format scrapers
   can diff byte-for-byte.  Layout:

     counter <name> <value>
     gauge <name> <value>
     histogram <name> count <n> sum <s> min <lo> max <hi>
     bucket <name> le <bound> <cumulative>
     bucket <name> le inf <total>                                       *)
let expose s =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter (fun (name, v) -> line "counter %s %d" name v) s.counters;
  List.iter (fun (name, v) -> line "gauge %s %d" name v) s.gauges;
  List.iter
    (fun (name, h) ->
      let total = hist_total h in
      line "histogram %s count %d sum %d min %d max %d" name total h.sum
        (if h.min_v = max_int then 0 else h.min_v)
        (if h.max_v = min_int then 0 else h.max_v);
      let cum = ref 0 in
      List.iteri
        (fun i c ->
          cum := !cum + c;
          match List.nth_opt h.bounds i with
          | Some b -> line "bucket %s le %d %d" name b !cum
          | None -> line "bucket %s le inf %d" name !cum)
        h.counts)
    s.histograms;
  Buffer.contents buf

let pp_snapshot fmt s =
  let open Format in
  fprintf fmt "@[<v>";
  if s.counters <> [] then begin
    fprintf fmt "counters:@,";
    List.iter
      (fun (name, v) ->
        if
          String.length name > 3
          && String.sub name (String.length name - 3) 3 = "_ns"
        then fprintf fmt "  %-36s %12d (%.3f ms)@," name v (float_of_int v /. 1e6)
        else fprintf fmt "  %-36s %12d@," name v)
      s.counters
  end;
  if s.gauges <> [] then begin
    fprintf fmt "gauges:@,";
    List.iter (fun (name, v) -> fprintf fmt "  %-36s %12d@," name v) s.gauges
  end;
  if s.histograms <> [] then begin
    fprintf fmt "histograms:@,";
    List.iter
      (fun (name, h) ->
        let total = hist_total h in
        fprintf fmt "  %-36s count=%d sum=%d" name total h.sum;
        if total > 0 then fprintf fmt " min=%d max=%d" h.min_v h.max_v;
        fprintf fmt "@,";
        if total > 0 then begin
          fprintf fmt "   ";
          List.iteri
            (fun i c ->
              if c > 0 then
                match List.nth_opt h.bounds i with
                | Some b -> fprintf fmt " [<=%d]=%d" b c
                | None -> fprintf fmt " [inf]=%d" c)
            h.counts;
          fprintf fmt "@,"
        end)
      s.histograms
  end;
  fprintf fmt "@]"

(* --- Ambient per-domain registries ------------------------------------- *)

let ambient_flag = Atomic.make false
let set_ambient_enabled v = Atomic.set ambient_flag v
let ambient_enabled () = Atomic.get ambient_flag

(* Registries are registered globally on first use by each domain so
   their contents survive the domain's death (Parallel joins its
   workers before results are read). *)
let registry_lock = Mutex.create ()
let registries : t list ref = ref []

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock registry_lock)

let dls_key =
  Domain.DLS.new_key (fun () ->
      let t = create () in
      with_lock (fun () -> registries := t :: !registries);
      t)

let ambient () = Domain.DLS.get dls_key

let ambient_snapshot () =
  let regs = with_lock (fun () -> !registries) in
  merge_all (List.rev_map snapshot regs)

let ambient_reset () =
  let regs = with_lock (fun () -> !registries) in
  List.iter (fun t -> Hashtbl.reset t.entries) regs

let count name by = if ambient_enabled () then add (counter (ambient ()) name) by

let record_gauge name v =
  if ambient_enabled () then gauge_max (gauge (ambient ()) name) v

let observe_named ?buckets name v =
  if ambient_enabled () then observe (histogram ?buckets (ambient ()) name) v
