(* The paper's version grid: 12 logic-synthesis versions (1/2/4/8 CUs x
   500/590/667 MHz, Table I) and the four extreme physical-synthesis
   versions (1CU@500, 1CU@667, 8CU@500, 8CU@667 - the last derating to
   ~600 MHz after routing, Fig. 4 / Table II).

   Each version owns a freshly generated netlist and the flow touches no
   shared mutable state, so the grid runs across a {!Ggpu_par.Parallel}
   domain pool by default; [~parallel:false] restores the sequential
   sweep. *)

let cu_counts = [ 1; 2; 4; 8 ]
let frequencies_mhz = [ 500; 590; 667 ]

(* The beyond-paper grid: 8 CUs anchors the comparison to the published
   extreme, then each doubling exercises the L2/AXI contention derate. *)
let scaling_cu_counts = [ 8; 16; 32; 64 ]

let table1_specs () =
  List.concat_map
    (fun freq_mhz ->
      List.map
        (fun num_cus -> Spec.make ~num_cus ~freq_mhz ())
        cu_counts)
    frequencies_mhz

let physical_specs () =
  [
    Spec.make ~num_cus:1 ~freq_mhz:500 ();
    Spec.make ~num_cus:1 ~freq_mhz:667 ();
    Spec.make ~num_cus:8 ~freq_mhz:500 ();
    Spec.make ~num_cus:8 ~freq_mhz:667 ();
  ]

let scaling_specs ?(freq_mhz = 667) ?(cu_counts = scaling_cu_counts) () =
  Compare.check_cu_counts cu_counts;
  List.map (fun num_cus -> Spec.make ~num_cus ~freq_mhz ()) cu_counts

let domains_of ~parallel = if parallel then None else Some 1

(* All frequency targets of one CU count start from the same base
   netlist, so elaborate each base once and hand copies to the flow.
   The seed behaviour ([incremental = false]) regenerates per version.
   The bases are frozen before the per-version fan-out, so concurrent
   copies from several domains are safe. *)
let shared_bases ?domains specs =
  let cus =
    List.sort_uniq Int.compare (List.map (fun s -> s.Spec.num_cus) specs)
  in
  Ggpu_par.Parallel.map ?domains
    (fun num_cus -> (num_cus, Ggpu_rtlgen.Generate.generate_cus ~num_cus))
    cus

let map_specs ?(parallel = true) ?(incremental = true) ~f specs =
  let domains = domains_of ~parallel in
  if not incremental then
    Ggpu_par.Parallel.map ?domains (fun spec -> f ?base:None spec) specs
  else begin
    let bases = shared_bases ?domains specs in
    Ggpu_par.Parallel.map ?domains
      (fun spec -> f ?base:(List.assoc_opt spec.Spec.num_cus bases) spec)
      specs
  end

(* Table I, regenerated, with per-version counters. *)
let table1_syntheses ?tech ?parallel ?incremental () =
  map_specs ?parallel ?incremental
    ~f:(fun ?base spec ->
      Flow.synthesise_timed ?tech ?incremental ?base spec)
    (table1_specs ())

let table1 ?tech ?parallel ?incremental () =
  List.map
    (fun s -> s.Flow.syn_report)
    (table1_syntheses ?tech ?parallel ?incremental ())

(* The four physical implementations behind Table II and Figs. 3/4. *)
let physical ?tech ?parallel ?incremental () =
  map_specs ?parallel ?incremental
    ~f:(fun ?base spec -> Flow.implement ?tech ?incremental ?base spec)
    (physical_specs ())

(* The scaling study: full implementations at 8/16/32/64 CUs, one
   frequency target, shared bases per CU count as everywhere else. *)
let scaling ?tech ?parallel ?incremental ?place ?place_domains ?freq_mhz
    ?cu_counts () =
  map_specs ?parallel ?incremental
    ~f:(fun ?base spec ->
      Flow.implement ?tech ?incremental ?base ?place ?place_domains spec)
    (scaling_specs ?freq_mhz ?cu_counts ())
