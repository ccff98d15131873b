(* The paper's version grid: 12 logic-synthesis versions (1/2/4/8 CUs x
   500/590/667 MHz, Table I) and the four extreme physical-synthesis
   versions (1CU@500, 1CU@667, 8CU@500, 8CU@667 - the last derating to
   ~600 MHz after routing, Fig. 4 / Table II).

   Each version owns a copy of its CU count's base netlist and the flow
   touches no shared mutable state, so the grid runs across a
   {!Ggpu_par.Parallel} domain pool by default; [~parallel:false]
   restores the sequential sweep. *)

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

(* All frequency targets of one CU count start from the same base
   netlist, so elaborate each base once and hand copies to the flow.
   The bases are frozen before the per-version fan-out, so concurrent
   copies from several domains are safe. *)
let map_specs ?(parallel = true) ~f specs =
  let domains = if parallel then None else Some 1 in
  let bases =
    List.sort_uniq Int.compare (List.map (fun s -> s.Spec.num_cus) specs)
    |> Ggpu_par.Parallel.map ?domains (fun num_cus ->
           (num_cus, Ggpu_rtlgen.Generate.generate_cus ~num_cus))
  in
  Ggpu_par.Parallel.map ?domains
    (fun spec -> f ?base:(List.assoc_opt spec.Spec.num_cus bases) spec)
    specs

(* Table I, regenerated. *)
let table1 ?tech ?parallel () =
  map_specs ?parallel
    ~f:(fun ?base spec ->
      (Flow.synthesise_timed ?tech ?base spec).Flow.syn_report)
    (table1_specs ())

(* The four physical implementations behind Table II and Figs. 3/4. *)
let physical ?tech ?parallel () =
  map_specs ?parallel
    ~f:(fun ?base spec -> Flow.implement ?tech ?base spec)
    (physical_specs ())

(* The scaling study: full implementations at 8/16/32/64 CUs, one
   frequency target, shared bases per CU count as everywhere else. *)
let scaling ?tech ?parallel ?place ?place_domains ?freq_mhz ?cu_counts () =
  map_specs ?parallel
    ~f:(fun ?base spec ->
      Flow.implement ?tech ?base ?place ?place_domains spec)
    (scaling_specs ?freq_mhz ?cu_counts ())
