(* The RISC-V comparison (Table III, Figs. 5 and 6).

   Follows the paper's methodology exactly:

   - both architectures run the same seven OpenCL-style micro-benchmarks
     from one kernel source (compiled by the respective back ends);
   - the RISC-V runs its largest input; the G-GPU runs an input 8-64x
     larger (the published per-kernel ratios) to keep its compute units
     fed;
   - raw speed-up scales the RISC-V cycle count linearly by the input
     ratio ("which in practice is unfeasible but favours RISC-V");
   - Fig. 6 derates the speed-up by the G-GPU/RISC-V area ratio for
     each CU configuration, both synthesised at 667 MHz. *)

open Ggpu_kernels

type row = {
  kernel : string;
  riscv_size : int;
  ggpu_size : int;
  riscv_kcycles : float;
  ggpu_kcycles : (int * float) list; (* per CU count *)
}

type speedups = {
  kernel : string;
  raw : (int * float) list; (* CU count -> Fig. 5 speed-up *)
  derated : (int * float) list; (* CU count -> Fig. 6 speed-up/area *)
}

let cu_counts = [ 1; 2; 4; 8 ]

(* Extended CU lists (16/32/64) are legal anywhere the paper grid was;
   anything else fails loudly instead of being clamped to the grid. *)
let check_cu_counts cus =
  if cus = [] then invalid_arg "empty CU-count list";
  List.iter
    (fun c ->
      if not (Ggpu_rtlgen.Arch_params.cu_count_supported c) then
        invalid_arg
          (Printf.sprintf "num_cus %d unsupported (the generator accepts %s)"
             c Ggpu_rtlgen.Arch_params.supported_cu_counts_doc))
    cus

(* Area of the CV32E40P-class baseline with its 32 kB data SRAM, using
   the same technology models as the G-GPU (the paper reports the 1-CU
   G-GPU as 6.5x this). *)
let riscv_area_mm2 tech =
  let open Ggpu_tech in
  let core_gates = 45_000 and core_ffs = 3_000 in
  let logic_um2 =
    (float_of_int core_gates *. tech.Tech.stdcell.Stdcell.gate_area_um2)
    +. float_of_int core_ffs *. tech.Tech.stdcell.Stdcell.dff_area_um2
  in
  let sram =
    Ggpu_hw.Macro_spec.make ~words:8192 ~bits:32
      ~ports:Ggpu_hw.Macro_spec.Dual_port
  in
  let mem_um2 = (Memlib.query tech.Tech.memory sram).Memlib.area_um2 in
  ((logic_um2 /. 0.7) +. mem_um2) /. 1.0e6

let run_riscv (w : Suite.t) =
  let size = w.Suite.riscv_size in
  let args = w.Suite.mk_args ~size in
  let compiled = Codegen_rv32.compile w.Suite.kernel in
  let result =
    Run_rv32.run compiled ~args
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  result.Run_rv32.stats.Ggpu_riscv.Cpu.cycles

(* Table III: input sizes and measured cycle counts.  Each kernel is
   compiled, given its G-GPU-size inputs and executed once, then timed
   at every CU count. *)
let table3 ?(workloads = Suite.all) ?domains ?(cu_counts = cu_counts) () =
  check_cu_counts cu_counts;
  List.map
    (fun (w : Suite.t) ->
      let size = w.Suite.ggpu_size in
      let args = w.Suite.mk_args ~size in
      let compiled = Codegen_fgpu.compile w.Suite.kernel in
      let ggpu =
        Run_fgpu.run_cus ?domains compiled ~args ~cus:cu_counts
          ~global_size:(w.Suite.global_size ~size)
          ~local_size:(min w.Suite.local_size size)
          ()
      in
      {
        kernel = w.Suite.name;
        riscv_size = w.Suite.riscv_size;
        ggpu_size = w.Suite.ggpu_size;
        riscv_kcycles = float_of_int (run_riscv w) /. 1000.0;
        ggpu_kcycles =
          List.map2
            (fun cus (r : Run_fgpu.result) ->
              let cycles = r.Run_fgpu.stats.Ggpu_fgpu.Stats.cycles in
              (cus, float_of_int cycles /. 1000.0))
            cu_counts ggpu;
      })
    workloads

(* G-GPU total area per CU count at the paper's 667 MHz comparison
   point. *)
let ggpu_areas_mm2 ?tech ?(cu_counts = cu_counts) () =
  check_cu_counts cu_counts;
  List.map
    (fun num_cus ->
      let spec = Spec.make ~num_cus ~freq_mhz:667 () in
      let _nl, _map, report = Flow.synthesise ?tech spec in
      (num_cus, report.Ggpu_synth.Report.total_area_mm2))
    cu_counts

(* The CU columns a measurement actually carries, in measurement
   order: Table III rows all share one grid, so the first row is it. *)
let row_cu_counts (rows : row list) =
  match rows with [] -> [] | r :: _ -> List.map fst r.ggpu_kcycles

(* Figs. 5 and 6 from a Table III measurement.  The CU grid is read off
   the rows, so an extended measurement derates all its columns. *)
let speedups ?(tech = Ggpu_tech.Tech.default_65nm) (rows : row list) =
  if rows = [] then []
  else
  let areas = ggpu_areas_mm2 ~tech ~cu_counts:(row_cu_counts rows) () in
  let rv_area = riscv_area_mm2 tech in
  List.map
    (fun r ->
      let ratio = float_of_int r.ggpu_size /. float_of_int r.riscv_size in
      let raw =
        List.map
          (fun (cus, kcycles) -> (cus, r.riscv_kcycles *. ratio /. kcycles))
          r.ggpu_kcycles
      in
      let derated =
        List.map
          (fun (cus, speedup) ->
            let area = List.assoc cus areas in
            (cus, speedup /. (area /. rv_area)))
          raw
      in
      { kernel = r.kernel; raw; derated })
    rows

let pp_table3 fmt (rows : row list) =
  Format.fprintf fmt "%-13s %8s %8s %10s" "Kernel" "RISC-V" "G-GPU"
    "RISC-V kc";
  List.iter
    (fun cus -> Format.fprintf fmt " %10s" (Printf.sprintf "%dCU kc" cus))
    (row_cu_counts rows);
  Format.fprintf fmt "@.";
  List.iter
    (fun (r : row) ->
      Format.fprintf fmt "%-13s %8d %8d %10.0f" r.kernel r.riscv_size
        r.ggpu_size r.riscv_kcycles;
      List.iter
        (fun (_, kcycles) -> Format.fprintf fmt " %10.0f" kcycles)
        r.ggpu_kcycles;
      Format.fprintf fmt "@.")
    rows

let pp_speedups fmt ~label (rows : speedups list) =
  Format.fprintf fmt "%-13s" "Kernel";
  (match rows with
  | [] -> ()
  | s :: _ ->
      List.iter
        (fun (cus, _) -> Format.fprintf fmt " %10s" (Printf.sprintf "%dCU" cus))
        s.raw);
  Format.fprintf fmt "   (%s)@." label;
  List.iter
    (fun s ->
      let values =
        match label with "raw" -> s.raw | _ -> s.derated
      in
      Format.fprintf fmt "%-13s" s.kernel;
      List.iter (fun (_, v) -> Format.fprintf fmt " %10.2f" v) values;
      Format.fprintf fmt "@.")
    rows
