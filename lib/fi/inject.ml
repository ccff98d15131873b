(* Resolving a sampled fault against live machine state and flipping
   the bit.

   Targets are picked uniformly among the structures that exist at the
   injection instant (resident unfinished wavefronts, valid cache
   lines).  When a structure has no live instance - e.g. a cache fault
   before the first miss - the fault lands in unused silicon and the
   trial is trivially Masked, exactly as on the real device. *)

open Ggpu_fgpu
module I32 = Ggpu_isa.I32

(* The FGPU program counter is a short index register; flipping a bit
   above the architectural width would model a strike outside the
   flip-flop.  16 bits covers every program the compiler can emit. *)
let pc_bits = 16

let flip_int v ~bit = v lxor (1 lsl bit)

let pick rng arr = arr.(Rng.int rng (Array.length arr))

let unfinished (probe : Gpu.probe) =
  Array.of_list
    (List.filter
       (fun wf -> not (Wavefront.finished wf))
       (Array.to_list probe.Gpu.p_wavefronts))

let valid_cache_indices cache =
  let n = Cache.num_lines cache in
  let valid = ref [] in
  for i = n - 1 downto 0 do
    if Cache.tag cache i >= 0 then valid := i :: !valid
  done;
  Array.of_list !valid

let apply_gpu rng (structure : Fault.structure) (probe : Gpu.probe) =
  match structure with
  | Fault.Wf_reg ->
      let wfs = unfinished probe in
      if Array.length wfs > 0 then begin
        let wf = pick rng wfs in
        let lane = Rng.int rng wf.Wavefront.size in
        let r = 1 + Rng.int rng 31 in
        let bit = Rng.int rng 32 in
        Wavefront.set_reg wf ~lane r (I32.flip (Wavefront.reg wf ~lane r) ~bit)
      end
  | Fault.Wf_pc ->
      let wfs = unfinished probe in
      if Array.length wfs > 0 then begin
        let wf = pick rng wfs in
        let live =
          Array.of_list
            (List.filteri
               (fun _ lane -> wf.Wavefront.pcs.(lane) <> Wavefront.done_pc)
               (List.init wf.Wavefront.size Fun.id))
        in
        if Array.length live > 0 then begin
          let lane = pick rng live in
          let bit = Rng.int rng pc_bits in
          Wavefront.set_pc wf ~lane (flip_int wf.Wavefront.pcs.(lane) ~bit)
        end
      end
  | Fault.Wf_mask ->
      let wfs = unfinished probe in
      if Array.length wfs > 0 then begin
        let wf = pick rng wfs in
        let lane = Rng.int rng wf.Wavefront.size in
        if wf.Wavefront.pcs.(lane) = Wavefront.done_pc then
          (* revive a retired lane at the reconvergence point: it will
             re-execute the tail of the kernel *)
          Wavefront.set_pc wf ~lane (Wavefront.min_pc wf)
        else
          (* drop a live lane: its remaining work is lost *)
          Wavefront.set_pc wf ~lane Wavefront.done_pc
      end
  | Fault.Cache_tag ->
      let valid = valid_cache_indices probe.Gpu.p_cache in
      if Array.length valid > 0 then begin
        let i = pick rng valid in
        let bit = Rng.int rng pc_bits in
        Cache.set_tag probe.Gpu.p_cache i
          (flip_int (Cache.tag probe.Gpu.p_cache i) ~bit)
      end
  | Fault.Cache_data ->
      let cache = probe.Gpu.p_cache in
      let valid = valid_cache_indices cache in
      if Array.length valid > 0 then begin
        let i = pick rng valid in
        let word =
          (Cache.line_addr cache i / 4) + Rng.int rng (Cache.line_words cache)
        in
        if word >= 0 && word < Array.length probe.Gpu.p_mem then begin
          let bit = Rng.int rng 32 in
          probe.Gpu.p_mem.(word) <- I32.flip probe.Gpu.p_mem.(word) ~bit
        end
      end
  | Fault.Rv_reg | Fault.Rv_pc | Fault.Rv_mem ->
      invalid_arg "Inject.apply_gpu: RISC-V structure"

let apply_rv32 rng (structure : Fault.structure) cpu =
  let open Ggpu_riscv in
  match structure with
  | Fault.Rv_reg ->
      let r = 1 + Rng.int rng 31 in
      let bit = Rng.int rng 32 in
      Cpu.set_reg cpu r (I32.flip (Cpu.get_reg cpu r) ~bit)
  | Fault.Rv_pc ->
      let bit = Rng.int rng pc_bits in
      Cpu.set_pc cpu (flip_int (Cpu.pc cpu) ~bit)
  | Fault.Rv_mem ->
      let word = Rng.int rng (Cpu.mem_words cpu) in
      let bit = Rng.int rng 32 in
      Cpu.store_word cpu ~addr:(4 * word)
        (I32.flip (Cpu.load_word cpu ~addr:(4 * word)) ~bit)
  | Fault.Wf_reg | Fault.Wf_pc | Fault.Wf_mask | Fault.Cache_tag
  | Fault.Cache_data ->
      invalid_arg "Inject.apply_rv32: G-GPU structure"
