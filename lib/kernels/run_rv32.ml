(* Harness gluing a compiled RV32 kernel to the CPU simulator: lays the
   kernel's buffers out in data memory, loads parameters into their
   convention registers, runs to completion and reads the results back.
   This plays the role of the bare-metal runtime in the paper's RISC-V
   baseline. *)

open Ggpu_riscv

type result = {
  stats : Cpu.stats;
  buffers : (string * int array) list; (* final contents *)
}

(* Instructions a run may execute before {!Ggpu_riscv.Cpu.Out_of_fuel}. *)
let fuel = 500_000_000

let run ?max_cycles ?inject (compiled : Codegen_rv32.compiled)
    ~(args : Mem_image.args) ~global_size ~local_size () =
  Ggpu_obs.Trace.with_span "kernels.run_rv32"
    ~args:[ ("global_size", string_of_int global_size) ]
  @@ fun () ->
  let image = Mem_image.build args in
  let cpu =
    Cpu.create ~mem:(Mem_image.mem image)
      ~program:compiled.Codegen_rv32.code ()
  in
  let regs = compiled.Codegen_rv32.param_regs in
  List.iter2 (Cpu.set_reg cpu) (List.map snd regs)
    (Mem_image.params image args (List.map fst regs));
  Cpu.set_reg cpu compiled.Codegen_rv32.gsize_reg global_size;
  Cpu.set_reg cpu compiled.Codegen_rv32.lsize_reg local_size;
  let stats =
    match inject with
    | None -> Cpu.run ~fuel ?max_cycles cpu
    | Some (at, f) ->
        (* single-step until simulated time reaches the injection
           cycle, corrupt the state, then resume the fast run loop.
           Before the fault the machine is healthy, so no watchdog is
           needed while stepping. *)
        let executed = ref 0 in
        while (not (Cpu.halted cpu)) && (Cpu.stats cpu).Cpu.cycles < at do
          if !executed > fuel then raise (Cpu.Out_of_fuel !executed);
          Cpu.step cpu;
          incr executed
        done;
        if Cpu.halted cpu then Cpu.stats cpu (* fault lands after completion *)
        else begin
          f cpu;
          Cpu.run ~fuel:(max 0 (fuel - !executed)) ?max_cycles cpu
        end
  in
  { stats; buffers = Mem_image.buffers image }

let output result name = Mem_image.find result.buffers name
