(* Harness gluing a compiled RV32 kernel to the CPU simulator: lays the
   kernel's buffers out in data memory, loads parameters into their
   convention registers, runs to completion and reads the results back.
   This plays the role of the bare-metal runtime in the paper's RISC-V
   baseline. *)

open Ggpu_riscv

type result = {
  stats : Cpu.stats;
  buffers : (string * int32 array) list; (* final contents *)
}

exception Setup_error of string

let align64 a = (a + 63) land lnot 63

(* Byte address the first buffer is placed at. *)
let base_addr = 0x1000

(* Instructions a run may execute before {!Ggpu_riscv.Cpu.Out_of_fuel}. *)
let fuel = 500_000_000

(* Buffers are placed consecutively from [base_addr], 64-byte aligned,
   mimicking an OpenCL runtime allocating device buffers. *)
let layout_buffers buffers =
  let addr = ref (align64 base_addr) in
  List.map
    (fun (name, data) ->
      let placed = !addr in
      addr := align64 (!addr + (4 * Array.length data));
      (name, placed, data))
    buffers

let run ?max_cycles ?inject (compiled : Codegen_rv32.compiled)
    ~(args : Interp.args) ~global_size ~local_size () =
  Ggpu_obs.Trace.with_span "kernels.run_rv32"
    ~args:[ ("global_size", string_of_int global_size) ]
  @@ fun () ->
  let placed = layout_buffers args.Interp.buffers in
  let needed_words =
    List.fold_left
      (fun acc (_, addr, data) -> max acc ((addr / 4) + Array.length data))
      (base_addr / 4) placed
  in
  let cpu =
    Cpu.create ~mem_words:(needed_words + 64)
      ~program:compiled.Codegen_rv32.code ()
  in
  List.iter (fun (_, addr, data) -> Cpu.write_block cpu ~addr data) placed;
  let param_value name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) placed with
    | Some (_, addr, _) -> Int32.of_int addr
    | None -> (
        match List.assoc_opt name args.Interp.scalars with
        | Some v -> v
        | None -> raise (Setup_error (Printf.sprintf "missing argument %s" name)))
  in
  List.iter
    (fun (name, reg) -> Cpu.set_reg cpu reg (param_value name))
    compiled.Codegen_rv32.param_regs;
  Cpu.set_reg cpu compiled.Codegen_rv32.gsize_reg (Int32.of_int global_size);
  Cpu.set_reg cpu compiled.Codegen_rv32.lsize_reg (Int32.of_int local_size);
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
  let buffers =
    List.map
      (fun (name, addr, data) ->
        (name, Cpu.read_block cpu ~addr ~len:(Array.length data)))
      placed
  in
  { stats; buffers }

let output result name =
  match List.assoc_opt name result.buffers with
  | Some a -> a
  | None -> raise (Setup_error (Printf.sprintf "no such buffer %s" name))
