(* RV32IM functional + timing simulator.

   A Harvard-style machine: the program is a decoded instruction array
   indexed by pc/4; data memory is a word array.  Semantics follow the
   RISC-V unprivileged specification (including division corner cases:
   divide-by-zero yields -1 / the dividend, signed overflow wraps).
   [Ecall] halts the machine - the kernel compiler emits it as the final
   instruction.

   Registers and memory hold {!Ggpu_isa.I32} words, native ints, so a
   step allocates nothing: each instruction is one match that writes its
   destination, charges its cycles from the timing model and yields the
   next pc. *)

open Ggpu_isa

type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable taken_branches : int;
}

type t = {
  program : Rv32.t array;
  mem : int array; (* word-addressed data memory *)
  regs : int array; (* x0 is never written, so it reads 0 *)
  timing : Timing_model.t;
  stats : stats;
  mutable pc : int; (* byte address *)
  mutable halted : bool;
}

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let create ?(timing = Timing_model.cv32e40p) ~mem ~program () =
  {
    program;
    mem;
    regs = Array.make 32 0;
    timing;
    stats =
      {
        cycles = 0;
        instructions = 0;
        loads = 0;
        stores = 0;
        branches = 0;
        taken_branches = 0;
      };
    pc = 0;
    halted = false;
  }

let stats t = t.stats
let halted t = t.halted
let mem_words t = Array.length t.mem
let pc t = t.pc
let set_pc t pc = t.pc <- pc
let get_reg t r = t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- v

let check_word_addr t addr =
  if addr land 3 <> 0 then trap "misaligned access at 0x%x" addr;
  let w = addr lsr 2 in
  if w < 0 || w >= Array.length t.mem then trap "access out of memory at 0x%x" addr;
  w

let load_word t ~addr = t.mem.(check_word_addr t addr)
let store_word t ~addr v = t.mem.(check_word_addr t addr) <- v

(* Charge [cost] cycles and fall through to the next instruction. *)
let[@inline] next t pc cost =
  t.stats.cycles <- t.stats.cycles + cost;
  pc + 4

(* Write [rd], charge [cost] cycles, fall through. *)
let[@inline] alu t rd v pc cost =
  set_reg t rd v;
  next t pc cost

(* A conditional branch: count it, charge its cycles, and go to
   [pc + off] if [cond] holds. *)
let[@inline] branch t cond pc off =
  let st = t.stats in
  st.branches <- st.branches + 1;
  if cond then begin
    st.taken_branches <- st.taken_branches + 1;
    st.cycles <- st.cycles + t.timing.Timing_model.branch_taken;
    pc + off
  end
  else next t pc t.timing.Timing_model.base

(* Execute one instruction; updates pc, registers, memory and stats. *)
let step t =
  if not t.halted then begin
    let pc = t.pc in
    let idx = pc lsr 2 in
    if idx < 0 || idx >= Array.length t.program then
      trap "pc 0x%x outside program" pc;
    let r = t.regs and tm = t.timing and st = t.stats in
    let base = tm.Timing_model.base in
    let next_pc =
      match t.program.(idx) with
      | Rv32.Lui (rd, imm) -> alu t rd (I32.sll (I32.of_int32 imm) 12) pc base
      | Rv32.Auipc (rd, imm) ->
          alu t rd (I32.add (I32.sx pc) (I32.sll (I32.of_int32 imm) 12)) pc base
      | Rv32.Jal (rd, off) ->
          set_reg t rd (I32.sx (pc + 4));
          st.cycles <- st.cycles + tm.Timing_model.jump;
          pc + off
      | Rv32.Jalr (rd, rs1, off) ->
          let target = I32.add r.(rs1) (I32.sx off) land lnot 1 in
          set_reg t rd (I32.sx (pc + 4));
          st.cycles <- st.cycles + tm.Timing_model.jump;
          target
      | Rv32.Beq (a, b, off) -> branch t (r.(a) = r.(b)) pc off
      | Rv32.Bne (a, b, off) -> branch t (r.(a) <> r.(b)) pc off
      | Rv32.Blt (a, b, off) -> branch t (r.(a) < r.(b)) pc off
      | Rv32.Bge (a, b, off) -> branch t (r.(a) >= r.(b)) pc off
      | Rv32.Bltu (a, b, off) -> branch t (I32.ult r.(a) r.(b)) pc off
      | Rv32.Bgeu (a, b, off) -> branch t (not (I32.ult r.(a) r.(b))) pc off
      | Rv32.Lw (rd, rs1, off) ->
          st.loads <- st.loads + 1;
          alu t rd (load_word t ~addr:(r.(rs1) + off)) pc tm.Timing_model.load
      | Rv32.Sw (rs2, rs1, off) ->
          st.stores <- st.stores + 1;
          store_word t ~addr:(r.(rs1) + off) r.(rs2);
          next t pc tm.Timing_model.store
      | Rv32.Addi (rd, rs1, i) ->
          alu t rd (I32.add r.(rs1) (I32.of_int32 i)) pc base
      | Rv32.Slti (rd, rs1, i) ->
          alu t rd (Bool.to_int (r.(rs1) < I32.of_int32 i)) pc base
      | Rv32.Sltiu (rd, rs1, i) ->
          alu t rd (Bool.to_int (I32.ult r.(rs1) (I32.of_int32 i))) pc base
      | Rv32.Xori (rd, rs1, i) -> alu t rd (r.(rs1) lxor I32.of_int32 i) pc base
      | Rv32.Ori (rd, rs1, i) -> alu t rd (r.(rs1) lor I32.of_int32 i) pc base
      | Rv32.Andi (rd, rs1, i) -> alu t rd (r.(rs1) land I32.of_int32 i) pc base
      | Rv32.Slli (rd, rs1, sh) -> alu t rd (I32.sll r.(rs1) sh) pc base
      | Rv32.Srli (rd, rs1, sh) -> alu t rd (I32.srl r.(rs1) sh) pc base
      | Rv32.Srai (rd, rs1, sh) -> alu t rd (I32.sra r.(rs1) sh) pc base
      | Rv32.Add (rd, a, b) -> alu t rd (I32.add r.(a) r.(b)) pc base
      | Rv32.Sub (rd, a, b) -> alu t rd (I32.sub r.(a) r.(b)) pc base
      | Rv32.Sll (rd, a, b) -> alu t rd (I32.sll r.(a) r.(b)) pc base
      | Rv32.Slt (rd, a, b) -> alu t rd (Bool.to_int (r.(a) < r.(b))) pc base
      | Rv32.Sltu (rd, a, b) ->
          alu t rd (Bool.to_int (I32.ult r.(a) r.(b))) pc base
      | Rv32.Xor (rd, a, b) -> alu t rd (r.(a) lxor r.(b)) pc base
      | Rv32.Srl (rd, a, b) -> alu t rd (I32.srl r.(a) r.(b)) pc base
      | Rv32.Sra (rd, a, b) -> alu t rd (I32.sra r.(a) r.(b)) pc base
      | Rv32.Or (rd, a, b) -> alu t rd (r.(a) lor r.(b)) pc base
      | Rv32.And (rd, a, b) -> alu t rd (r.(a) land r.(b)) pc base
      | Rv32.Mul (rd, a, b) ->
          alu t rd (I32.mul r.(a) r.(b)) pc tm.Timing_model.mul
      | Rv32.Mulh (rd, a, b) ->
          alu t rd (I32.mulh r.(a) r.(b)) pc tm.Timing_model.mul
      | Rv32.Div (rd, a, b) ->
          alu t rd (I32.div_signed r.(a) r.(b)) pc tm.Timing_model.div
      | Rv32.Divu (rd, a, b) ->
          alu t rd (I32.div_unsigned r.(a) r.(b)) pc tm.Timing_model.div
      | Rv32.Rem (rd, a, b) ->
          alu t rd (I32.rem_signed r.(a) r.(b)) pc tm.Timing_model.div
      | Rv32.Remu (rd, a, b) ->
          alu t rd (I32.rem_unsigned r.(a) r.(b)) pc tm.Timing_model.div
      | Rv32.Ecall ->
          t.halted <- true;
          st.cycles <- st.cycles + base;
          pc
    in
    st.instructions <- st.instructions + 1;
    t.pc <- next_pc
  end

exception Out_of_fuel of int
exception Watchdog_timeout of int

(* Run to completion.  [fuel] bounds the instruction count;
   [max_cycles] is a watchdog over simulated cycles, so corrupted
   control flow (a fault-injected pc stuck in a loop) terminates as a
   classifiable hang rather than burning the whole fuel budget. *)
let run ?(fuel = 500_000_000) ?max_cycles t =
  Ggpu_obs.Trace.with_span "rv32.run" @@ fun () ->
  let t0_ns = Ggpu_obs.Metrics.now_ns () in
  let limit = Option.value max_cycles ~default:max_int in
  let executed = ref 0 in
  while not t.halted do
    if !executed > fuel then raise (Out_of_fuel !executed);
    if t.stats.cycles > limit then raise (Watchdog_timeout t.stats.cycles);
    step t;
    incr executed
  done;
  if Ggpu_obs.Metrics.ambient_enabled () then begin
    let wall_ns = max 1 (Ggpu_obs.Metrics.now_ns () - t0_ns) in
    Ggpu_obs.Metrics.count "sim.rv32.runs" 1;
    Ggpu_obs.Metrics.count "sim.rv32.cycles" t.stats.cycles;
    Ggpu_obs.Metrics.count "sim.rv32.instructions" t.stats.instructions;
    Ggpu_obs.Metrics.count "sim.rv32.wall_ns" wall_ns;
    Ggpu_obs.Metrics.record_gauge "sim.rv32.kcycles_per_s"
      (t.stats.cycles * 1_000_000 / wall_ns)
  end;
  t.stats
