(* RV32IM functional + timing simulator.

   A Harvard-style machine: the program is a decoded instruction array
   indexed by pc/4; data memory is a word array.  Semantics follow the
   RISC-V unprivileged specification (including division corner cases:
   divide-by-zero yields -1 / the dividend, signed overflow wraps).
   [Ecall] halts the machine - the kernel compiler emits it as the final
   instruction. *)

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
  mem : int32 array; (* word-addressed data memory *)
  regs : int32 array;
  timing : Timing_model.t;
  stats : stats;
  mutable pc : int; (* byte address *)
  mutable halted : bool;
}

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let create ?(timing = Timing_model.cv32e40p) ~mem_words ~program () =
  {
    program;
    mem = Array.make mem_words 0l;
    regs = Array.make 32 0l;
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

let read_reg t r = if r = 0 then 0l else t.regs.(r)
let write_reg t r v = if r <> 0 then t.regs.(r) <- v

let check_word_addr t addr =
  if addr land 3 <> 0 then trap "misaligned access at 0x%x" addr;
  let w = addr lsr 2 in
  if w < 0 || w >= Array.length t.mem then trap "access out of memory at 0x%x" addr;
  w

let load_word t ~addr = t.mem.(check_word_addr t addr)
let store_word t ~addr v = t.mem.(check_word_addr t addr) <- v

(* Bulk accessors used by the benchmark harness. *)
let write_block t ~addr values =
  Array.iteri (fun i v -> store_word t ~addr:(addr + (4 * i)) v) values

let read_block t ~addr ~len =
  Array.init len (fun i -> load_word t ~addr:(addr + (4 * i)))

let set_reg = write_reg
let get_reg = read_reg

let u32_lt a b =
  (* unsigned comparison on int32 *)
  Int32.unsigned_compare a b < 0

let srl a sh = Int32.shift_right_logical a (sh land 31)
let sra a sh = Int32.shift_right a (sh land 31)
let sll a sh = Int32.shift_left a (sh land 31)

let div_signed a b =
  if b = 0l then -1l
  else if a = Int32.min_int && b = -1l then Int32.min_int
  else Int32.div a b

let rem_signed a b =
  if b = 0l then a
  else if a = Int32.min_int && b = -1l then 0l
  else Int32.rem a b

let div_unsigned a b = if b = 0l then -1l else Int32.unsigned_div a b
let rem_unsigned a b = if b = 0l then a else Int32.unsigned_rem a b

let mulh a b =
  let p = Int64.mul (Int64.of_int32 a) (Int64.of_int32 b) in
  Int64.to_int32 (Int64.shift_right p 32)

(* Execute one instruction; updates pc, registers, memory and stats. *)
let step t =
  if t.halted then ()
  else begin
    let idx = t.pc lsr 2 in
    if idx < 0 || idx >= Array.length t.program then
      trap "pc 0x%x outside program" t.pc;
    let insn = t.program.(idx) in
    let rr = read_reg t and wr = write_reg t in
    let next = ref (t.pc + 4) in
    let taken = ref false in
    let branch cond off =
      t.stats.branches <- t.stats.branches + 1;
      if cond then begin
        taken := true;
        t.stats.taken_branches <- t.stats.taken_branches + 1;
        next := t.pc + off
      end
    in
    (match insn with
    | Rv32.Lui (rd, imm) -> wr rd (Int32.shift_left imm 12)
    | Rv32.Auipc (rd, imm) ->
        wr rd (Int32.add (Int32.of_int t.pc) (Int32.shift_left imm 12))
    | Rv32.Jal (rd, off) ->
        wr rd (Int32.of_int (t.pc + 4));
        taken := true;
        next := t.pc + off
    | Rv32.Jalr (rd, rs1, off) ->
        let target =
          Int32.to_int (Int32.add (rr rs1) (Int32.of_int off)) land lnot 1
        in
        wr rd (Int32.of_int (t.pc + 4));
        taken := true;
        next := target
    | Rv32.Beq (a, b, off) -> branch (rr a = rr b) off
    | Rv32.Bne (a, b, off) -> branch (rr a <> rr b) off
    | Rv32.Blt (a, b, off) -> branch (Int32.compare (rr a) (rr b) < 0) off
    | Rv32.Bge (a, b, off) -> branch (Int32.compare (rr a) (rr b) >= 0) off
    | Rv32.Bltu (a, b, off) -> branch (u32_lt (rr a) (rr b)) off
    | Rv32.Bgeu (a, b, off) -> branch (not (u32_lt (rr a) (rr b))) off
    | Rv32.Lw (rd, rs1, off) ->
        t.stats.loads <- t.stats.loads + 1;
        wr rd (load_word t ~addr:(Int32.to_int (rr rs1) + off))
    | Rv32.Sw (rs2, rs1, off) ->
        t.stats.stores <- t.stats.stores + 1;
        store_word t ~addr:(Int32.to_int (rr rs1) + off) (rr rs2)
    | Rv32.Addi (rd, rs1, i) -> wr rd (Int32.add (rr rs1) i)
    | Rv32.Slti (rd, rs1, i) ->
        wr rd (if Int32.compare (rr rs1) i < 0 then 1l else 0l)
    | Rv32.Sltiu (rd, rs1, i) -> wr rd (if u32_lt (rr rs1) i then 1l else 0l)
    | Rv32.Xori (rd, rs1, i) -> wr rd (Int32.logxor (rr rs1) i)
    | Rv32.Ori (rd, rs1, i) -> wr rd (Int32.logor (rr rs1) i)
    | Rv32.Andi (rd, rs1, i) -> wr rd (Int32.logand (rr rs1) i)
    | Rv32.Slli (rd, rs1, sh) -> wr rd (sll (rr rs1) sh)
    | Rv32.Srli (rd, rs1, sh) -> wr rd (srl (rr rs1) sh)
    | Rv32.Srai (rd, rs1, sh) -> wr rd (sra (rr rs1) sh)
    | Rv32.Add (rd, a, b) -> wr rd (Int32.add (rr a) (rr b))
    | Rv32.Sub (rd, a, b) -> wr rd (Int32.sub (rr a) (rr b))
    | Rv32.Sll (rd, a, b) -> wr rd (sll (rr a) (Int32.to_int (rr b)))
    | Rv32.Slt (rd, a, b) ->
        wr rd (if Int32.compare (rr a) (rr b) < 0 then 1l else 0l)
    | Rv32.Sltu (rd, a, b) -> wr rd (if u32_lt (rr a) (rr b) then 1l else 0l)
    | Rv32.Xor (rd, a, b) -> wr rd (Int32.logxor (rr a) (rr b))
    | Rv32.Srl (rd, a, b) -> wr rd (srl (rr a) (Int32.to_int (rr b)))
    | Rv32.Sra (rd, a, b) -> wr rd (sra (rr a) (Int32.to_int (rr b)))
    | Rv32.Or (rd, a, b) -> wr rd (Int32.logor (rr a) (rr b))
    | Rv32.And (rd, a, b) -> wr rd (Int32.logand (rr a) (rr b))
    | Rv32.Mul (rd, a, b) -> wr rd (Int32.mul (rr a) (rr b))
    | Rv32.Mulh (rd, a, b) -> wr rd (mulh (rr a) (rr b))
    | Rv32.Div (rd, a, b) -> wr rd (div_signed (rr a) (rr b))
    | Rv32.Divu (rd, a, b) -> wr rd (div_unsigned (rr a) (rr b))
    | Rv32.Rem (rd, a, b) -> wr rd (rem_signed (rr a) (rr b))
    | Rv32.Remu (rd, a, b) -> wr rd (rem_unsigned (rr a) (rr b))
    | Rv32.Ecall -> t.halted <- true);
    t.stats.instructions <- t.stats.instructions + 1;
    t.stats.cycles <-
      t.stats.cycles + Timing_model.cost t.timing insn ~taken:!taken;
    if not t.halted then t.pc <- !next
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
  let executed = ref 0 in
  while not t.halted do
    if !executed > fuel then raise (Out_of_fuel !executed);
    (match max_cycles with
    | Some limit when t.stats.cycles > limit ->
        raise (Watchdog_timeout t.stats.cycles)
    | _ -> ());
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
