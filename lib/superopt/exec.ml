(* Straight-line FGPU sequence executor.

   The superoptimizer screens millions of candidate sequences, so it
   cannot afford {!Ggpu_fgpu.Gpu}'s scheduler, event heap or even the
   wavefront select-pc machinery.  This executor models exactly one
   lane stepping a straight-line program: registers and memory in the
   canonical sign-extended native-int representation of
   {!Ggpu_isa.I32}, the simulator's own ALU ({!Ggpu_fgpu.Wavefront.alu},
   RISC-V M corner cases included), and the same register-file
   conventions — reads of r0 come from slice 0 which is never written,
   writes to r0 land in a sink slot.  [step] and [run] allocate
   nothing: state lives in one preallocated [t] and instructions arrive
   predecoded ({!Ggpu_isa.Fgpu_predecode}), so a screening loop is a
   handful of array reads per instruction.

   Control flow (branches, jumps) is deliberately unsupported: rewrite
   windows never contain it (see {!Peephole}), and candidate
   enumeration never generates it.  [Barrier] is a scheduling fence
   with no lane-visible effect, so it is a no-op here. *)

open Ggpu_isa

(* Register-file geometry mirrors {!Ggpu_fgpu.Wavefront}: 32
   architectural slots plus a write sink for rd = 0. *)
let num_slots = 33
let sink = 32

type t = {
  regs : int array; (* I32-canonical; index 0 stays zero, 32 is the sink *)
  mutable lid : int; (* SIMT specials for this lane *)
  mutable wgid : int;
  mutable wgoff : int;
  mutable wgsize : int;
  mutable gsize : int;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create () =
  { regs = Array.make num_slots 0; lid = 0; wgid = 0; wgoff = 0; wgsize = 0; gsize = 0 }

let reg t r = if r = 0 then 0 else t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- I32.sx v

let load_params t params =
  List.iteri (fun i v -> set_reg t (i + 1) (I32.of_int32 v)) params

let no_mem : int array = [||]

(* Execute one predecoded instruction for this lane.  Returns [false]
   when the instruction was [Ret] (the lane halts), [true] otherwise.
   Memory addressing matches the simulator's lane engine: byte
   addresses, 4-aligned, bounds-checked against [mem] in words. *)
let[@inline] step ?(mem = no_mem) t (d : Fgpu_predecode.t) =
  let regs = t.regs in
  let od = if d.Fgpu_predecode.rd = 0 then sink else d.Fgpu_predecode.rd in
  (match d.Fgpu_predecode.kind with
  | Fgpu_predecode.KAlu ->
      let a = Array.unsafe_get regs d.Fgpu_predecode.rs1
      and b = Array.unsafe_get regs d.Fgpu_predecode.rs2 in
      Array.unsafe_set regs od
        (Ggpu_fgpu.Wavefront.alu d.Fgpu_predecode.aop a b)
  | Fgpu_predecode.KAlui ->
      let a = Array.unsafe_get regs d.Fgpu_predecode.rs1 in
      Array.unsafe_set regs od
        (Ggpu_fgpu.Wavefront.alu d.Fgpu_predecode.aop a d.Fgpu_predecode.imm)
  | Fgpu_predecode.KLoadImm -> Array.unsafe_set regs od d.Fgpu_predecode.imm
  | Fgpu_predecode.KLw ->
      let addr = Array.unsafe_get regs d.Fgpu_predecode.rs1 + d.Fgpu_predecode.imm in
      if addr land 3 <> 0 then fault "misaligned access 0x%x" addr;
      let w = addr lsr 2 in
      if w >= Array.length mem then fault "address 0x%x out of memory" addr;
      Array.unsafe_set regs od (Array.unsafe_get mem w)
  | Fgpu_predecode.KSw ->
      (* store data travels in the rd field: a read, not a write *)
      let addr = Array.unsafe_get regs d.Fgpu_predecode.rs1 + d.Fgpu_predecode.imm in
      if addr land 3 <> 0 then fault "misaligned access 0x%x" addr;
      let w = addr lsr 2 in
      if w >= Array.length mem then fault "address 0x%x out of memory" addr;
      Array.unsafe_set mem w (Array.unsafe_get regs d.Fgpu_predecode.rd)
  | Fgpu_predecode.KSpecial ->
      let v =
        match d.Fgpu_predecode.sp with
        | Fgpu_isa.Lid -> t.lid
        | Fgpu_isa.Wgid -> t.wgid
        | Fgpu_isa.Wgoff -> t.wgoff
        | Fgpu_isa.Wgsize -> t.wgsize
        | Fgpu_isa.Gsize -> t.gsize
      in
      Array.unsafe_set regs od v
  | Fgpu_predecode.KBarrier -> () (* scheduling fence: no lane-visible effect *)
  | Fgpu_predecode.KBranch | Fgpu_predecode.KJump ->
      fault "control flow in straight-line executor"
  | Fgpu_predecode.KRet -> ());
  d.Fgpu_predecode.kind <> Fgpu_predecode.KRet

let run ?(mem = no_mem) t (dprog : Fgpu_predecode.t array) =
  let n = Array.length dprog in
  let rec go i =
    if i < n && step ~mem t (Array.unsafe_get dprog i) then go (i + 1)
  in
  go 0

(* Instruction-major execution of one wavefront: instruction [i] runs
   for every lane before instruction [i+1] runs for any — exactly the
   simulator's issue order on a straight-line program, which never
   diverges.  Test-path only; it
   allocates one [t] per lane. *)
let run_wavefront ?(mem = no_mem) ~size ~wg_id ~wg_offset ~wg_size ~global_size
    ~params (dprog : Fgpu_predecode.t array) =
  let lanes =
    Array.init size (fun lane ->
        let t = create () in
        t.lid <- lane; (* single wavefront: wf_index = 0 *)
        t.wgid <- wg_id;
        t.wgoff <- wg_offset;
        t.wgsize <- wg_size;
        t.gsize <- global_size;
        load_params t params;
        t)
  in
  let n = Array.length dprog in
  let rec go i =
    if i < n then begin
      let d = dprog.(i) in
      let continue = ref true in
      Array.iter (fun t -> continue := step ~mem t d) lanes;
      if !continue then go (i + 1)
    end
  in
  go 0;
  lanes
