(* Every program word of the kernel suite on both targets.

   For each kernel, in Suite.all order: its FGPU code, then its RV32
   code (default optimisation), one instruction a line as its encoded
   word in hex and its disassembly.  `dune runtest` diffs the output
   against suite_programs.expected, so a front-end or compiler change
   that moves one word of a suite kernel fails it. *)

open Ggpu_kernels

let () =
  List.iter
    (fun (w : Suite.t) ->
      let gp = Codegen_fgpu.compile w.kernel in
      Printf.printf "%s fgpu %d\n" w.name (Array.length gp.code);
      Array.iter
        (fun insn ->
          Printf.printf "  %08lx %s\n"
            (Ggpu_isa.Fgpu_isa.encode insn)
            (Ggpu_isa.Fgpu_isa.to_string insn))
        gp.code;
      let rv = Codegen_rv32.compile w.kernel in
      Printf.printf "%s rv32 %d\n" w.name (Array.length rv.code);
      Array.iter
        (fun insn ->
          Printf.printf "  %08lx %s\n" (Ggpu_isa.Rv32.encode insn)
            (Ggpu_isa.Rv32.to_string insn))
        rv.code)
    Suite.all
