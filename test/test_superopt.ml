(* Unit tests for the ggpu_superopt library: the straight-line
   executor must agree bit-for-bit with the full Gpu.run pipeline under
   both lane engines, the
   rule table must survive serialisation, the peephole's liveness
   guard must block unsound rewrites, and a tiny mining run must
   produce only verified, strictly-cheaper rules. *)

open Ggpu_isa
open Ggpu_superopt

(* --- straight-line executor vs Gpu.run --------------------------------- *)

(* One wavefront, one workgroup: every lane loads its own word, mangles
   it through the ALU (including both shift flavours and a Mul), and
   stores it back.  The memory image after Gpu.run, through the
   reference lane engine and through the production one, and after
   Exec.run_wavefront must be bit-identical. *)
let straightline_program =
  [|
    (* r1 = params.(0) = buffer base (words are byte-addressed) *)
    Fgpu_isa.Special (Fgpu_isa.Lid, 2);
    Fgpu_isa.Special (Fgpu_isa.Wgoff, 3);
    Fgpu_isa.Alu (Fgpu_isa.Add, 4, 3, 2) (* gid *);
    Fgpu_isa.Alui (Fgpu_isa.Sll, 5, 4, 2l);
    Fgpu_isa.Alu (Fgpu_isa.Add, 5, 5, 1) (* addr *);
    Fgpu_isa.Lw (6, 5, 0);
    Fgpu_isa.Alui (Fgpu_isa.Mul, 7, 6, 3l);
    Fgpu_isa.Alu (Fgpu_isa.Add, 7, 7, 4);
    Fgpu_isa.Li (8, 0x1234l);
    Fgpu_isa.Alu (Fgpu_isa.Xor, 7, 7, 8);
    Fgpu_isa.Alui (Fgpu_isa.Sra, 9, 7, 1l);
    Fgpu_isa.Alu (Fgpu_isa.Sub, 7, 7, 9);
    Fgpu_isa.Sw (7, 5, 0);
    Fgpu_isa.Ret;
  |]

(* Division corner cases straight from the RISC-V M spec: x/0, x rem 0,
   min_int / -1 and min_int rem -1, driven per-lane from memory. *)
let division_program =
  [|
    Fgpu_isa.Special (Fgpu_isa.Lid, 2);
    Fgpu_isa.Alui (Fgpu_isa.Sll, 3, 2, 3l) (* 2 word pairs per lane *);
    Fgpu_isa.Alu (Fgpu_isa.Add, 3, 3, 1);
    Fgpu_isa.Lw (4, 3, 0) (* dividend *);
    Fgpu_isa.Lw (5, 3, 4) (* divisor *);
    Fgpu_isa.Alu (Fgpu_isa.Div, 6, 4, 5);
    Fgpu_isa.Alu (Fgpu_isa.Rem, 7, 4, 5);
    Fgpu_isa.Sw (6, 3, 0);
    Fgpu_isa.Sw (7, 3, 4);
    Fgpu_isa.Ret;
  |]

let run_both ~program ~lanes ~words init =
  let mem_exec = Array.init words init in
  let gpu engine =
    let mem = Array.copy mem_exec in
    Fgpu_oracle.with_engine engine (fun () ->
        ignore
          (Ggpu_fgpu.Gpu.run Ggpu_fgpu.Config.default ~program ~params:[ 0 ]
             ~global_size:lanes ~local_size:lanes ~mem
            : Ggpu_fgpu.Stats.t));
    mem
  in
  let mem_gpu = gpu Fgpu_oracle.Oracle in
  Alcotest.(check (array int))
    "threaded matches the reference engine" mem_gpu
    (gpu Fgpu_oracle.Threaded);
  let lanes_state =
    Exec.run_wavefront ~mem:mem_exec ~size:lanes ~wg_id:0 ~wg_offset:0
      ~wg_size:lanes ~global_size:lanes ~params:[ 0l ]
      (Fgpu_predecode.of_program program)
  in
  (mem_gpu, mem_exec, lanes_state)

let test_exec_matches_gpu () =
  let lanes = 64 in
  let gpu_mem, exec_mem, lanes_state =
    run_both ~program:straightline_program ~lanes ~words:lanes (fun i ->
        I32.sx ((i * 2654435761) lxor (i lsl 7)))
  in
  Alcotest.(check (array int)) "alu/load/store memory image" gpu_mem exec_mem;
  (* and the executor's SIMT specials saw the right geometry *)
  Array.iteri
    (fun lid st ->
      Alcotest.(check int) "lane gid" lid (Exec.reg st 4))
    lanes_state

let test_exec_division_corners () =
  let lanes = 4 in
  let pairs =
    [| (7, 3); (5, 0); (I32.min_i32, -1); (I32.min_i32, 0) |]
  in
  let gpu_mem, exec_mem, _ =
    run_both ~program:division_program ~lanes ~words:(2 * lanes) (fun i ->
        let q, d = pairs.(i / 2) in
        if i mod 2 = 0 then q else d)
  in
  Alcotest.(check (array int)) "division corner memory image" gpu_mem exec_mem;
  (* spot-check the spec values the hard way *)
  Alcotest.(check int) "5/0 = -1" (-1) exec_mem.(2);
  Alcotest.(check int) "5 rem 0 = 5" 5 exec_mem.(3);
  Alcotest.(check int) "min/-1 = min" I32.min_i32 exec_mem.(4);
  Alcotest.(check int) "min rem -1 = 0" 0 exec_mem.(5)

let test_exec_faults_on_control_flow () =
  let st = Exec.create () in
  let jump = Fgpu_predecode.of_insn (Fgpu_isa.Jump 0) in
  Alcotest.check_raises "jump faults" (Exec.Fault "control flow in straight-line executor")
    (fun () -> ignore (Exec.step st jump))

(* --- rule-table serialisation ------------------------------------------ *)

let test_rule_roundtrip_builtin () =
  let rules = Rules.default () in
  Alcotest.(check bool) "builtin table non-empty" true (rules <> []);
  List.iter
    (fun r ->
      let r' = Rule.of_line (Rule.to_line r) in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Rule.to_string r))
        true (r = r'))
    rules

let test_rule_file_roundtrip () =
  let rules = Rules.default () in
  let path = Filename.temp_file "ggpu_rules" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rules.save_file path rules;
      let back = Rules.load_file path in
      Alcotest.(check bool) "save/load identity" true (back = rules))

let test_rule_parse_errors () =
  List.iter
    (fun line ->
      match Rule.of_line line with
      | _ -> Alcotest.failf "parse accepted %S" line
      | exception Rule.Parse_error _ -> ())
    [
      "nonsense";
      "00000000";
      "zz => 00000000 ; clobbers= ; saves=1";
      (* an illegal opcode (63) *)
      "ffffffff => ; clobbers= ; saves=0";
      (* an ALU funct the ISA lacks (18) *)
      "0255d112 => ; clobbers= ; saves=0";
    ]

(* Whatever word a rule line carries, parsing it returns a rule or
   raises [Parse_error]: the decoder's own errors must not escape. *)
let prop_rule_line_total =
  QCheck.Test.make ~name:"rule line parses or raises Parse_error" ~count:1000
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      List.for_all
        (fun line ->
          match Rule.of_line line with
          | (_ : Rule.t) -> true
          | exception Rule.Parse_error _ -> true)
        [
          Printf.sprintf "%08lx => ; clobbers= ; saves=0" a;
          Printf.sprintf "%08lx => %08lx ; clobbers= ; saves=0" a b;
        ])

(* --- peephole liveness guard ------------------------------------------- *)

(* mov-coalescing: add r3,r1,r2; mov r2,r3  =>  add r2,r1,r2,
   clobbering r3.  Legal only where r3 is dead afterwards. *)
let mov_rule =
  {
    Rule.lhs =
      [ Fgpu_isa.Alu (Fgpu_isa.Add, 3, 1, 2); Fgpu_isa.Alui (Fgpu_isa.Add, 2, 3, 0l) ];
    rhs = [ Fgpu_isa.Alu (Fgpu_isa.Add, 2, 1, 2) ];
    clobbers = [ 3 ];
    saved = 8;
  }

let peephole_case program =
  Peephole.optimise_program ~rules:[ mov_rule ] program

let test_peephole_fires_when_clobber_dead () =
  let program =
    [|
      Fgpu_isa.Alu (Fgpu_isa.Add, 3, 1, 2);
      Fgpu_isa.Alui (Fgpu_isa.Add, 2, 3, 0l);
      Fgpu_isa.Sw (2, 1, 0) (* r3 dead here *);
      Fgpu_isa.Ret;
    |]
  in
  let code, report = peephole_case program in
  Alcotest.(check int) "one instruction deleted" 3 (Array.length code);
  Alcotest.(check int) "rule fired once" 1
    (List.fold_left (fun acc (_, n) -> acc + n) 0 report.Peephole.applied);
  Alcotest.(check int) "saved cycles" 8 report.Peephole.saved_cycles

let test_peephole_blocked_when_clobber_live () =
  let program =
    [|
      Fgpu_isa.Alu (Fgpu_isa.Add, 3, 1, 2);
      Fgpu_isa.Alui (Fgpu_isa.Add, 2, 3, 0l);
      Fgpu_isa.Sw (3, 1, 0) (* r3 still read: rewrite is unsound *);
      Fgpu_isa.Ret;
    |]
  in
  let code, report = peephole_case program in
  Alcotest.(check bool) "program unchanged" true (code = program);
  Alcotest.(check bool) "no rule fired" true (report.Peephole.applied = [])

let test_peephole_blocked_across_branch () =
  (* the window ends at the branch, and the branch target may read r3:
     liveness over the item CFG must keep the clobber alive *)
  let program =
    [|
      Fgpu_isa.Alu (Fgpu_isa.Add, 3, 1, 2);
      Fgpu_isa.Alui (Fgpu_isa.Add, 2, 3, 0l);
      Fgpu_isa.Branch (Fgpu_isa.Eq, 2, 0, 1) (* pc+1+1: the Sw below *);
      Fgpu_isa.Ret;
      Fgpu_isa.Sw (3, 1, 0);
      Fgpu_isa.Ret;
    |]
  in
  let code, report = peephole_case program in
  Alcotest.(check bool) "program unchanged" true (code = program);
  Alcotest.(check bool) "no rule fired" true (report.Peephole.applied = [])

(* --- tiny mining smoke -------------------------------------------------- *)

let test_mine_tiny_space () =
  let space =
    {
      Search.ops = [ Fgpu_isa.Add ];
      imms = [ 0l; 1l ];
      regs = [ 1; 2 ];
      max_len = 2;
    }
  in
  let { Search.rules; stats } =
    Search.mine ~space ~budget:20_000 ~domains:1
      ~lhs_filter:(fun _ -> true) ()
  in
  Alcotest.(check bool) "enumeration not truncated" false stats.Search.truncated;
  Alcotest.(check bool) "found rules" true (rules <> []);
  let cfg = Ggpu_fgpu.Config.default in
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s strictly cheaper" (Rule.to_string r))
        true
        (Cost.seq_cost cfg r.Rule.rhs < Cost.seq_cost cfg r.Rule.lhs);
      Alcotest.(check int)
        "saved matches cost model"
        (Cost.seq_cost cfg r.Rule.lhs - Cost.seq_cost cfg r.Rule.rhs)
        r.Rule.saved;
      Alcotest.(check bool) "serialises" true (Rule.of_line (Rule.to_line r) = r))
    rules

let suite =
  [
    ( "superopt",
      [
        Alcotest.test_case "exec matches Gpu.run (alu/mem)" `Quick
          test_exec_matches_gpu;
        Alcotest.test_case "exec division corner cases" `Quick
          test_exec_division_corners;
        Alcotest.test_case "exec faults on control flow" `Quick
          test_exec_faults_on_control_flow;
        Alcotest.test_case "builtin rule round-trip" `Quick
          test_rule_roundtrip_builtin;
        Alcotest.test_case "rule file save/load" `Quick test_rule_file_roundtrip;
        Alcotest.test_case "rule parse errors" `Quick test_rule_parse_errors;
        QCheck_alcotest.to_alcotest prop_rule_line_total;
        Alcotest.test_case "peephole fires when clobber dead" `Quick
          test_peephole_fires_when_clobber_dead;
        Alcotest.test_case "peephole blocked when clobber live" `Quick
          test_peephole_blocked_when_clobber_live;
        Alcotest.test_case "peephole blocked across branch" `Quick
          test_peephole_blocked_across_branch;
        Alcotest.test_case "tiny mining smoke" `Slow test_mine_tiny_space;
      ] );
  ]
