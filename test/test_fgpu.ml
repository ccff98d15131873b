(* G-GPU simulator tests: functional equivalence with the reference
   interpreter on all seven paper benchmarks, divergence handling,
   scaling behaviour with CU count, cache/AXI contention, and barrier
   semantics. *)

open Ggpu_kernels
open Ggpu_fgpu
open Ast_build

let i32_array = Alcotest.(array int)
let cus_label cus = String.concat "," (List.map string_of_int cus)

let run_workload ?(config = Config.default) w ~size =
  let args = w.Suite.mk_args ~size in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let result =
    Run_fgpu.run ~config compiled ~args
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  (args, result)

let test_gpu_matches_reference () =
  List.iter
    (fun w ->
      let size = w.Suite.round_size (min 128 w.Suite.riscv_size) in
      let args, result = run_workload w ~size in
      Alcotest.check i32_array
        (Printf.sprintf "%s gpu vs reference" w.Suite.name)
        (w.Suite.expected ~size args)
        (Run_fgpu.output result w.Suite.output_buffer))
    Suite.all

let test_gpu_multi_cu_matches_reference () =
  List.iter
    (fun cus ->
      let config = Config.with_cus Config.default cus in
      List.iter
        (fun w ->
          let size = w.Suite.round_size (min 256 w.Suite.ggpu_size) in
          let args, result = run_workload ~config w ~size in
          Alcotest.check i32_array
            (Printf.sprintf "%s gpu(%dcu) vs reference" w.Suite.name cus)
            (w.Suite.expected ~size args)
            (Run_fgpu.output result w.Suite.output_buffer))
        Suite.all)
    [ 2; 4; 8 ]

let test_more_cus_not_slower () =
  (* a parallel kernel must not slow down when CUs are added *)
  let cycles cus =
    let config = Config.with_cus Config.default cus in
    let _, result = run_workload ~config Suite.vec_mul ~size:4096 in
    result.Run_fgpu.stats.Stats.cycles
  in
  let c1 = cycles 1 and c2 = cycles 2 and c8 = cycles 8 in
  Alcotest.(check bool)
    (Printf.sprintf "2 CU faster (%d vs %d)" c2 c1)
    true (c2 < c1);
  Alcotest.(check bool)
    (Printf.sprintf "8 CU fastest (%d vs %d)" c8 c2)
    true (c8 <= c2)

let test_scaling_sublinear_for_memory_bound () =
  (* copy is memory bound: speedup from 1 to 8 CUs is limited by the
     shared cache/AXI, the effect behind the paper's Fig. 5 shape *)
  let cycles cus =
    let config = Config.with_cus Config.default cus in
    let _, result = run_workload ~config Suite.copy ~size:8192 in
    result.Run_fgpu.stats.Stats.cycles
  in
  let c1 = cycles 1 and c8 = cycles 8 in
  let speedup = float_of_int c1 /. float_of_int c8 in
  Alcotest.(check bool)
    (Printf.sprintf "memory-bound speedup %.2f below 6x" speedup)
    true (speedup < 6.0);
  Alcotest.(check bool)
    (Printf.sprintf "still some speedup %.2f" speedup)
    true (speedup > 1.05)

let test_divergence_counted () =
  (* a kernel whose branches depend on the work-item id must produce
     divergent issues *)
  let kernel =
    {
      Ast.name = "diverge";
      params = [ Ast.Buffer "out"; Ast.Scalar "n" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.If
            ( var "i" <: var "n",
              [
                Ast.If
                  ( Ast.(Binop (And, var "i", const 1) ==: const 0),
                    [ Ast.Store ("out", var "i", var "i" *: const 2) ],
                    [ Ast.Store ("out", var "i", const 0 -: var "i") ]
                  );
              ],
              [] );
        ];
    }
  in
  let n = 128 in
  let args =
    {
      Mem_image.buffers = [ ("out", Array.make n 0) ];
      scalars = [ ("n", n) ];
    }
  in
  let compiled = Codegen_fgpu.compile kernel in
  let result =
    Run_fgpu.run compiled ~args ~global_size:n ~local_size:64 ()
  in
  let expected =
    Array.init n (fun i -> if i land 1 = 0 then 2 * i else -i)
  in
  Alcotest.check i32_array "divergent kernel output" expected
    (Run_fgpu.output result "out");
  Alcotest.(check bool) "divergent issues > 0" true
    (result.Run_fgpu.stats.Stats.divergent_issues > 0)

let test_barrier_releases () =
  (* one wavefront per workgroup still passes its barrier; with several
     wavefronts all must arrive first - the run simply completing
     exercises the release logic *)
  let kernel =
    {
      Ast.name = "barrier";
      params = [ Ast.Buffer "out" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.Store ("out", var "i", var "i");
          Ast.Barrier;
          (* after the barrier, read a neighbour within the workgroup *)
          Ast.Let ("lid", Ast.Local_id);
          Ast.Let ("base", var "i" -: var "lid");
          Ast.Let
            ("peer", Ast.(var "base" +: Binop (Rem, var "lid" +: const 1, Local_size)));
          Ast.Store ("out", var "i", load "out" (var "peer"));
        ];
    }
  in
  let n = 256 in
  let args = { Mem_image.buffers = [ ("out", Array.make n 0) ]; scalars = [] } in
  let compiled = Codegen_fgpu.compile kernel in
  let result = Run_fgpu.run compiled ~args ~global_size:n ~local_size:128 () in
  let out = Run_fgpu.output result "out" in
  Alcotest.(check bool) "barriers seen" true
    (result.Run_fgpu.stats.Stats.barriers > 0);
  (* each item must hold its workgroup neighbour's id *)
  let ok = ref true in
  for i = 0 to n - 1 do
    let lid = i mod 128 in
    let base = i - lid in
    let peer = base + ((lid + 1) mod 128) in
    if out.(i) <> peer then ok := false
  done;
  Alcotest.(check bool) "neighbour exchange" true !ok

let test_cache_stats_consistent () =
  let _, result = run_workload Suite.copy ~size:4096 in
  let s = result.Run_fgpu.stats in
  Alcotest.(check int) "requests = hits + misses"
    s.Stats.line_requests
    (s.Stats.cache_hits + s.Stats.cache_misses);
  Alcotest.(check bool) "some misses (cold cache)" true (s.Stats.cache_misses > 0);
  Alcotest.(check bool) "axi words moved" true (s.Stats.axi_words > 0)

let test_axi_bandwidth_matters () =
  (* fewer AXI ports must not make a streaming kernel faster *)
  let cycles ports =
    let config =
      Config.validate
        {
          Config.default with
          Config.num_cus = 4;
          axi = { Config.default.Config.axi with Config.data_ports = ports };
        }
    in
    let _, result = run_workload ~config Suite.copy ~size:8192 in
    result.Run_fgpu.stats.Stats.cycles
  in
  Alcotest.(check bool) "1 port slower than 4" true (cycles 1 > cycles 4)

let test_empty_grid () =
  let compiled = Codegen_fgpu.compile Suite.copy.Suite.kernel in
  let args = Suite.copy.Suite.mk_args ~size:16 in
  let result = Run_fgpu.run compiled ~args ~global_size:0 ~local_size:64 () in
  Alcotest.(check int) "no cycles" 0 result.Run_fgpu.stats.Stats.cycles

let test_bad_config_rejected () =
  match Config.with_cus Config.default 9 with
  | _ -> Alcotest.fail "expected Bad_config"
  | exception Config.Bad_config _ -> ()

let test_workgroup_accounting () =
  let _, result = run_workload Suite.copy ~size:1024 in
  (* 1024 items / local 256 = 4 workgroups *)
  Alcotest.(check int) "workgroups" 4 result.Run_fgpu.stats.Stats.workgroups

(* The issue loop allocates nothing: a longer loop at the same launch
   geometry adds wavefront-instructions but no minor-heap words.  The
   loop body mixes a wavefront-uniform load (interactive: heap pop,
   cache charge) with per-lane ALU work (burst issue).  Measured as the
   difference of two launches, so per-launch and per-workgroup
   allocations cancel. *)
let test_issue_loop_allocation_free () =
  let open Ast in
  let kernel =
    {
      name = "loop_alloc";
      params = [ Buffer "a"; Buffer "out"; Scalar "iters" ];
      body =
        [
          Let ("i", Global_id);
          Let ("acc", const 0);
          For
            ( "k",
              const 0,
              var "iters",
              [
                Assign
                  ( "acc",
                    var "acc" +: load "a" (Binop (And, var "k", const 63))
                    +: var "i" );
              ] );
          Store ("out", var "i", var "acc");
        ];
    }
  in
  let compiled = Codegen_fgpu.compile kernel in
  (* one launch, timed at every count of [cus]: with two, a record pass
     executes each wavefront-instruction once and a replay per count
     issues it again.  The record pass's per-wavefront trace buffers
     double as they grow, and only those under the minor heap's size
     limit count here, so its figure sits above zero but is bounded
     per wavefront, not per instruction (0.054 at this geometry). *)
  let launch ~cus iters =
    let args =
      {
        Mem_image.buffers =
          [ ("a", Array.init 64 Fun.id); ("out", Array.make 256 0) ];
        scalars = [ ("iters", iters) ];
      }
    in
    let before = Gc.minor_words () in
    let r =
      Run_fgpu.run_cus compiled ~args ~global_size:256 ~local_size:128 ~cus ()
    in
    ( Gc.minor_words () -. before,
      (List.hd r).Run_fgpu.stats.Stats.wf_instructions )
  in
  List.iter
    (fun cus ->
      ignore (launch ~cus 1);
      let words_lo, wfi_lo = launch ~cus 16 in
      let words_hi, wfi_hi = launch ~cus 256 in
      let per_wfi = (words_hi -. words_lo) /. float_of_int (wfi_hi - wfi_lo) in
      Alcotest.(check bool)
        (Printf.sprintf
           "cus %s: %.3f minor words per extra wavefront-instruction"
           (cus_label cus) per_wfi)
        true (per_wfi < 0.1))
    [ [ 2 ]; [ 1; 2 ] ]

(* Registers start at zero in every wavefront, including one that takes
   over the register file of a workgroup retired earlier in the launch.
   Each work-item stores r20, then sets it to 7.  On one CU only eight
   64-item workgroups are resident at a time, so most of the 64 run in
   recycled register files, and must still store zero.  A launch timed
   at two counts runs its workgroups one after another in the record
   pass, each in the register files of the one before. *)
let test_recycled_registers_start_at_zero () =
  let open Ggpu_isa.Fgpu_isa in
  let program =
    [|
      Special (Lid, 5);
      Special (Wgoff, 6);
      Alu (Add, 7, 5, 6);
      Alui (Sll, 7, 7, 2l);
      Alu (Add, 7, 7, 1);
      Sw (20, 7, 0);
      Li (20, 7l);
      Ret;
    |]
  in
  let n = 4096 in
  List.iter
    (fun (engine, cus) ->
      let mem = Array.make n 1 in
      let stats =
        Fgpu_oracle.with_engine engine (fun () ->
            Gpu.run_cus Config.default ~cus ~program ~params:[ 0 ]
              ~global_size:n ~local_size:64 ~mem)
      in
      List.iter
        (fun s -> Alcotest.(check int) "workgroups" 64 s.Stats.workgroups)
        stats;
      Alcotest.(check bool)
        (Printf.sprintf "%s, cus %s: every item stored zero"
           (Fgpu_oracle.engine_name engine) (cus_label cus))
        true
        (Array.for_all (fun v -> v = 0) mem))
    Fgpu_oracle.[ (Threaded, [ 1 ]); (Oracle, [ 1 ]); (Threaded, [ 1; 2 ]) ]

(* Each issue's flag word, bit for bit, from both lane engines stepped
   directly on one 64-lane wavefront: the store, the divider and
   multiplier in register and immediate form, a uniform not-taken and
   a per-lane taken branch, a jump, a barrier, then a branch that
   splits the lanes.  The half that falls through issues partially and
   retires without the retire bit; the other half then is every live
   lane, so its issues are not partial, and its [ret] is the last. *)
let test_issue_flag_word () =
  let open Ggpu_isa.Fgpu_isa in
  let program =
    [|
      Special (Lid, 5);
      Li (6, 3l);
      Alu (Mul, 7, 5, 6);
      Alui (Mul, 7, 5, 5l);
      Alu (Div, 8, 5, 6);
      Alui (Div, 8, 5, 7l);
      Alu (Rem, 9, 5, 6);
      Alui (Rem, 9, 5, 7l);
      Alui (Sll, 10, 5, 2l);
      Sw (8, 10, 0);
      Branch (Eq, 0, 6, 1) (* 10: taken by no lane *);
      Branch (Eq, 5, 5, 1) (* 11: taken by every lane *);
      Li (11, 1l);
      Jump 15;
      Li (11, 2l);
      Barrier;
      Alui (Sltu, 12, 5, 32l);
      Branch (Ne, 12, 0, 2) (* 17: taken by lanes 0-31 *);
      Alu (Mul, 13, 5, 5);
      Ret;
      Alui (Add, 14, 5, 1l);
      Ret;
    |]
  in
  let open Wavefront in
  let expected =
    [
      (0, 0); (1, 0); (2, f_mul); (3, f_mul); (4, f_div); (5, f_div);
      (6, f_div); (7, f_div); (8, 0); (9, f_store); (10, 0);
      (11, f_branch); (13, f_branch); (15, f_barrier); (16, 0);
      (17, f_branch); (18, f_partial lor f_mul); (19, f_partial);
      (20, 0); (21, f_retire);
    ]
  in
  let dprog = Ggpu_isa.Fgpu_predecode.of_program program in
  let line_words = Config.default.Config.cache.Config.line_words in
  let words (issue : Wavefront.t -> outcome -> unit) =
    let wf =
      create ~wg_id:0 ~wf_index:0 ~size:64 ~wg_offset:0 ~wg_size:64
        ~global_size:64 ~params:[] ()
    in
    let out = make_outcome ~max_lanes:64 in
    let rec go acc =
      if finished wf then List.rev acc
      else begin
        issue wf out;
        go ((out.pc, out.flags) :: acc)
      end
    in
    go []
  in
  let threaded =
    let mem = Array.make 64 0 in
    let th = Threaded.compile dprog ~wf_size:64 ~mem ~line_words in
    words (Threaded.issue th)
  and oracle =
    words (Fgpu_oracle.issue dprog ~mem:(Array.make 64 0) ~line_words)
  in
  Alcotest.(check (list (pair int int))) "threaded (pc, flags)" expected threaded;
  Alcotest.(check (list (pair int int))) "oracle (pc, flags)" expected oracle

(* Run a hand-written program on one workgroup of [lanes] items (r1
   holds the buffer base, 0) from memory image [init], under both lane
   engines: each must leave [expected]. *)
let check_engines ~program ~lanes ~expected init =
  List.iter
    (fun engine ->
      let mem = Array.copy init in
      Fgpu_oracle.with_engine engine (fun () ->
          ignore
            (Gpu.run Config.default ~program ~params:[ 0 ] ~global_size:lanes
               ~local_size:lanes ~mem
              : Stats.t));
      Alcotest.check i32_array
        (Fgpu_oracle.engine_name engine ^ " memory image")
        expected mem)
    Fgpu_oracle.[ Oracle; Threaded ]

(* Every lane loads its own word, mangles it through the ALU (a Mul, an
   immediate load, both shift flavours) and stores it back. *)
let test_engines_alu_mem () =
  let open Ggpu_isa in
  let program =
    Fgpu_isa.
      [|
        Special (Lid, 2);
        Special (Wgoff, 3);
        Alu (Add, 4, 3, 2) (* gid *);
        Alui (Sll, 5, 4, 2l);
        Alu (Add, 5, 5, 1) (* addr *);
        Lw (6, 5, 0);
        Alui (Mul, 7, 6, 3l);
        Alu (Add, 7, 7, 4);
        Li (8, 0x1234l);
        Alu (Xor, 7, 7, 8);
        Alui (Sra, 9, 7, 1l);
        Alu (Sub, 7, 7, 9);
        Sw (7, 5, 0);
        Ret;
      |]
  in
  let lanes = 64 in
  let init =
    Array.init lanes (fun i -> I32.sx ((i * 2654435761) lxor (i lsl 7)))
  in
  let expected =
    Array.mapi
      (fun gid v ->
        let t = I32.add (I32.mul v 3) gid lxor 0x1234 in
        I32.sub t (I32.sra t 1))
      init
  in
  check_engines ~program ~lanes ~expected init

(* Division corner cases straight from the RISC-V M spec: x/0, x rem 0,
   min_int / -1 and min_int rem -1, one (dividend, divisor) word pair
   per lane, overwritten by (quotient, remainder). *)
let test_engines_division_corners () =
  let open Ggpu_isa in
  let program =
    Fgpu_isa.
      [|
        Special (Lid, 2);
        Alui (Sll, 3, 2, 3l) (* 2 words per lane *);
        Alu (Add, 3, 3, 1);
        Lw (4, 3, 0);
        Lw (5, 3, 4);
        Alu (Div, 6, 4, 5);
        Alu (Rem, 7, 4, 5);
        Sw (6, 3, 0);
        Sw (7, 3, 4);
        Ret;
      |]
  in
  let min = I32.min_i32 in
  check_engines ~program ~lanes:4
    ~expected:[| 2; 1; -1; 5; min; 0; -1; min |]
    [| 7; 3; 5; 0; min; -1; min; 0 |]

(* The G-GPU ALU in [Int32] with RISC-V M semantics, written apart from
   {!Ggpu_isa.I32}: the reference for the aliasing test below. *)
let reference_alu op a b =
  let open Ggpu_isa in
  let a = Int32.of_int a and b = Int32.of_int b in
  let sh = Int32.to_int b land 31 in
  let flag c = if c then 1l else 0l in
  Int32.to_int
    (match op with
    | Fgpu_isa.Add -> Int32.add a b
    | Fgpu_isa.Sub -> Int32.sub a b
    | Fgpu_isa.Mul -> Int32.mul a b
    | Fgpu_isa.Div ->
        if b = 0l then -1l
        else if a = Int32.min_int && b = -1l then Int32.min_int
        else Int32.div a b
    | Fgpu_isa.Rem ->
        if b = 0l then a
        else if a = Int32.min_int && b = -1l then 0l
        else Int32.rem a b
    | Fgpu_isa.And -> Int32.logand a b
    | Fgpu_isa.Or -> Int32.logor a b
    | Fgpu_isa.Xor -> Int32.logxor a b
    | Fgpu_isa.Sll -> Int32.shift_left a sh
    | Fgpu_isa.Srl -> Int32.shift_right_logical a sh
    | Fgpu_isa.Sra -> Int32.shift_right a sh
    | Fgpu_isa.Slt -> flag (Int32.compare a b < 0)
    | Fgpu_isa.Sltu -> flag (Int32.unsigned_compare a b < 0))

(* Every ALU operation with its destination among its sources, the
   shape the compiler emits for [s = s op x] and [s = x op s]: an
   instruction reads its sources before it writes.  Each lane loads its
   own operand pair (zero divisors, min_int / -1, shift amounts past
   31); r12 and r13 hold uniform operands, so the threaded engine's
   uniform short-cuts meet an aliased destination too, turning uniform
   and back.  The block runs once on a full, converged wavefront (the
   dense path those short-cuts sit on) and once split between odd and
   even lanes (the divergent path), into separate slots of each lane's
   256-word record. *)
let test_engines_alu_dst_is_src () =
  let open Ggpu_isa in
  let ops =
    Fgpu_isa.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu ]
  in
  let min = I32.min_i32 and max = 0x7FFF_FFFF in
  let pairs =
    [|
      (7, 3); (-7, 2); (min, -1); (17, 0); (0x1234_5678, 33); (-1, 31);
      (0, 0); (max, 1); (min, 0); (5, -3); (-8, 32); (0x7FFF, -1); (1, 63);
      (-0x5555_5556, 0x1F); (max, max); (min, min);
    |]
  in
  let ua = min and ub = -1 and imm = 5 in
  (* each form: its code (r4, r5 the lane's operands a, b), the register
     it leaves the result in, and that result *)
  let forms op =
    let f = reference_alu op in
    let copy d s = Fgpu_isa.Alui (Fgpu_isa.Add, d, s, 0l) in
    let imm32 = Int32.of_int imm in
    Fgpu_isa.
      [
        ([ copy 6 4; Alu (op, 6, 6, 5) ], 6, fun a b -> f a b);
        ([ copy 6 5; Alu (op, 6, 4, 6) ], 6, fun a b -> f a b);
        ([ copy 6 4; Alu (op, 6, 6, 6) ], 6, fun a _ -> f a a);
        ([ copy 7 12; Alu (op, 7, 7, 13) ], 7, fun _ _ -> f ua ub);
        ([ copy 7 12; Alu (op, 7, 7, 5) ], 7, fun _ b -> f ua b);
        ([ copy 6 4; Alu (op, 6, 6, 13) ], 6, fun a _ -> f a ub);
        ([ copy 7 13; Alu (op, 7, 4, 7) ], 7, fun a _ -> f a ub);
        ([ copy 6 4; Alui (op, 6, 6, imm32) ], 6, fun a _ -> f a imm);
        ([ copy 7 12; Alui (op, 7, 7, imm32) ], 7, fun _ _ -> f ua imm);
      ]
  in
  let n_forms = 9 and record = 256 in
  let slot ~base i j = base + (i * n_forms) + j in
  let converged = 2 and divergent = 2 + (List.length ops * n_forms) in
  let block ~base =
    List.concat
      (List.mapi
         (fun i op ->
           List.concat
             (List.mapi
                (fun j (code, r, _) ->
                  List.map (fun insn -> Fgpu_asm.I insn) code
                  @ [ Fgpu_asm.I (Fgpu_isa.Sw (r, 3, 4 * slot ~base i j)) ])
                (forms op)))
         ops)
  in
  let program =
    Fgpu_asm.assemble
      (Fgpu_asm.
         [
           I (Fgpu_isa.Special (Fgpu_isa.Lid, 2));
           I (Fgpu_isa.Alui (Fgpu_isa.Sll, 3, 2, 10l)) (* 1024-byte records *);
           I (Fgpu_isa.Alu (Fgpu_isa.Add, 3, 3, 1));
           I (Fgpu_isa.Lw (4, 3, 0));
           I (Fgpu_isa.Lw (5, 3, 4));
           Li32 (12, Int32.of_int ua);
           Li32 (13, Int32.of_int ub);
         ]
      @ block ~base:converged
      @ Fgpu_asm.
          [
            I (Fgpu_isa.Alui (Fgpu_isa.And, 9, 2, 1l));
            Branch_to (Fgpu_isa.Eq, 9, 0, "even");
          ]
      @ block ~base:divergent
      @ Fgpu_asm.[ Jump_to "done"; Label "even" ]
      @ block ~base:divergent
      @ Fgpu_asm.[ Label "done"; I Fgpu_isa.Ret ])
  in
  let lanes = Config.default.Config.wavefront_size in
  let pair l = pairs.(l mod Array.length pairs) in
  let init = Array.make (lanes * record) 0 in
  for l = 0 to lanes - 1 do
    let a, b = pair l in
    init.(l * record) <- a;
    init.((l * record) + 1) <- b
  done;
  let expected = Array.copy init in
  for l = 0 to lanes - 1 do
    let a, b = pair l in
    List.iteri
      (fun i op ->
        List.iteri
          (fun j (_, _, value) ->
            List.iter
              (fun base ->
                expected.((l * record) + slot ~base i j) <- value a b)
              [ converged; divergent ])
          (forms op))
      ops
  done;
  check_engines ~program ~lanes ~expected init

let buffers_t = Alcotest.(list (pair string i32_array))

(* Runs [kernel] on the G-GPU under both lane engines and at two CU
   counts, checking every run's buffers against [expected]. *)
let check_fgpu_runs kernel ~args ~global_size ~local_size ~expected ~label =
  let compiled = Codegen_fgpu.compile kernel in
  List.iter
    (fun (engine, cus) ->
      let r =
        Fgpu_oracle.with_engine engine (fun () ->
            Run_fgpu.run
              ~config:(Config.with_cus Config.default cus)
              compiled ~args:(args ()) ~global_size ~local_size ())
      in
      Alcotest.check buffers_t
        (label
           (Printf.sprintf "%s, %d CUs" (Fgpu_oracle.engine_name engine) cus))
        expected r.Run_fgpu.buffers)
    Fgpu_oracle.[ (Oracle, 1); (Threaded, 1); (Threaded, 2) ]

(* A tail workgroup (the global size is not a multiple of the local
   size) reads the launch's local size: on the G-GPU as in Interp and
   on the RISC-V build. *)
let test_tail_workgroup_local_size () =
  let kernel =
    {
      Ast.name = "sizes";
      params = [ Ast.Buffer "ls"; Ast.Buffer "gs" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.Store ("ls", var "i", Ast.Local_size);
          Ast.Store ("gs", var "i", Ast.Global_size);
        ];
    }
  in
  List.iter
    (fun (global_size, local_size) ->
      let args () =
        {
          Mem_image.buffers =
            [ ("ls", Array.make global_size 0); ("gs", Array.make global_size 0) ];
          scalars = [];
        }
      in
      let expected =
        [
          ("ls", Array.make global_size local_size);
          ("gs", Array.make global_size global_size);
        ]
      in
      let label what =
        Printf.sprintf "%d items in workgroups of %d: %s" global_size
          local_size what
      in
      let interp = args () in
      Interp.run kernel ~args:interp ~global_size ~local_size;
      Alcotest.check buffers_t (label "interp") expected interp.Mem_image.buffers;
      let rv =
        Run_rv32.run (Codegen_rv32.compile kernel) ~args:(args ())
          ~global_size ~local_size ()
      in
      Alcotest.check buffers_t (label "rv32") expected rv.Run_rv32.buffers;
      check_fgpu_runs kernel ~args ~global_size ~local_size ~expected ~label)
    [ (138, 64); (100, 96); (130, 128) ]

(* A tail workgroup passes its barrier: the wavefronts past the global
   size, partly or wholly empty, do not hold back the live ones.  After
   the barrier each item reads the item 65 places further on in its
   own workgroup (another wavefront's), wrapping within the live
   items. *)
let test_tail_workgroup_barrier () =
  let open Ast in
  let kernel =
    {
      name = "tail_barrier";
      params = [ Buffer "out"; Buffer "res"; Scalar "n" ];
      body =
        [
          Let ("i", Global_id);
          Store ("out", var "i", (var "i" *: const 3) +: const 1);
          Barrier;
          Let ("lid", Local_id);
          Let ("base", var "i" -: var "lid");
          Let ("live", Local_size);
          If
            ( var "base" +: var "live" >: var "n",
              [ Assign ("live", var "n" -: var "base") ],
              [] );
          Store
            ( "res",
              var "i",
              load "out" (var "base" +: ((var "lid" +: const 65) %: var "live"))
            );
        ];
    }
  in
  List.iter
    (fun (global_size, local_size) ->
      let args () =
        {
          Mem_image.buffers =
            [
              ("out", Array.make global_size 0); ("res", Array.make global_size 0);
            ];
          scalars = [ ("n", global_size) ];
        }
      in
      let res =
        Array.init global_size (fun i ->
            let base = i - (i mod local_size) in
            let live = Int.min local_size (global_size - base) in
            let peer = base + ((i - base + 65) mod live) in
            (3 * peer) + 1)
      in
      let expected =
        [ ("out", Array.init global_size (fun i -> (3 * i) + 1)); ("res", res) ]
      in
      let label what =
        Printf.sprintf "%d items in workgroups of %d: %s" global_size
          local_size what
      in
      check_fgpu_runs kernel ~args ~global_size ~local_size ~expected ~label)
    (* tails of 72 items over 2 wavefronts, 2 items (one empty
       wavefront), a lone partial workgroup, and 54 items *)
    [ (200, 128); (130, 128); (100, 96); (150, 96) ]

(* Property: GPU result equals interpreter result for random sizes on a
   divergent kernel (div_int exercises the iterative divider too). *)
let prop_gpu_div_random =
  QCheck.Test.make ~name:"gpu div_int correct on random sizes" ~count:10
    QCheck.(int_range 1 500)
    (fun size ->
      let args, result = run_workload Suite.div_int ~size in
      Run_fgpu.output result "out" = Suite.div_int.Suite.expected ~size args)

let suite =
  [
    ( "fgpu",
      [
        Alcotest.test_case "gpu matches reference" `Quick
          test_gpu_matches_reference;
        Alcotest.test_case "multi-CU matches reference" `Quick
          test_gpu_multi_cu_matches_reference;
        Alcotest.test_case "more CUs not slower" `Quick test_more_cus_not_slower;
        Alcotest.test_case "memory-bound scaling sublinear" `Quick
          test_scaling_sublinear_for_memory_bound;
        Alcotest.test_case "divergence counted" `Quick test_divergence_counted;
        Alcotest.test_case "barrier releases" `Quick test_barrier_releases;
        Alcotest.test_case "cache stats consistent" `Quick
          test_cache_stats_consistent;
        Alcotest.test_case "axi bandwidth matters" `Quick
          test_axi_bandwidth_matters;
        Alcotest.test_case "empty grid" `Quick test_empty_grid;
        Alcotest.test_case "bad config rejected" `Quick test_bad_config_rejected;
        Alcotest.test_case "workgroup accounting" `Quick
          test_workgroup_accounting;
        Alcotest.test_case "issue loop allocation-free" `Quick
          test_issue_loop_allocation_free;
        Alcotest.test_case "recycled registers start at zero" `Quick
          test_recycled_registers_start_at_zero;
        Alcotest.test_case "issue flag word per instruction" `Quick
          test_issue_flag_word;
        Alcotest.test_case "engines match RV32M on alu/mem" `Quick
          test_engines_alu_mem;
        Alcotest.test_case "engines match RV32M division corners" `Quick
          test_engines_division_corners;
        Alcotest.test_case "alu destination may be a source" `Quick
          test_engines_alu_dst_is_src;
        Alcotest.test_case "tail workgroup reads the launch local size"
          `Quick test_tail_workgroup_local_size;
        Alcotest.test_case "tail workgroup passes its barrier" `Quick
          test_tail_workgroup_barrier;
        QCheck_alcotest.to_alcotest prop_gpu_div_random;
      ] );
  ]
