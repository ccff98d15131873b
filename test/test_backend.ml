(* Backend equivalence tests: the interpreting and threaded-code
   lane-execution engines, and the split (CU-parallel) execution mode,
   must be indistinguishable in every observable — stats, output
   buffers, FI classification signatures, suite metrics.

   The differential property generates random kernels (arithmetic,
   divergent control flow, bounded loops, coalesced/masked loads,
   cross-wavefront barrier communication) and random launch geometry,
   then checks every (backend x domains) combination against the
   sequential interpreter.  Generated kernels are race-free by
   construction — stores go only to the work-item's own slot, and
   cross-item reads only cross a barrier — because that is the
   contract under which split mode promises bit-identical results. *)

open Ggpu_kernels
open Ggpu_fgpu
open Ggpu_fi

(* read-only input buffer size; load indices are masked to [0, asize) *)
let asize = 64

(* --- random kernel generator ------------------------------------------ *)

type case = {
  kernel : Ast.kernel;
  gsize : int;
  lsize : int;
  cus : int;
  with_barrier : bool;
}

module G = QCheck.Gen

let gen_binop =
  G.oneofl
    Ast.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sra ]

let gen_cmpop = G.oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* depth-bounded expressions over [vars]; loads only touch the
   read-only buffer "a", with the index masked in range *)
let gen_expr vars depth =
  let open G in
  let leaf =
    oneof
      ([
         map Ast.const (int_range (-8) 8);
         return Ast.Global_id;
         return Ast.Local_id;
         return Ast.Local_size;
         return (Ast.var "n");
       ]
      @ List.map (fun v -> return (Ast.var v)) vars)
  in
  (fix (fun self depth ->
       if depth <= 0 then leaf
       else
         frequency
           [
             (2, leaf);
             ( 4,
               map3
                 (fun op a b -> Ast.Binop (op, a, b))
                 gen_binop (self (depth - 1)) (self (depth - 1)) );
             ( 1,
               map
                 (fun e ->
                   Ast.load "a" (Ast.Binop (Ast.And, e, Ast.const (asize - 1))))
                 (self (depth - 1)) );
           ]))
    depth

let gen_cond vars depth =
  G.map3
    (fun op a b -> Ast.Cmp (op, a, b))
    gen_cmpop (gen_expr vars depth) (gen_expr vars depth)

(* Template: scalar prologue, a bounded accumulation loop, a divergent
   if, a store to the item's own slot; optionally a barrier phase that
   reads another work-item's pre-barrier value (possibly from another
   wavefront — exactly what the split mode's barrier rounds must get
   right) and stores it into a second buffer. *)
let gen_kernel =
  let open G in
  let* e_x = gen_expr [ "i" ] 2 in
  let* e_y = gen_expr [ "i"; "x" ] 2 in
  let* iters = int_range 0 5 in
  let* e_loop = gen_expr [ "i"; "x"; "y"; "acc"; "k" ] 1 in
  let* cond = gen_cond [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_then = gen_expr [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_else = gen_expr [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_out = gen_expr [ "i"; "x"; "y"; "acc" ] 2 in
  let* with_barrier = bool in
  let* peer_shift = int_range 0 63 in
  let prologue =
    [
      Ast.Let ("i", Ast.Global_id);
      Ast.Let ("x", e_x);
      Ast.Let ("y", e_y);
      Ast.Let ("acc", Ast.const 0);
      Ast.For
        ( "k",
          Ast.const 0,
          Ast.const iters,
          [ Ast.Assign ("acc", Ast.(var "acc" +: e_loop)) ] );
      Ast.If (cond, [ Ast.Assign ("x", e_then) ], [ Ast.Assign ("y", e_else) ]);
      Ast.Store ("out", Ast.var "i", e_out);
    ]
  in
  let barrier_phase =
    [
      Ast.Barrier;
      Ast.Let ("lid", Ast.Local_id);
      Ast.Let ("base", Ast.(var "i" -: var "lid"));
      Ast.Let
        ( "peer",
          Ast.(
            var "base"
            +: Binop (Rem, var "lid" +: const peer_shift, Local_size)) );
      Ast.Store ("res", Ast.var "i", Ast.load "out" (Ast.var "peer"));
    ]
  in
  let params =
    [ Ast.Buffer "a"; Ast.Buffer "out"; Ast.Scalar "n" ]
    @ if with_barrier then [ Ast.Buffer "res" ] else []
  in
  let body = prologue @ if with_barrier then barrier_phase else [] in
  return ({ Ast.name = "rand"; params; body }, with_barrier)

let gen_case =
  let open G in
  let* kernel, with_barrier = gen_kernel in
  let* gsize = int_range 1 300 in
  let* lsize = oneofl [ 64; 128 ] in
  let* cus = oneofl [ 1; 2; 4 ] in
  return { kernel; gsize; lsize = min lsize gsize; cus; with_barrier }

let print_case c =
  Printf.sprintf "gsize=%d lsize=%d cus=%d barrier=%b body-stmts=%d" c.gsize
    c.lsize c.cus c.with_barrier
    (List.length c.kernel.Ast.body)

let arb_case = QCheck.make ~print:print_case gen_case

(* --- differential runner ---------------------------------------------- *)

let round_up n m = (n + m - 1) / m * m

let mk_args c =
  (* the barrier phase may read any slot of its workgroup's span, so
     size "out" to the workgroup-aligned grid *)
  let out_words = round_up c.gsize c.lsize in
  let a = Array.init asize (fun i -> Int32.of_int ((i * 2654435761) lxor i)) in
  let buffers =
    [ ("a", a); ("out", Array.make out_words 0l) ]
    @ if c.with_barrier then [ ("res", Array.make c.gsize 0l) ] else []
  in
  { Interp.buffers; scalars = [ ("n", Int32.of_int c.gsize) ] }

let observe c ~backend ~domains =
  let config = Config.with_cus Config.default c.cus in
  let compiled = Codegen_fgpu.compile c.kernel in
  let r =
    Run_fgpu.run ~config ~backend ~domains compiled ~args:(mk_args c)
      ~global_size:c.gsize ~local_size:c.lsize ()
  in
  (Stats.to_assoc r.Run_fgpu.stats, r.Run_fgpu.buffers)

let prop_backends_and_domains_agree =
  QCheck.Test.make ~name:"backend x domains differential" ~count:30 arb_case
    (fun c ->
      let reference = observe c ~backend:Gpu.Interp ~domains:1 in
      List.for_all
        (fun (backend, domains) -> observe c ~backend ~domains = reference)
        [ (Gpu.Threaded, 1); (Gpu.Threaded, 3); (Gpu.Threaded, 4); (Gpu.Interp, 2) ])

(* --- superopt peephole differential ------------------------------------ *)

(* The peephole pass is allowed to change timing observables (cycles,
   instruction counts, vu_busy, divergent issue counts) but nothing
   else: output buffers must be bit-identical, and so must every
   memory/synchronisation counter, since the pass never rewrites a
   load, store or barrier. *)
let semantic_keys = [ "loads"; "stores"; "barriers"; "workgroups" ]

let observe_superopt c ~superopt =
  let config = Config.with_cus Config.default c.cus in
  let compiled = Codegen_fgpu.compile ~superopt c.kernel in
  let r =
    Run_fgpu.run ~config compiled ~args:(mk_args c) ~global_size:c.gsize
      ~local_size:c.lsize ()
  in
  let semantic =
    List.filter (fun (k, _) -> List.mem k semantic_keys)
      (Stats.to_assoc r.Run_fgpu.stats)
  in
  (semantic, r.Run_fgpu.buffers)

let prop_superopt_preserves_semantics =
  QCheck.Test.make ~name:"superopt peephole differential" ~count:30 arb_case
    (fun c ->
      observe_superopt c ~superopt:true = observe_superopt c ~superopt:false)

(* --- fixed cross-wavefront barrier case -------------------------------- *)

(* Two wavefronts per workgroup; after the barrier every item reads a
   slot written by the *other* wavefront before it.  Checks the split
   mode's barrier rounds against the sequential scheduler exactly, and
   the expected values analytically. *)
let test_split_barrier_cross_wavefront () =
  let kernel =
    {
      Ast.name = "xwf_barrier";
      params = [ Ast.Buffer "out"; Ast.Buffer "res" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.Store ("out", Ast.var "i", Ast.(var "i" *: const 3));
          Ast.Barrier;
          Ast.Let ("lid", Ast.Local_id);
          Ast.Let ("base", Ast.(var "i" -: var "lid"));
          Ast.Let
            ( "peer",
              Ast.(
                var "base" +: Binop (Rem, var "lid" +: const 64, Local_size)) );
          Ast.Store ("res", Ast.var "i", Ast.load "out" (Ast.var "peer"));
        ];
    }
  in
  let n = 512 in
  let run ~backend ~domains =
    let args =
      {
        Interp.buffers = [ ("out", Array.make n 0l); ("res", Array.make n 0l) ];
        scalars = [];
      }
    in
    let compiled = Codegen_fgpu.compile kernel in
    let r =
      Run_fgpu.run ~backend ~domains compiled ~args ~global_size:n
        ~local_size:128 ()
    in
    (Stats.to_assoc r.Run_fgpu.stats, Run_fgpu.output r "res")
  in
  let (stats_ref, res_ref) = run ~backend:Gpu.Interp ~domains:1 in
  (* analytic expectation: each item reads its cross-wavefront peer *)
  for i = 0 to n - 1 do
    let lid = i mod 128 in
    let peer = i - lid + ((lid + 64) mod 128) in
    Alcotest.(check int32)
      (Printf.sprintf "res[%d]" i)
      (Int32.of_int (3 * peer))
      res_ref.(i)
  done;
  List.iter
    (fun (backend, domains) ->
      let stats, res = run ~backend ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "stats equal (%s, %d domains)"
           (Gpu.backend_name backend) domains)
        true
        (stats = stats_ref);
      Alcotest.(check bool)
        (Printf.sprintf "res equal (%s, %d domains)" (Gpu.backend_name backend)
           domains)
        true (res = res_ref))
    [ (Gpu.Threaded, 1); (Gpu.Threaded, 2); (Gpu.Threaded, 4); (Gpu.Interp, 3) ]

(* --- suite metrics: failures counter always present -------------------- *)

let test_suite_failures_registered () =
  let w = Suite.copy in
  let jobs =
    [ { Suite_runner.workload = w; cus = 1; size = w.Suite.round_size 256 } ]
  in
  let results, snap = Suite_runner.run ~domains:1 jobs in
  List.iter
    (fun r ->
      Alcotest.(check bool) "job correct" true r.Suite_runner.correct)
    results;
  Alcotest.(check (option int))
    "suite.failures present and zero on a clean run" (Some 0)
    (Ggpu_obs.Metrics.find_counter snap "suite.failures");
  Alcotest.(check (option int))
    "suite.jobs counted" (Some 1)
    (Ggpu_obs.Metrics.find_counter snap "suite.jobs")

(* --- FI classification signatures are backend-independent -------------- *)

let test_fi_signature_backend_parity () =
  List.iter
    (fun (workload, seed) ->
      let signature backend =
        Campaign.signature
          (Campaign.run ~domains:1 ~backend ~target:(Campaign.Ggpu 2) ~workload
             ~size:256 ~trials:40 ~seed ())
      in
      Alcotest.(check string)
        (workload.Suite.name ^ " fi signature identical across backends")
        (signature Gpu.Interp) (signature Gpu.Threaded))
    [ (Suite.copy, 7); (Suite.parallel_sel, 42) ]

(* --- fault injection into a wavefront-uniform register ----------------- *)

(* The threaded backend executes an instruction once per wavefront when
   its source registers hold the same value in every lane
   ([Wavefront.uniform]).  A fault that changes one lane of such a
   register must clear its uniform bit, or every lane would go on
   reading lane 0's value.  parallel_sel's [n] is a parameter, so it is
   uniform until the flip; lane 5's copy then bounds a different loop
   trip count.  The interpreter never reads the mask and is the
   reference. *)
let test_inject_into_uniform_register () =
  let w = Suite.parallel_sel and size = 256 in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let n_reg = List.assoc "n" compiled.Codegen_fgpu.param_regs in
  let config = Config.with_cus Config.default 2 in
  let run ~backend ~at =
    let flip (probe : Gpu.probe) =
      let wf = probe.Gpu.p_wavefronts.(0) and lane = 5 in
      Wavefront.set_reg wf ~lane n_reg
        (Int32.logxor (Wavefront.reg wf ~lane n_reg) 1l)
    in
    let r =
      Run_fgpu.run ~config ~backend ~inject:(at, flip) compiled
        ~args:(w.Suite.mk_args ~size) ~global_size:(w.Suite.global_size ~size)
        ~local_size:(min w.Suite.local_size size) ()
    in
    (Stats.to_assoc r.Run_fgpu.stats, Run_fgpu.output r w.Suite.output_buffer)
  in
  List.iter
    (fun at ->
      let stats_ref, out_ref = run ~backend:Gpu.Interp ~at in
      let stats, out = run ~backend:Gpu.Threaded ~at in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "stats, flip at cycle %d" at)
        stats_ref stats;
      Alcotest.(check (array int32))
        (Printf.sprintf "output, flip at cycle %d" at)
        out_ref out)
    [ 0; 1 ]

let suite =
  [
    ( "backend",
      [
        QCheck_alcotest.to_alcotest prop_backends_and_domains_agree;
        QCheck_alcotest.to_alcotest prop_superopt_preserves_semantics;
        Alcotest.test_case "split barrier cross-wavefront" `Quick
          test_split_barrier_cross_wavefront;
        Alcotest.test_case "suite.failures registered at zero" `Quick
          test_suite_failures_registered;
        Alcotest.test_case "fi signature backend parity" `Slow
          test_fi_signature_backend_parity;
        Alcotest.test_case "inject into uniform register" `Quick
          test_inject_into_uniform_register;
      ] );
  ]
