(* Engine equivalence tests: the lane engine ({!Threaded}) and its
   reference ({!Fgpu_oracle}), and the split (CU-parallel) execution
   mode, must be indistinguishable in every observable — stats, output
   buffers, FI classification signatures, suite metrics.

   The differential property generates random kernels (arithmetic,
   divergent control flow, bounded loops, coalesced/masked loads,
   cross-wavefront barrier communication) and random launch geometry,
   then checks every (engine x domains) combination against the
   reference on one domain.  Generated kernels are race-free by
   construction — stores go only to the work-item's own slot, and
   cross-item reads only cross a barrier — because that is the
   contract under which split mode promises bit-identical results.
   The same kernels also check both code generators against the
   reference interpreter.  Under QCHECK_LONG=1 the differential runs its
   long factor times over (about 3,000 kernels); QCHECK_SEED replays a
   run. *)

open Ggpu_kernels
open Ggpu_fgpu
open Ggpu_fi
open Fgpu_oracle
open Ast_build

(* read-only input buffer size; load indices are masked to [0, asize) *)
let asize = 64

(* --- random kernel generator ------------------------------------------ *)

type case = {
  kernel : Ast.kernel;
  halves : Ast.kernel list;
      (** barrier-free kernels whose back-to-back {!Interp.run}s are
          [kernel]'s reference *)
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
         map const (int_range (-8) 8);
         return Ast.Global_id;
         return Ast.Local_id;
         return Ast.Local_size;
         return (var "n");
       ]
      @ List.map (fun v -> return (var v)) vars)
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
                   load "a" (Ast.Binop (Ast.And, e, const (asize - 1))))
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
   right) and stores it into a second buffer.  The loop's update reads
   its variable as the left operand and the else branch's as the right
   one: the two shapes {!Lower} writes straight into the variable's
   register. *)
let gen_kernel =
  let open G in
  let* e_x = gen_expr [ "i" ] 2 in
  let* e_y = gen_expr [ "i"; "x" ] 2 in
  let* iters = int_range 0 5 in
  let* e_loop = gen_expr [ "i"; "x"; "y"; "acc"; "k" ] 1 in
  let* cond = gen_cond [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_then = gen_expr [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_else = gen_expr [ "i"; "x"; "y"; "acc" ] 1 in
  let* op_else = gen_binop in
  let* e_out = gen_expr [ "i"; "x"; "y"; "acc" ] 2 in
  let* with_barrier = bool in
  let* peer_shift = int_range 0 63 in
  let prologue =
    [
      Ast.Let ("i", Ast.Global_id);
      Ast.Let ("x", e_x);
      Ast.Let ("y", e_y);
      Ast.Let ("acc", const 0);
      Ast.For
        ( "k",
          const 0,
          const iters,
          [ Ast.Assign ("acc", var "acc" +: e_loop) ] );
      Ast.If
        ( cond,
          [ Ast.Assign ("x", e_then) ],
          [ Ast.Assign ("y", Ast.Binop (op_else, e_else, var "y")) ] );
      Ast.Store ("out", var "i", e_out);
    ]
  in
  let after_barrier =
    [
      Ast.Let ("lid", Ast.Local_id);
      Ast.Let ("base", var "i" -: var "lid");
      Ast.Let
        ( "peer",
          Ast.(
            var "base"
            +: Binop (Rem, var "lid" +: const peer_shift, Local_size)) );
      Ast.Store ("res", var "i", load "out" (var "peer"));
    ]
  in
  let params =
    [ Ast.Buffer "a"; Ast.Buffer "out"; Ast.Scalar "n" ]
    @ if with_barrier then [ Ast.Buffer "res" ] else []
  in
  let kernel body = { Ast.name = "rand"; params; body } in
  (* Interp.run rejects barriers, so the reference runs the two sides
     of one as separate launches, back to back: every item finishes the
     first before any starts the second, which is what the barrier
     guarantees.  The second re-derives [i], the only prologue variable
     it reads. *)
  if with_barrier then
    return
      ( kernel (prologue @ (Ast.Barrier :: after_barrier)),
        [
          kernel prologue;
          kernel (Ast.Let ("i", Ast.Global_id) :: after_barrier);
        ],
        true )
  else return (kernel prologue, [ kernel prologue ], false)

let gen_case =
  let open G in
  let* kernel, halves, with_barrier = gen_kernel in
  let* gsize = int_range 1 300 in
  (* 96: a workgroup's second wavefront has lanes past the workgroup,
     and a tail workgroup can hold a wavefront with no live lane *)
  let* lsize = oneofl [ 64; 96; 128 ] in
  let* cus = oneofl [ 1; 2; 4 ] in
  return { kernel; halves; gsize; lsize = min lsize gsize; cus; with_barrier }

let print_case c =
  Printf.sprintf "gsize=%d lsize=%d cus=%d barrier=%b body-stmts=%d" c.gsize
    c.lsize c.cus c.with_barrier
    (List.length c.kernel.Ast.body)

let arb_case = QCheck.make ~print:print_case gen_case

(* --- differential runner ---------------------------------------------- *)

let round_up n m = (n + m - 1) / m * m

(* the read-only buffer "a" every generated kernel reads *)
let input_a () =
  Array.init asize (fun i -> Ggpu_isa.I32.sx ((i * 2654435761) lxor i))

let mk_args c =
  (* the barrier phase may read any slot of its workgroup's span, so
     size "out" to the workgroup-aligned grid *)
  let out_words = round_up c.gsize c.lsize in
  let buffers =
    [ ("a", input_a ()); ("out", Array.make out_words 0) ]
    @ if c.with_barrier then [ ("res", Array.make c.gsize 0) ] else []
  in
  { Mem_image.buffers; scalars = [ ("n", c.gsize) ] }

let observe c ~engine ~domains =
  let config = Config.with_cus Config.default c.cus in
  let compiled = Codegen_fgpu.compile c.kernel in
  let r =
    with_engine engine (fun () ->
        Run_fgpu.run ~config ~domains compiled ~args:(mk_args c)
          ~global_size:c.gsize ~local_size:c.lsize ())
  in
  (Stats.to_assoc r.Run_fgpu.stats, r.Run_fgpu.buffers)

(* One launch timed at every count of [run_cus_counts]: its record pass
   runs once and each count replays it.  Also returns the launch's
   [sim.fgpu.split_fallbacks]: a generated kernel is race-free, so a
   replay that desynchronises is a replay bug, which the in-place
   fallback would otherwise hide behind correct results. *)
let run_cus_counts = [ 1; 2; 4 ]

(* [launch ()]'s stats and buffers per count, with the ambient metrics'
   [sim.fgpu.split_fallbacks] *)
let observe_runs launch =
  let module M = Ggpu_obs.Metrics in
  M.set_ambient_enabled true;
  M.ambient_reset ();
  Fun.protect
    ~finally:(fun () ->
      M.set_ambient_enabled false;
      M.ambient_reset ())
    (fun () ->
      let runs = launch () in
      ( M.find_counter (M.ambient_snapshot ()) "sim.fgpu.split_fallbacks",
        List.map
          (fun r -> (Stats.to_assoc r.Run_fgpu.stats, r.Run_fgpu.buffers))
          runs ))

let observe_cus c ~engine ~domains =
  let compiled = Codegen_fgpu.compile c.kernel in
  observe_runs (fun () ->
      with_engine engine (fun () ->
          Run_fgpu.run_cus ~domains compiled ~args:(mk_args c)
            ~global_size:c.gsize ~local_size:c.lsize ~cus:run_cus_counts ()))

let prop_backends_and_domains_agree =
  QCheck.Test.make ~name:"backend x domains differential" ~count:30
    ~long_factor:100 arb_case
    (fun c ->
      let reference = observe c ~engine:Oracle ~domains:1 in
      let per_count =
        List.map
          (fun cus -> observe { c with cus } ~engine:Oracle ~domains:1)
          run_cus_counts
      in
      List.for_all
        (fun (engine, domains) -> observe c ~engine ~domains = reference)
        [ (Threaded, 1); (Threaded, 3); (Threaded, 4); (Oracle, 2) ]
      && List.for_all
           (fun (engine, domains) ->
             observe_cus c ~engine ~domains = (Some 0, per_count))
           [ (Threaded, 1); (Threaded, 3); (Oracle, 1) ])

(* --- compiled code vs the reference interpreter ----------------------- *)

(* Every output buffer of both code generators' programs equals
   Interp's: on the G-GPU always, on the RISC-V only without the
   barrier phase, since the sequential CPU drops barriers. *)
let prop_compiled_matches_interp =
  QCheck.Test.make ~name:"compiled code matches Interp" ~count:30 arb_case
    (fun c ->
      let reference =
        let args = mk_args c in
        List.iter
          (fun k ->
            Interp.run k ~args ~global_size:c.gsize ~local_size:c.lsize)
          c.halves;
        args.Mem_image.buffers
      in
      let fgpu =
        let config = Config.with_cus Config.default c.cus in
        Run_fgpu.run ~config (Codegen_fgpu.compile c.kernel) ~args:(mk_args c)
          ~global_size:c.gsize ~local_size:c.lsize ()
      in
      let rv32 () =
        Run_rv32.run (Codegen_rv32.compile c.kernel) ~args:(mk_args c)
          ~global_size:c.gsize ~local_size:c.lsize ()
      in
      fgpu.Run_fgpu.buffers = reference
      && (c.with_barrier || (rv32 ()).Run_rv32.buffers = reference))

(* --- chains of accumulator updates vs the reference interpreter -------- *)

(* Three accumulators updated by [s = l op r], where either operand may
   be [s] itself, another accumulator, a constant (some too wide for an
   immediate field, some shift amounts past 31) or an operation on [s]:
   the shapes {!Lower} writes straight into the variable's register.
   Updates are chained, so one accumulator's new value feeds the next,
   and some run in loops of 0 to 3 iterations. *)
let accumulators = [ "s0"; "s1"; "s2" ]

let gen_update =
  let open G in
  let* target = oneofl accumulators in
  let operand =
    frequency
      [
        (3, return (var target));
        (2, map var (oneofl ("x" :: accumulators)));
        (2, map const (oneofl [ 0; 1; -1; 5; 31; 32; 33; 70000; -70000 ]));
        ( 1,
          map2
            (fun op c -> Ast.Binop (op, var target, const c))
            gen_binop (int_range (-8) 8) );
      ]
  in
  let* op = gen_binop in
  let* l = operand in
  let* r = operand in
  return (Ast.Assign (target, Ast.Binop (op, l, r)))

type chain = { updates : Ast.stmt list; items : int; chain_cus : int }

let gen_chain =
  let open G in
  let* updates =
    list_size (int_range 1 8)
      (frequency
         [
           (4, gen_update);
           ( 1,
             map2
               (fun iters body ->
                 Ast.For ("k", const 0, const iters, body))
               (int_range 0 3)
               (list_size (int_range 1 3) gen_update) );
         ])
  in
  let* items = int_range 1 100 in
  let* chain_cus = oneofl [ 1; 2 ] in
  return { updates; items; chain_cus }

let chain_kernel c =
  let open Ast in
  (* each loop gets its own counter *)
  let updates =
    List.mapi
      (fun j stmt ->
        match stmt with
        | For (_, lo, hi, body) -> For (Printf.sprintf "k%d" j, lo, hi, body)
        | stmt -> stmt)
      c.updates
  in
  {
    name = "chain";
    params = [ Buffer "a"; Buffer "out" ];
    body =
      [
        Let ("i", Global_id);
        Let ("x", load "a" (Binop (And, var "i", const (asize - 1))));
        Let ("s0", var "x");
        Let ("s1", var "i");
        Let ("s2", const 7);
      ]
      @ updates
      @ List.mapi
          (fun k s -> Store ("out", (var "i" *: const 3) +: const k, var s))
          accumulators;
  }

let print_chain c =
  Printf.sprintf "items=%d cus=%d\n%s" c.items c.chain_cus
    (String.concat "\n"
       (List.map Vir.insn_to_string (Lower.lower (chain_kernel c)).Vir.insns))

let prop_updates_match_interp =
  QCheck.Test.make ~name:"accumulator updates match Interp" ~count:300
    (QCheck.make ~print:print_chain gen_chain)
    (fun c ->
      let kernel = chain_kernel c in
      let global_size = c.items and local_size = min 64 c.items in
      let args () =
        {
          Mem_image.buffers =
            [
              ("a", input_a ()); ("out", Array.make (3 * c.items) 0);
            ];
          scalars = [];
        }
      in
      let reference =
        let args = args () in
        Interp.run kernel ~args ~global_size ~local_size;
        args.Mem_image.buffers
      in
      let fgpu =
        Run_fgpu.run
          ~config:(Config.with_cus Config.default c.chain_cus)
          (Codegen_fgpu.compile kernel) ~args:(args ()) ~global_size
          ~local_size ()
      in
      let rv32 =
        Run_rv32.run (Codegen_rv32.compile kernel) ~args:(args ())
          ~global_size ~local_size ()
      in
      fgpu.Run_fgpu.buffers = reference && rv32.Run_rv32.buffers = reference)

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
          Ast.Store ("out", var "i", var "i" *: const 3);
          Ast.Barrier;
          Ast.Let ("lid", Ast.Local_id);
          Ast.Let ("base", var "i" -: var "lid");
          Ast.Let
            ( "peer",
              Ast.(
                var "base" +: Binop (Rem, var "lid" +: const 64, Local_size)) );
          Ast.Store ("res", var "i", load "out" (var "peer"));
        ];
    }
  in
  let n = 512 in
  let run ~engine ~domains =
    let args =
      {
        Mem_image.buffers = [ ("out", Array.make n 0); ("res", Array.make n 0) ];
        scalars = [];
      }
    in
    let compiled = Codegen_fgpu.compile kernel in
    let r =
      with_engine engine (fun () ->
          Run_fgpu.run ~domains compiled ~args ~global_size:n ~local_size:128
            ())
    in
    (Stats.to_assoc r.Run_fgpu.stats, Run_fgpu.output r "res")
  in
  let (stats_ref, res_ref) = run ~engine:Oracle ~domains:1 in
  (* analytic expectation: each item reads its cross-wavefront peer *)
  for i = 0 to n - 1 do
    let lid = i mod 128 in
    let peer = i - lid + ((lid + 64) mod 128) in
    Alcotest.(check int) (Printf.sprintf "res[%d]" i) (3 * peer) res_ref.(i)
  done;
  List.iter
    (fun (engine, domains) ->
      let stats, res = run ~engine ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "stats equal (%s, %d domains)" (engine_name engine)
           domains)
        true
        (stats = stats_ref);
      Alcotest.(check bool)
        (Printf.sprintf "res equal (%s, %d domains)" (engine_name engine)
           domains)
        true (res = res_ref))
    [ (Threaded, 1); (Threaded, 2); (Threaded, 4); (Oracle, 3) ]

(* --- a faulting record pass falls back to in-place runs ----------------- *)

(* Workgroup 3 stores far past the end of memory straight away; every
   other work-item loops first, then stores its own slot.  In place on
   one CU, workgroups 0-7 are resident together, so workgroup 3 faults
   before workgroups 0-2 have stored; the record pass runs workgroups in
   order and faults only after they have.  [run_cus] must restore memory
   and run the first count in place, raising what [run] raises and
   leaving the memory [run] leaves. *)
let test_record_fault_falls_back () =
  let kernel =
    {
      Ast.name = "oob_store";
      params = [ Ast.Buffer "out" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.If
            ( Ast.(Group_id ==: const 3),
              [ Ast.Store ("out", var "i" +: const 1_000_000, var "i") ],
              [] );
          Ast.Let ("acc", const 0);
          Ast.For
            ( "k",
              const 0,
              const 32,
              [ Ast.Assign ("acc", var "acc" +: var "k") ] );
          Ast.Store ("out", var "i", var "acc" +: var "i");
        ];
    }
  in
  let n = 1024 in
  let program = (Codegen_fgpu.compile kernel).Codegen_fgpu.code in
  (* "out" sits at address 0, so its base is the only parameter *)
  let faulting launch =
    let mem = Array.make n 0 in
    match launch ~mem with
    | (_ : Stats.t list) -> Alcotest.fail "expected a fault"
    | exception Wavefront.Fault msg -> (msg, mem)
  in
  let msg_ref, mem_ref =
    faulting (fun ~mem ->
        [
          Gpu.run (Config.with_cus Config.default 1) ~program ~params:[ 0 ]
            ~global_size:n ~local_size:64 ~mem;
        ])
  in
  Alcotest.(check bool)
    "in place, workgroup 0 has not stored when the fault hits" true
    (mem_ref.(0) = 0);
  List.iter
    (fun (engine, domains) ->
      let label =
        Printf.sprintf "%s, %d domain(s)" (engine_name engine) domains
      in
      let msg, mem =
        faulting (fun ~mem ->
            with_engine engine (fun () ->
                Gpu.run_cus ~domains Config.default ~cus:[ 1; 2; 4 ] ~program
                  ~params:[ 0 ] ~global_size:n ~local_size:64 ~mem))
      in
      Alcotest.(check string) (label ^ ": fault message") msg_ref msg;
      Alcotest.(check (array int)) (label ^ ": memory") mem_ref mem)
    [ (Threaded, 1); (Threaded, 2); (Oracle, 1) ]

(* --- a replay that desynchronises at a register-only pc ---------------- *)

(* No real lane engine records a memory line at a pc that is not a load,
   store, barrier or [ret]; this one charges line 0 to every ALU issue,
   which an in-place run times as a load.  A replay bursts through such
   pcs without reading the lines, so it must take that record as a
   desync and fall back to in-place runs, whose stats count the line,
   rather than time the issue as register-only. *)
let test_replay_desync_falls_back () =
  let phantom_line dprog ~mem ~line_words wf (out : Wavefront.outcome) =
    issue dprog ~mem ~line_words wf out;
    match dprog.(out.Wavefront.pc).Ggpu_isa.Fgpu_predecode.kind with
    | Ggpu_isa.Fgpu_predecode.KAlu | Ggpu_isa.Fgpu_predecode.KAlui ->
        out.Wavefront.mem_lines.(0) <- 0;
        out.Wavefront.mem_line_count <- 1
    | _ -> ()
  in
  let kernel =
    {
      Ast.name = "phantom";
      params = [ Ast.Buffer "a"; Ast.Buffer "out" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.Let ("acc", const 0);
          Ast.For
            ( "k",
              const 0,
              const 8,
              [ Ast.Assign ("acc", var "acc" +: (var "k" *: var "i")) ] );
          Ast.Store ("out", var "i", var "acc" +: load "a" (var "i"));
        ];
    }
  in
  let compiled = Codegen_fgpu.compile kernel in
  let n = 512 and cus = [ 1; 2; 4 ] in
  let args () =
    {
      Mem_image.buffers = [ ("a", Array.init n Fun.id); ("out", Array.make n 0) ];
      scalars = [];
    }
  in
  let _, in_place =
    observe_runs (fun () ->
        List.map
          (fun c ->
            Gpu.with_issue phantom_line (fun () ->
                Run_fgpu.run ~config:(Config.with_cus Config.default c)
                  compiled ~args:(args ()) ~global_size:n ~local_size:64 ()))
          cus)
  in
  let fallbacks, replayed =
    observe_runs (fun () ->
        Gpu.with_issue phantom_line (fun () ->
            Run_fgpu.run_cus compiled ~args:(args ()) ~global_size:n
              ~local_size:64 ~cus ()))
  in
  Alcotest.(check (option int)) "split fallbacks" (Some 1) fallbacks;
  List.iter2
    (fun c ((stats_ref, bufs_ref), (stats, bufs)) ->
      let label = Printf.sprintf "%d CU(s)" c in
      Alcotest.(check (list (pair string int))) (label ^ ": stats") stats_ref
        stats;
      Alcotest.(check bool) (label ^ ": buffers") true (bufs = bufs_ref))
    cus
    (List.combine in_place replayed)

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

(* --- FI classification signatures are engine-independent --------------- *)

(* One domain: the campaign's launches run on this one, so the
   reference engine reaches every trial. *)
let test_fi_signature_backend_parity () =
  List.iter
    (fun (workload, seed) ->
      let signature engine =
        with_engine engine (fun () ->
            Campaign.signature
              (Campaign.run ~domains:1 ~target:(Campaign.Ggpu 2) ~workload
                 ~size:256 ~trials:40 ~seed ()))
      in
      Alcotest.(check string)
        (workload.Suite.name ^ " fi signature identical across engines")
        (signature Oracle) (signature Threaded))
    [ (Suite.copy, 7); (Suite.parallel_sel, 42) ]

(* --- fault injection into a wavefront-uniform register ----------------- *)

(* The lane engine executes an instruction once per wavefront when its
   source registers hold the same value in every lane
   ([Wavefront.uniform]).  A fault that changes one lane of such a
   register must clear its uniform bit, or every lane would go on
   reading lane 0's value.  parallel_sel's [n] is a parameter, so it is
   uniform until the flip; lane 5's copy then bounds a different loop
   trip count.  The reference engine never reads the mask. *)
let test_inject_into_uniform_register () =
  let w = Suite.parallel_sel and size = 256 in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let n_reg = List.assoc "n" compiled.Codegen_fgpu.param_regs in
  let config = Config.with_cus Config.default 2 in
  let run ~engine ~at =
    let flip (probe : Gpu.probe) =
      let wf = probe.Gpu.p_wavefronts.(0) and lane = 5 in
      Wavefront.set_reg wf ~lane n_reg (Wavefront.reg wf ~lane n_reg lxor 1)
    in
    let r =
      with_engine engine (fun () ->
          Run_fgpu.run ~config ~inject:(at, flip) compiled
            ~args:(w.Suite.mk_args ~size)
            ~global_size:(w.Suite.global_size ~size)
            ~local_size:(min w.Suite.local_size size) ())
    in
    (Stats.to_assoc r.Run_fgpu.stats, Run_fgpu.output r w.Suite.output_buffer)
  in
  List.iter
    (fun at ->
      let stats_ref, out_ref = run ~engine:Oracle ~at in
      let stats, out = run ~engine:Threaded ~at in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "stats, flip at cycle %d" at)
        stats_ref stats;
      Alcotest.(check (array int))
        (Printf.sprintf "output, flip at cycle %d" at)
        out_ref out)
    [ 0; 1 ]

(* --- the kernel suite at the simulator benchmark's sizes --------------- *)

(* Every suite kernel at the size [bench perf-sim] times
   ([Suite_runner.default_size], 4 CUs): the lane engine must match the
   reference in every stat and every buffer.  The random kernels above
   are small; these run the suite's long loops, divergent selections
   and multi-million-cycle launches. *)
let test_suite_matches_oracle () =
  let config = Config.with_cus Config.default 4 in
  List.iter
    (fun (w : Suite.t) ->
      let size = Suite_runner.default_size w in
      let compiled = Codegen_fgpu.compile w.Suite.kernel in
      let observe engine =
        let r =
          with_engine engine (fun () ->
              Run_fgpu.run ~config compiled ~args:(w.Suite.mk_args ~size)
                ~global_size:(w.Suite.global_size ~size)
                ~local_size:(min w.Suite.local_size size) ())
        in
        (Stats.to_assoc r.Run_fgpu.stats, r.Run_fgpu.buffers)
      in
      let stats_ref, buffers_ref = observe Oracle in
      let stats, buffers = observe Threaded in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s size %d: stats" w.Suite.name size)
        stats_ref stats;
      Alcotest.(check (list (pair string (array int))))
        (Printf.sprintf "%s size %d: buffers" w.Suite.name size)
        buffers_ref buffers)
    Suite.all

(* --- every instruction on every path ----------------------------------- *)

(* ISA-level programs of one 64-item wavefront on 1 CU put every ALU
   operator, in register and immediate form, and every branch condition
   through each path of the lane engine:
   - per-lane sources, on the dense lane loops;
   - uniform sources, on the once-per-wavefront short-cuts;
   - a divergent region that only the lanes falling through a mixed
     branch enter: an if around one ALU instruction, so the lanes that
     skip it already sit at the next pc, and a branch nested in an if;
   - the sparse path after half the lanes have retired: the same
     operators, then [li], the five specials, [lw]/[sw], [jump],
     [barrier] and [ret].
   Operands are edge values.  Each launch must match the reference
   engine in every stat and every word of memory, and every stored
   result must match the operator table below, written over [Int32]
   (memory holds {!Ggpu_isa.I32} words, converted at the check).
   The lane engine and the reference share {!Wavefront.alu} and
   {!Wavefront.cond_holds}, so only this table checks the operators. *)

module Isa = Ggpu_isa.Fgpu_isa
module Asm = Ggpu_isa.Fgpu_asm

let edges =
  [| 0l; 1l; -1l; 31l; 32l; 33l; -32l; Int32.max_int; Int32.min_int |]

let bit c = if c then 1l else 0l

(* RISC-V M: x / 0 = -1, x rem 0 = x, INT_MIN / -1 = INT_MIN and
   INT_MIN rem -1 = 0; shift amounts are taken mod 32.  An immediate is
   the [int32] the instruction carries, as predecode reads it. *)
let ref_alu (op : Isa.alu_op) a b =
  let sh = Int32.to_int b land 31 in
  match op with
  | Isa.Add -> Int32.add a b
  | Isa.Sub -> Int32.sub a b
  | Isa.Mul -> Int32.mul a b
  | Isa.Div ->
      if b = 0l then -1l
      else if a = Int32.min_int && b = -1l then Int32.min_int
      else Int32.div a b
  | Isa.Rem ->
      if b = 0l then a
      else if a = Int32.min_int && b = -1l then 0l
      else Int32.rem a b
  | Isa.And -> Int32.logand a b
  | Isa.Or -> Int32.logor a b
  | Isa.Xor -> Int32.logxor a b
  | Isa.Sll -> Int32.shift_left a sh
  | Isa.Srl -> Int32.shift_right_logical a sh
  | Isa.Sra -> Int32.shift_right a sh
  | Isa.Slt -> bit (Int32.compare a b < 0)
  | Isa.Sltu -> bit (Int32.unsigned_compare a b < 0)

let ref_cond (c : Isa.cond) a b =
  match c with
  | Isa.Eq -> a = b
  | Isa.Ne -> a <> b
  | Isa.Lt -> Int32.compare a b < 0
  | Isa.Ge -> Int32.compare a b >= 0
  | Isa.Ltu -> Int32.unsigned_compare a b < 0
  | Isa.Geu -> Int32.unsigned_compare a b >= 0

let all_alu_ops =
  Isa.
    [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu ]

let all_conds = Isa.[ Eq; Ne; Lt; Ge; Ltu; Geu ]

(* One launch: lane [l] reads the operand pair [pair l] (register
   inputs) and the pairs [taken l]/[fallen l] on which the program's
   condition holds / fails for every lane.  Lanes whose parity equals
   [split] enter the if-regions, and go on to the tail while the others
   run the sparse body and retire. *)
type launch = {
  pair : int -> int32 * int32;
  taken : int -> int32 * int32;
  fallen : int -> int32 * int32;
  split : int;
}

let sentinel = 0x5eed5eedl
let lanes = 64

(* Memory: six 64-word input vectors (the three pairs), then one word
   per lane for each per-lane result and one word for each uniform
   one, all starting at [sentinel]. *)
let input_words = 6 * lanes

type program = {
  mutable items : Asm.item list;  (* reversed *)
  mutable words : int;
  mutable checks : (string * int * int * (launch -> int -> int32)) list;
      (* label, first word, word count, expected value of a lane *)
}

let emit p items = p.items <- List.rev_append items p.items

(* [sw r] to this lane's word of a fresh per-lane slot ([r5] holds the
   lane's byte offset). *)
let store_lanes p label r expect =
  let base = p.words in
  p.words <- base + lanes;
  p.checks <- (label, base, lanes, expect) :: p.checks;
  emit p [ Asm.I (Isa.Sw (r, 5, 4 * base)) ]

(* [sw r] to one fresh word: every executing lane stores the same
   value there. *)
let store_one p label r v =
  let base = p.words in
  p.words <- base + 1;
  p.checks <- (label, base, 1, fun _ _ -> v) :: p.checks;
  emit p [ Asm.I (Isa.Sw (r, 0, 4 * base)) ]

let inside (g : launch) l = l land 1 = g.split

(* r4 = lid, r5 = its byte offset, r6 = its parity, r7/r8 = the lane's
   pair, r13/r14 its taken pair and r15/r16 its fallen pair; r1 holds
   [split].  A dense [barrier] and [jump] ride along. *)
let prologue p =
  emit p
    Asm.
      [
        I (Isa.Special (Isa.Lid, 4));
        I (Isa.Alui (Isa.Sll, 5, 4, 2l));
        I (Isa.Alui (Isa.And, 6, 4, 1l));
        I (Isa.Lw (7, 5, 0));
        I (Isa.Lw (8, 5, 4 * lanes));
        I (Isa.Lw (13, 5, 8 * lanes));
        I (Isa.Lw (14, 5, 12 * lanes));
        I (Isa.Lw (15, 5, 16 * lanes));
        I (Isa.Lw (16, 5, 20 * lanes));
        I Isa.Barrier;
        I (Isa.Li (21, 7l));
        Jump_to "dense";
        I (Isa.Li (21, sentinel));
        Label "dense";
      ];
  store_lanes p "dense jump" 21 (fun _ _ -> 7l)

(* One operator on per-lane and on uniform sources, run by the lanes
   [live] selects. *)
let alu_cases p op ~path ~live =
  let name = Isa.alu_op_to_string op in
  let per_lane label f =
    store_lanes p label 10 (fun g l ->
        if live g l then f (g.pair l) else sentinel)
  in
  emit p [ Asm.I (Isa.Alu (op, 10, 7, 8)) ];
  per_lane (Printf.sprintf "%s %s per-lane" path name) (fun (a, b) ->
      ref_alu op a b);
  Array.iter
    (fun imm ->
      emit p [ Asm.I (Isa.Alui (op, 10, 7, imm)) ];
      per_lane (Printf.sprintf "%s %si %ld per-lane" path name imm)
        (fun (a, _) -> ref_alu op a imm))
    edges;
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          emit p
            Asm.
              [
                I (Isa.Li (11, x));
                I (Isa.Li (12, y));
                I (Isa.Alu (op, 10, 11, 12));
              ];
          store_one p
            (Printf.sprintf "%s %s uniform %ld %ld" path name x y)
            10 (ref_alu op x y);
          emit p Asm.[ I (Isa.Li (11, x)); I (Isa.Alui (op, 10, 11, y)) ];
          store_one p
            (Printf.sprintf "%s %si uniform %ld %ld" path name x y)
            10 (ref_alu op x y))
        edges)
    edges

(* An if around one instruction: lanes outside the region branch to
   the next pc, where the store waits. *)
let alu_if p op =
  let name = Isa.alu_op_to_string op in
  let region insn label f =
    emit p
      Asm.
        [
          I (Isa.Li (10, sentinel));
          I (Isa.Branch (Isa.Ne, 6, 1, 1));
          I insn;
        ];
    store_lanes p label 10 (fun g l ->
        if inside g l then f (g.pair l) else sentinel)
  in
  region (Isa.Alu (op, 10, 7, 8)) ("if " ^ name) (fun (a, b) ->
      ref_alu op a b);
  Array.iter
    (fun imm ->
      region
        (Isa.Alui (op, 10, 7, imm))
        (Printf.sprintf "if %si %ld" name imm)
        (fun (a, _) -> ref_alu op a imm))
    edges

(* r10 = 1 if the lane takes [c] on (r1, r2), 0 if it falls through. *)
let marker c r1 r2 =
  Asm.
    [
      I (Isa.Li (10, 1l)); I (Isa.Branch (c, r1, r2, 1)); I (Isa.Li (10, 0l));
    ]

let cond_cases p c ~path ~live =
  let name = Isa.cond_to_string c in
  List.iter
    (fun (outcome, r1, r2, pair) ->
      emit p (marker c r1 r2);
      store_lanes p
        (Printf.sprintf "%s %s %s" path name outcome)
        10
        (fun g l ->
          if live g l then
            let a, b = pair g l in
            bit (ref_cond c a b)
          else sentinel))
    [
      ("mixed", 7, 8, fun g -> g.pair);
      ("all taken", 13, 14, fun g -> g.taken);
      ("none taken", 15, 16, fun g -> g.fallen);
    ];
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          emit p
            (Asm.I (Isa.Li (11, x)) :: Asm.I (Isa.Li (12, y)) :: marker c 11 12);
          store_one p
            (Printf.sprintf "%s %s uniform %ld %ld" path name x y)
            10
            (bit (ref_cond c x y)))
        edges)
    edges

(* A branch nested in an if: only the lanes inside the region issue
   it, on the sparse path. *)
let cond_if p c =
  let name = Isa.cond_to_string c in
  let region r1 r2 label f =
    emit p
      (Asm.I (Isa.Li (10, sentinel))
      :: Asm.I (Isa.Branch (Isa.Ne, 6, 1, 3))
      :: marker c r1 r2);
    store_lanes p label 10 (fun g l ->
        if inside g l then
          let a, b = f g l in
          bit (ref_cond c a b)
        else sentinel)
  in
  region 7 8 ("if " ^ name ^ " per-lane") (fun g -> g.pair);
  region 13 14 ("if " ^ name ^ " all taken") (fun g -> g.taken);
  region 15 16 ("if " ^ name ^ " none taken") (fun g -> g.fallen);
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          emit p [ Asm.I (Isa.Li (11, x)); Asm.I (Isa.Li (12, y)) ];
          region 11 12
            (Printf.sprintf "if %s uniform %ld %ld" name x y)
            (fun _ _ -> (x, y)))
        edges)
    edges

(* After the split, the lanes outside the if-regions run [body] on the
   sparse path and retire; the others then run the tail, also sparse
   because half the wavefront is gone. *)
let retire_and_tail p body =
  let tailer g l = inside g l and live g l = not (inside g l) in
  emit p [ Asm.Branch_to (Isa.Eq, 6, 1, "tail") ];
  body ~live;
  emit p Asm.[ I Isa.Ret; Label "tail" ];
  let special sp label v =
    emit p [ Asm.I (Isa.Special (sp, 20)) ];
    store_lanes p label 20 (fun g l -> if tailer g l then v l else sentinel)
  in
  special Isa.Lid "sparse lid" Int32.of_int;
  special Isa.Wgid "sparse wgid" (fun _ -> 0l);
  special Isa.Wgoff "sparse wgoff" (fun _ -> 0l);
  special Isa.Wgsize "sparse wgsize" (fun _ -> Int32.of_int lanes);
  special Isa.Gsize "sparse gsize" (fun _ -> Int32.of_int lanes);
  emit p [ Asm.I (Isa.Li (20, 0x7654321l)) ];
  store_lanes p "sparse li" 20 (fun g l ->
      if tailer g l then 0x7654321l else sentinel);
  emit p [ Asm.I (Isa.Lw (20, 5, 0)) ];
  store_lanes p "sparse lw" 20 (fun g l ->
      if tailer g l then fst (g.pair l) else sentinel);
  emit p
    Asm.
      [
        I (Isa.Li (21, 7l));
        Jump_to "sparse";
        I (Isa.Li (21, sentinel));
        Label "sparse";
      ];
  store_lanes p "sparse jump" 21 (fun g l ->
      if tailer g l then 7l else sentinel);
  emit p Asm.[ I Isa.Barrier; I Isa.Ret ]

let build f =
  let p = { items = []; words = input_words; checks = [] } in
  prologue p;
  f p;
  (Asm.assemble (List.rev p.items), p.words, List.rev p.checks)

let alu_program op =
  build (fun p ->
      alu_cases p op ~path:"dense" ~live:(fun _ _ -> true);
      alu_if p op;
      retire_and_tail p (alu_cases p op ~path:"sparse"))

let cond_program c =
  build (fun p ->
      cond_cases p c ~path:"dense" ~live:(fun _ _ -> true);
      cond_if p c;
      retire_and_tail p (cond_cases p c ~path:"sparse"))

(* Block [k] of the 81 edge pairs: lane [l] takes pair [64k + l] mod 81,
   so two blocks cover them all.  [c]'s taken and fallen pairs cycle
   through the edge pairs on which it holds / fails. *)
let launches c =
  let n = Array.length edges in
  let pairs = Array.init (n * n) (fun q -> (edges.(q mod n), edges.(q / n))) in
  let where f =
    let sel = Array.of_seq (Seq.filter f (Array.to_seq pairs)) in
    fun l -> sel.(l mod Array.length sel)
  in
  let taken = where (fun (a, b) -> ref_cond c a b)
  and fallen = where (fun (a, b) -> not (ref_cond c a b)) in
  List.concat_map
    (fun k ->
      List.map
        (fun split ->
          {
            pair = (fun l -> pairs.(((lanes * k) + l) mod (n * n)));
            taken;
            fallen;
            split;
          })
        [ 0; 1 ])
    [ 0; 1 ]

let run_launch (program, words, checks) (g : launch) ~what =
  let mem =
    Array.init words (fun w ->
        Ggpu_isa.I32.of_int32
          (if w >= input_words then sentinel
           else
             let a, b = g.pair (w mod lanes)
             and at, bt = g.taken (w mod lanes)
             and af, bf = g.fallen (w mod lanes) in
             [| a; b; at; bt; af; bf |].(w / lanes)))
  in
  let observe engine =
    let mem = Array.copy mem in
    let stats =
      with_engine engine (fun () ->
          Gpu.run (Config.with_cus Config.default 1) ~program
            ~params:[ g.split ] ~global_size:lanes
            ~local_size:lanes ~mem)
    in
    (Stats.to_assoc stats, mem)
  in
  let stats_ref, mem_ref = observe Oracle in
  let stats, mem = observe Threaded in
  let where = Printf.sprintf "%s, split %d" what g.split in
  Alcotest.(check (list (pair string int))) (where ^ ": stats") stats_ref stats;
  Alcotest.(check (array int)) (where ^ ": memory") mem_ref mem;
  List.iter
    (fun (label, base, n, expect) ->
      for i = 0 to n - 1 do
        let want = expect g i and got = Ggpu_isa.I32.to_int32 mem.(base + i) in
        if got <> want then
          Alcotest.failf "%s: %s, lane %d (operands %ld, %ld): %ld, want %ld"
            where label i (fst (g.pair i)) (snd (g.pair i)) got want
      done)
    checks

let test_every_instruction_every_path () =
  let run name program c =
    List.iteri
      (fun i g ->
        run_launch program g ~what:(Printf.sprintf "%s, block %d" name (i / 2)))
      (launches c)
  in
  List.iter
    (fun op -> run (Isa.alu_op_to_string op) (alu_program op) Isa.Eq)
    all_alu_ops;
  List.iter (fun c -> run (Isa.cond_to_string c) (cond_program c) c) all_conds

let suite =
  [
    ( "backend",
      [
        QCheck_alcotest.to_alcotest prop_backends_and_domains_agree;
        QCheck_alcotest.to_alcotest prop_compiled_matches_interp;
        QCheck_alcotest.to_alcotest prop_updates_match_interp;
        Alcotest.test_case "split barrier cross-wavefront" `Quick
          test_split_barrier_cross_wavefront;
        Alcotest.test_case "record pass fault falls back" `Quick
          test_record_fault_falls_back;
        Alcotest.test_case "replay desync falls back" `Quick
          test_replay_desync_falls_back;
        Alcotest.test_case "suite.failures registered at zero" `Quick
          test_suite_failures_registered;
        Alcotest.test_case "fi signature backend parity" `Slow
          test_fi_signature_backend_parity;
        Alcotest.test_case "inject into uniform register" `Quick
          test_inject_into_uniform_register;
        Alcotest.test_case "suite at perf-sim sizes matches oracle" `Slow
          test_suite_matches_oracle;
        Alcotest.test_case "every instruction on every path" `Quick
          test_every_instruction_every_path;
      ] );
  ]
