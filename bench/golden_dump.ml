(* One-off: print the golden table rows in test_golden.ml format.

   Each row is the pinned (superopt peephole ON, the shipping
   configuration) stats vector; the trailing comment carries the
   pre-peephole cycle count so re-pins document what the pass bought
   on that row. *)
open Ggpu_kernels
open Ggpu_fgpu

let cycles_of ~superopt (w : Suite.t) ~size ~cus =
  let compiled = Codegen_fgpu.compile ~superopt w.Suite.kernel in
  let args = w.Suite.mk_args ~size in
  let config = Config.with_cus Config.default cus in
  Run_fgpu.run ~config compiled ~args
    ~global_size:(w.Suite.global_size ~size)
    ~local_size:(min w.Suite.local_size size) ()

let () =
  List.iter
    (fun (name, size, cus) ->
      let w = Suite.find name in
      let size = w.Suite.round_size size in
      let r = cycles_of ~superopt:true w ~size ~cus in
      let pre = cycles_of ~superopt:false w ~size ~cus in
      let vals =
        Stats.to_assoc r.Run_fgpu.stats
        |> List.map (fun (_, v) -> string_of_int v)
        |> String.concat "; "
      in
      let cyc = r.Run_fgpu.stats.Stats.cycles in
      let pre_cyc = pre.Run_fgpu.stats.Stats.cycles in
      Printf.printf "    (* pre-peephole: %d cycles%s *)\n" pre_cyc
        (if pre_cyc = cyc then " (no rewrite fired)"
         else
           Printf.sprintf ", -%.2f%%"
             (100.0 *. float_of_int (pre_cyc - cyc) /. float_of_int pre_cyc));
      Printf.printf "    ( %S, %d, %d,\n      [ %s ] );\n" name size cus vals)
    [ ("mat_mul", 1024, 1); ("mat_mul", 1024, 4);
      ("copy", 2048, 1); ("copy", 2048, 4);
      ("vec_mul", 2048, 1); ("vec_mul", 2048, 4);
      ("fir", 1024, 1); ("fir", 1024, 4);
      ("div_int", 1024, 1); ("div_int", 1024, 4);
      ("xcorr", 512, 1); ("xcorr", 512, 4);
      ("parallel_sel", 512, 1); ("parallel_sel", 512, 4) ]
