(* One-off: print the golden table rows in test_golden.ml format. *)
open Ggpu_kernels
open Ggpu_fgpu

let run (w : Suite.t) ~size ~cus =
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
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
      let r = run w ~size ~cus in
      let vals =
        Stats.to_assoc r.Run_fgpu.stats
        |> List.map (fun (_, v) -> string_of_int v)
        |> String.concat "; "
      in
      Printf.printf "    ( %S, %d, %d,\n      [ %s ] );\n" name size cus vals)
    [ ("mat_mul", 1024, 1); ("mat_mul", 1024, 4);
      ("copy", 2048, 1); ("copy", 2048, 4);
      ("vec_mul", 2048, 1); ("vec_mul", 2048, 4);
      ("fir", 1024, 1); ("fir", 1024, 4);
      ("div_int", 1024, 1); ("div_int", 1024, 4);
      ("xcorr", 512, 1); ("xcorr", 512, 4);
      ("parallel_sel", 512, 1); ("parallel_sel", 512, 4) ]
