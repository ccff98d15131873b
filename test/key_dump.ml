(* Every memo key the serve engine derives for a fixed set of requests,
   one line each: the key's 16-hex-digit digest, its shard at 1 to 9
   shards, and the key itself.  `dune runtest` diffs the output against
   serve_keys.expected, so a key, digest or shard that moves by one byte
   fails it.

   The requests: every distinct request of Workload.mix ~seed:7 in both
   technologies; sim and perf at every supported CU count; mat_mul at
   sizes its round_size changes; perf at PMU strides 64 and 128; synth
   targets from 300 to 667 MHz at every CU count; and the requests that
   fail at planning. *)

module E = Ggpu_serve.Engine
module K = Ggpu_serve.Key
module P = Ggpu_serve.Proto

let print ?pmu_stride (req : P.request) =
  match E.key_of_request ?pmu_stride req with
  | Error msg -> Printf.printf "error %s\n" msg
  | Ok key ->
      let hash = K.fnv1a64 key in
      let shards =
        List.init 9 (fun i -> string_of_int (K.shard ~shards:(i + 1) hash))
      in
      Printf.printf "%s %s %s\n" (K.hash_hex key) (String.concat "," shards)
        key

let techs = [ "65nm"; "28nm" ]
let cu_counts = [ 1; 2; 3; 4; 5; 6; 7; 8; 16; 32; 64 ]

let kernels =
  List.map (fun (w : Ggpu_kernels.Suite.t) -> w.Ggpu_kernels.Suite.name)
    Ggpu_kernels.Suite.all

let () =
  List.iter
    (fun tech ->
      let seen = Hashtbl.create 128 in
      List.iter
        (fun (r : P.request) ->
          if not (Hashtbl.mem seen r.P.kind) then begin
            Hashtbl.add seen r.P.kind ();
            print r
          end)
        (Ggpu_serve.Workload.mix ~tech ~seed:7 ~n:8192 ()))
    techs;
  List.iter
    (fun kernel ->
      List.iter
        (fun cus ->
          print (P.mk_request ~id:1 (P.Sim { kernel; cus; size = 256 }));
          print (P.mk_request ~id:1 (P.Perf { kernel; cus; size = 256 })))
        cu_counts)
    kernels;
  List.iter
    (fun size ->
      print (P.mk_request ~id:1 (P.Sim { kernel = "mat_mul"; cus = 2; size })))
    [ -5; 0; 1; 15; 16; 17; 100; 255; 256; 300; 513; 1000; 1024; 4097 ];
  List.iter
    (fun pmu_stride ->
      List.iter
        (fun kernel ->
          print ~pmu_stride
            (P.mk_request ~id:1 (P.Perf { kernel; cus = 4; size = 1024 })))
        kernels)
    [ 64; 128 ];
  List.iter
    (fun tech ->
      List.iter
        (fun cus ->
          List.iter
            (fun freq_mhz ->
              print (P.mk_request ~tech ~id:1 (P.Synth { cus; freq_mhz })))
            [ 300; 350; 400; 450; 500; 550; 590; 600; 610; 650; 667 ])
        cu_counts)
    techs;
  List.iter print
    [
      P.mk_request ~id:1 (P.Sim { kernel = "nope"; cus = 1; size = 256 });
      P.mk_request ~tech:"7nm" ~id:1 (P.Synth { cus = 1; freq_mhz = 500 });
      P.mk_request ~id:1 (P.Sim { kernel = "copy"; cus = 9; size = 256 });
      P.mk_request ~id:1 (P.Synth { cus = 9; freq_mhz = 500 });
      P.mk_request ~id:1 (P.Synth { cus = 1; freq_mhz = 0 });
    ]
