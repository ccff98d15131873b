(* The kernel suite's inputs and reference outputs in [Int32]: the
   generator and the seven reference implementations as written before
   the suite moved to {!Ggpu_isa.I32} words.  An independent oracle for
   [Suite.gen_array], every [mk_args] and every [expected]. *)

let lcg_stream ~seed =
  let scrambled = Int32.mul (Int32.of_int seed) (-1640531527l) in
  let state = ref (Int32.logor scrambled 1l) in
  fun () ->
    state := Int32.add (Int32.mul !state 1103515245l) 12345l;
    !state

let gen_array ~seed ~len ~modulus =
  let next = lcg_stream ~seed in
  Array.init len (fun _ ->
      let v = Int32.rem (next ()) (Int32.of_int modulus) in
      Int32.abs v)

let zeroes len = Array.make len 0l

type args = {
  buffers : (string * int32 array) list;
  scalars : (string * int32) list;
}

let find args name = List.assoc name args.buffers
let n size = [ ("n", Int32.of_int size) ]

(* [Suite.mk_args ~size] of the named kernel *)
let mk_args name ~size =
  match name with
  | "copy" ->
      {
        buffers =
          [ ("src", gen_array ~seed:11 ~len:size ~modulus:1000000);
            ("dst", zeroes size) ];
        scalars = n size;
      }
  | "vec_mul" ->
      {
        buffers =
          [
            ("a", gen_array ~seed:21 ~len:size ~modulus:10000);
            ("b", gen_array ~seed:22 ~len:size ~modulus:10000);
            ("out", zeroes size);
          ];
        scalars = n size;
      }
  | "mat_mul" ->
      {
        buffers =
          [
            ("a", gen_array ~seed:31 ~len:size ~modulus:100);
            ("b", gen_array ~seed:32 ~len:256 ~modulus:100);
            ("c", zeroes size);
          ];
        scalars = n size;
      }
  | "fir" ->
      {
        buffers =
          [
            ("x", gen_array ~seed:41 ~len:(size + 16) ~modulus:1000);
            ("coeff", gen_array ~seed:42 ~len:16 ~modulus:64);
            ("out", zeroes size);
          ];
        scalars = n size @ [ ("taps", 16l) ];
      }
  | "div_int" ->
      let b =
        Array.map (fun v -> Int32.add v 1l)
          (gen_array ~seed:52 ~len:size ~modulus:97)
      in
      {
        buffers =
          [
            ("a", gen_array ~seed:51 ~len:size ~modulus:1000000);
            ("b", b);
            ("out", zeroes size);
          ];
        scalars = n size;
      }
  | "xcorr" ->
      {
        buffers =
          [
            ("a", gen_array ~seed:61 ~len:size ~modulus:1000);
            ("b", gen_array ~seed:62 ~len:(2 * size) ~modulus:1000);
            ("out", zeroes size);
          ];
        scalars = [ ("nlags", Int32.of_int size); ("w", Int32.of_int size) ];
      }
  | "parallel_sel" ->
      {
        buffers =
          [ ("src", gen_array ~seed:71 ~len:size ~modulus:10000);
            ("dst", zeroes size) ];
        scalars = n size;
      }
  | other -> invalid_arg ("Suite_oracle.mk_args: " ^ other)

(* [Suite.expected ~size args] of the named kernel *)
let expected name ~size args =
  match name with
  | "copy" -> Array.copy (find args "src")
  | "vec_mul" ->
      let a = find args "a" and b = find args "b" in
      Array.init size (fun i -> Int32.mul a.(i) b.(i))
  | "mat_mul" ->
      let a = find args "a" and b = find args "b" in
      Array.init size (fun i ->
          let row = i lsr 4 and col = i land 15 in
          let acc = ref 0l in
          for k = 0 to 15 do
            acc :=
              Int32.add !acc (Int32.mul a.((row * 16) + k) b.((k * 16) + col))
          done;
          !acc)
  | "fir" ->
      let x = find args "x" and coeff = find args "coeff" in
      Array.init size (fun i ->
          let acc = ref 0l in
          for k = 0 to 15 do
            acc := Int32.add !acc (Int32.mul coeff.(k) x.(i + k))
          done;
          !acc)
  | "div_int" ->
      let a = find args "a" and b = find args "b" in
      Array.init size (fun i -> Int32.div a.(i) b.(i))
  | "xcorr" ->
      let a = find args "a" and b = find args "b" in
      Array.init size (fun lag ->
          let acc = ref 0l in
          for i = 0 to size - 1 do
            acc := Int32.add !acc (Int32.mul a.(i) b.(i + lag))
          done;
          !acc)
  | "parallel_sel" ->
      let sorted = Array.copy (find args "src") in
      Array.sort Int32.compare sorted;
      sorted
  | other -> invalid_arg ("Suite_oracle.expected: " ^ other)
