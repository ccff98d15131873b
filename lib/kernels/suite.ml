(* The paper's seven micro-benchmarks (from the AMD OpenCL SDK),
   re-written as OpenCL-C-style source in the kernel DSL, with
   independent OCaml reference implementations and deterministic input
   generators.  Each source is parsed once, when this module is
   initialised; both code generators compile the parsed kernel.

   "Input size" follows the paper's Table III convention: the number of
   work-items launched.  Each workload records a RISC-V size and a G-GPU
   size with the paper's exact ratio between them; the comparison harness
   scales RISC-V cycles by that ratio, exactly as the paper does. *)

module I32 = Ggpu_isa.I32

(* Deterministic 32-bit LCG so that every run and both targets see the
   same data, computed in {!Ggpu_isa.I32} words. *)
let lcg_stream ~seed =
  (* Knuth multiplicative scramble, then force odd: distinct seeds give
     distinct streams (a plain [seed lor 1] would collapse 42 and 43); the multiplier is
     2654435761 = golden-ratio hash, as a signed int32 *)
  let scrambled = I32.mul (I32.sx seed) (-1640531527) in
  let state = ref (scrambled lor 1) in
  fun () ->
    state := I32.add (I32.mul !state 1103515245) 12345;
    !state

let gen_array ~seed ~len ~modulus =
  let next = lcg_stream ~seed in
  Array.init len (fun _ -> abs (next () mod modulus))

let zeroes len = Array.make len 0

type t = {
  name : string;
  source : string;
  kernel : Ast.kernel;
  output_buffer : string;
  local_size : int;
  round_size : int -> int;
      (* largest legal size not above the request, smallest legal size
         below it (mat_mul: a positive multiple of 16) *)
  mk_args : size:int -> Mem_image.args;
  expected : size:int -> Mem_image.args -> int array;
  global_size : size:int -> int;
  riscv_size : int; (* Table III "RISC-V input size" *)
  ggpu_size : int; (* Table III "G-GPU input size" *)
}

let find_buffer (args : Mem_image.args) = Mem_image.find args.buffers

(* --- copy: out[i] = in[i] --------------------------------------------- *)

let copy =
  let source =
    {|kernel copy(global int* src, global int* dst, int n) {
  int i = get_global_id(0);
  if (i < n) {
    dst[i] = src[i];
  }
}
|}
  in
  {
    name = "copy";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "dst";
    local_size = 256;
    round_size = (fun size -> size);
    mk_args =
      (fun ~size ->
        {
          Mem_image.buffers =
            [ ("src", gen_array ~seed:11 ~len:size ~modulus:1000000); ("dst", zeroes size) ];
          scalars = [ ("n", size) ];
        });
    expected = (fun ~size:_ args -> Array.copy (find_buffer args "src"));
    global_size = (fun ~size -> size);
    riscv_size = 512;
    ggpu_size = 32768;
  }

(* --- vec_mul: out[i] = a[i] * b[i] ------------------------------------ *)

let vec_mul =
  let source =
    {|kernel vec_mul(global int* a, global int* b, global int* out, int n) {
  int i = get_global_id(0);
  if (i < n) {
    out[i] = a[i] * b[i];
  }
}
|}
  in
  {
    name = "vec_mul";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "out";
    local_size = 256;
    round_size = (fun size -> size);
    mk_args =
      (fun ~size ->
        {
          Mem_image.buffers =
            [
              ("a", gen_array ~seed:21 ~len:size ~modulus:10000);
              ("b", gen_array ~seed:22 ~len:size ~modulus:10000);
              ("out", zeroes size);
            ];
          scalars = [ ("n", size) ];
        });
    expected =
      (fun ~size args ->
        let a = find_buffer args "a" and b = find_buffer args "b" in
        Array.init size (fun i -> I32.mul a.(i) b.(i)));
    global_size = (fun ~size -> size);
    riscv_size = 1024;
    ggpu_size = 65536;
  }

(* --- mat_mul: C = A x B with A tall (n/16 x 16) and B 16 x 16 -------- *)

(* One work-item per element of C.  The inner dimension is fixed at 16
   ([matmul_inner], a literal in the source), so total work is linear in
   the number of work-items - matching the
   paper's methodology of scaling RISC-V cycle counts linearly with
   input size.  Row/column decode uses shift/mask, as the FGPU LLVM
   backend emits for power-of-two dimensions. *)

let matmul_inner = 16

let mat_mul =
  let source =
    {|kernel mat_mul(global int* a, global int* b, global int* c, int n) {
  int i = get_global_id(0);
  if (i < n) {
    int row = i >> 4;
    int col = i & 15;
    int acc = 0;
    for (int k = 0; k < 16; k++) {
      acc = acc + a[(row << 4) + k] * b[(k << 4) + col];
    }
    c[i] = acc;
  }
}
|}
  in
  {
    name = "mat_mul";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "c";
    local_size = 64;
    round_size = (fun size -> max matmul_inner (size / matmul_inner * matmul_inner));
    mk_args =
      (fun ~size ->
        {
          Mem_image.buffers =
            [
              ("a", gen_array ~seed:31 ~len:size ~modulus:100);
              ("b", gen_array ~seed:32 ~len:(matmul_inner * matmul_inner) ~modulus:100);
              ("c", zeroes size);
            ];
          scalars = [ ("n", size) ];
        });
    expected =
      (fun ~size args ->
        let a = find_buffer args "a" and b = find_buffer args "b" in
        Array.init size (fun i ->
            let row = i lsr 4 and col = i land 15 in
            let acc = ref 0 in
            for k = 0 to matmul_inner - 1 do
              acc :=
                I32.add !acc (I32.mul a.((row * 16) + k) b.((k * 16) + col))
            done;
            !acc));
    global_size = (fun ~size -> size);
    riscv_size = 256;
    ggpu_size = 4096 (* paper's 16x input ratio *);
  }

(* --- fir: out[i] = sum_k coeff[k] * x[i+k], 16 taps ------------------- *)

let fir_taps = 16

let fir =
  let source =
    {|kernel fir(global int* x, global int* coeff, global int* out, int n, int taps) {
  int i = get_global_id(0);
  if (i < n) {
    int acc = 0;
    for (int k = 0; k < taps; k++) {
      acc = acc + coeff[k] * x[i + k];
    }
    out[i] = acc;
  }
}
|}
  in
  {
    name = "fir";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "out";
    local_size = 128;
    round_size = (fun size -> size);
    mk_args =
      (fun ~size ->
        {
          Mem_image.buffers =
            [
              ("x", gen_array ~seed:41 ~len:(size + fir_taps) ~modulus:1000);
              ("coeff", gen_array ~seed:42 ~len:fir_taps ~modulus:64);
              ("out", zeroes size);
            ];
          scalars = [ ("n", size); ("taps", fir_taps) ];
        });
    expected =
      (fun ~size args ->
        let x = find_buffer args "x" and coeff = find_buffer args "coeff" in
        Array.init size (fun i ->
            let acc = ref 0 in
            for k = 0 to fir_taps - 1 do
              acc := I32.add !acc (I32.mul coeff.(k) x.(i + k))
            done;
            !acc));
    global_size = (fun ~size -> size);
    riscv_size = 128;
    ggpu_size = 4096;
  }

(* --- div_int: out[i] = a[i] / b[i] ------------------------------------ *)

let div_int =
  let source =
    {|kernel div_int(global int* a, global int* b, global int* out, int n) {
  int i = get_global_id(0);
  if (i < n) {
    out[i] = a[i] / b[i];
  }
}
|}
  in
  {
    name = "div_int";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "out";
    local_size = 256;
    round_size = (fun size -> size);
    mk_args =
      (fun ~size ->
        let b = gen_array ~seed:52 ~len:size ~modulus:97 in
        let b = Array.map (fun v -> I32.add v 1) b in
        {
          Mem_image.buffers =
            [
              ("a", gen_array ~seed:51 ~len:size ~modulus:1000000);
              ("b", b);
              ("out", zeroes size);
            ];
          scalars = [ ("n", size) ];
        });
    expected =
      (fun ~size args ->
        let a = find_buffer args "a" and b = find_buffer args "b" in
        Array.init size (fun i -> I32.div_signed a.(i) b.(i)));
    global_size = (fun ~size -> size);
    riscv_size = 512;
    ggpu_size = 4096;
  }

(* --- xcorr: out[lag] = sum_i a[i] * b[i+lag] over an n-sample window -- *)

(* The window grows with the lag count (full O(n^2) correlation, as in
   the AMD SDK kernel): the paper scales RISC-V cycles linearly with
   input size, which deliberately understates quadratic kernels - that
   methodology, reproduced here, is why xcorr shows so little G-GPU
   speed-up in Fig. 5. *)
let xcorr_window_of ~size = size

let xcorr =
  let source =
    {|kernel xcorr(global int* a, global int* b, global int* out, int nlags, int w) {
  int lag = get_global_id(0);
  if (lag < nlags) {
    int acc = 0;
    for (int i = 0; i < w; i++) {
      acc = acc + a[i] * b[i + lag];
    }
    out[lag] = acc;
  }
}
|}
  in
  {
    name = "xcorr";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "out";
    local_size = 128;
    round_size = (fun size -> size);
    mk_args =
      (fun ~size ->
        {
          Mem_image.buffers =
            [
              ("a", gen_array ~seed:61 ~len:(xcorr_window_of ~size) ~modulus:1000);
              ("b", gen_array ~seed:62 ~len:(xcorr_window_of ~size + size) ~modulus:1000);
              ("out", zeroes size);
            ];
          scalars = [ ("nlags", size); ("w", xcorr_window_of ~size) ];
        });
    expected =
      (fun ~size args ->
        let a = find_buffer args "a" and b = find_buffer args "b" in
        Array.init size (fun lag ->
            let acc = ref 0 in
            for i = 0 to xcorr_window_of ~size - 1 do
              acc := I32.add !acc (I32.mul a.(i) b.(i + lag))
            done;
            !acc));
    global_size = (fun ~size -> size);
    riscv_size = 64;
    ggpu_size = 1024 (* paper's 16x ratio; kept small: work is O(n^2) *);
  }

(* --- parallel_sel: parallel selection sort ---------------------------- *)

(* Each work-item ranks its element against the whole array and writes it
   to its final position; ties break by index, making the permutation
   well-defined on duplicate keys.  The test combines its 0/1 comparisons
   with [|] and [&]: [||] and [&&] would parse to extra [!= 0] compares
   and compile to more code. *)
let parallel_sel =
  let source =
    {|kernel parallel_sel(global int* src, global int* dst, int n) {
  int i = get_global_id(0);
  if (i < n) {
    int key = src[i];
    int rank = 0;
    for (int j = 0; j < n; j++) {
      int other = src[j];
      if (other < key | (other == key & j < i)) {
        rank = rank + 1;
      }
    }
    dst[rank] = key;
  }
}
|}
  in
  {
    name = "parallel_sel";
    source;
    kernel = Parse.parse_one source;
    output_buffer = "dst";
    local_size = 128;
    round_size = (fun size -> size);
    mk_args =
      (fun ~size ->
        {
          Mem_image.buffers =
            [
              ("src", gen_array ~seed:71 ~len:size ~modulus:10000);
              ("dst", zeroes size);
            ];
          scalars = [ ("n", size) ];
        });
    expected =
      (fun ~size:_ args ->
        let src = find_buffer args "src" in
        let sorted = Array.copy src in
        Array.sort Int.compare sorted;
        sorted);
    global_size = (fun ~size -> size);
    riscv_size = 128;
    ggpu_size = 2048;
  }

let all = [ mat_mul; copy; vec_mul; fir; div_int; xcorr; parallel_sel ]

let find name =
  match List.find_opt (fun w -> String.equal w.name name) all with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Suite.find: unknown workload %s" name)
