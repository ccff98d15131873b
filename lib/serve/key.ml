(* Keys are full canonical strings; hashing is only for shard choice
   and wire-visible digests, never for identity.  A key is rendered
   into one buffer without a format parse, and hashed once: the engine
   derives both the shard and the digest from that one hash. *)

(* A [for] loop over a local ref, so ocamlopt keeps the Int64 unboxed. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) in
    Bytes.unsafe_set b i "0123456789abcdef".[nibble land 15]
  done;
  Bytes.unsafe_to_string b

let hash_hex s = hex (fnv1a64 s)

let shard ~shards h =
  if shards < 1 then invalid_arg "Key.shard: shards < 1";
  Int64.to_int
    (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

(* The tech models are plain records of floats and ints; Marshal gives
   a canonical byte rendering of every parameter without naming each
   field of four nested model types.  [No_sharing] makes it a function
   of the values alone: by default Marshal also encodes which equal
   sub-values are physically shared, and that differs between build
   profiles and between a model and its deep copy. *)
let tech (t : Ggpu_tech.Tech.t) =
  t.Ggpu_tech.Tech.name ^ ":"
  ^ hash_hex (Marshal.to_string t [ Marshal.No_sharing ])

let synth ~tech spec =
  let b = Buffer.create 128 in
  Buffer.add_string b "synth|tech=";
  Buffer.add_string b tech;
  Buffer.add_char b '|';
  Ggpu_core.Spec.canonical b spec;
  Buffer.contents b

let launch b ~config ~kernel ~global_size ~local_size =
  Buffer.add_string b "|k=";
  Buffer.add_string b kernel;
  Buffer.add_string b ";g=";
  Ggpu_obs.Json.add_int b global_size;
  Buffer.add_string b ";l=";
  Ggpu_obs.Json.add_int b local_size;
  Buffer.add_char b '|';
  Ggpu_fgpu.Config.canonical b config

let sim ~config ~kernel ~global_size ~local_size =
  let b = Buffer.create 256 in
  Buffer.add_string b "sim";
  launch b ~config ~kernel ~global_size ~local_size;
  Buffer.contents b

let perf ~config ~kernel ~global_size ~local_size ~stride =
  let b = Buffer.create 256 in
  Buffer.add_string b "perf|stride=";
  Ggpu_obs.Json.add_int b stride;
  launch b ~config ~kernel ~global_size ~local_size;
  Buffer.contents b

let base_netlist ~cus = Printf.sprintf "base|cus=%d" cus
let compiled_kernel name = "compiled|" ^ name
