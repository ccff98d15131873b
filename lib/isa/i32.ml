(* 32-bit two's-complement arithmetic on native OCaml ints.

   The simulators' hot paths keep register files and memories as [int
   array] instead of [int32 array]: an [int32 array] stores a boxed
   pointer per element, so every register write allocates, while native
   ints are immediate.  The canonical representation here is the
   sign-extended value: an [int] holds exactly the value of the int32 it
   models (so [-1l] is [-1], not [0xFFFFFFFF]).  Under that invariant
   equality, signed comparison, division and the bitwise operators on
   native ints coincide with their [Int32] counterparts directly;
   add/sub/mul/shift-left need one [sx] to fold bit 31 back into the
   sign.  All operations assume (and re-establish) canonical inputs. *)

let min_i32 = -0x8000_0000
let mask = 0xFFFF_FFFF

(* Sign-extend the low 32 bits of [v]; identity on canonical values. *)
let sx v = (v land mask) - ((v land 0x8000_0000) lsl 1)

let of_int32 = Int32.to_int (* sign-extends: already canonical *)
let to_int32 = Int32.of_int (* truncates to 32 bits: exact on canonical *)
let add a b = sx (a + b)
let sub a b = sx (a - b)
let mul a b = sx (a * b)

(* RISC-V M division semantics, shared by the RV32 and G-GPU models. *)
let div_signed a b =
  if b = 0 then -1 else if a = min_i32 && b = -1 then min_i32 else a / b

let rem_signed a b =
  if b = 0 then a else if a = min_i32 && b = -1 then 0 else a mod b

(* RV32M unsigned division: [x/0 = 2^32-1] (that is, -1), [x rem 0 = x]. *)
let div_unsigned a b = if b = 0 then -1 else sx ((a land mask) / (b land mask))
let rem_unsigned a b = if b = 0 then a else sx ((a land mask) mod (b land mask))

(* High word of the signed 64-bit product.  The product of two int32s
   can reach 2^62, one past [max_int] on 63-bit ints, so it is formed
   in (unboxed) Int64. *)
let mulh a b =
  Int64.to_int
    (Int64.shift_right (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)

let sll a n = sx (a lsl (n land 31))
let srl a n = sx ((a land mask) lsr (n land 31))
let sra a n = a asr (n land 31)
let ult a b = a land mask < b land mask
let flip v ~bit = sx (v lxor (1 lsl bit))
