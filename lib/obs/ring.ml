(* Bounded ring buffer for the serve flight recorder.

   The recorder is always on, so the push path must be allocation-light
   and O(1): a fixed array with a monotone write cursor.  [total] never
   wraps — it is the number of pushes ever made, which lets callers (and
   tests) distinguish "empty" from "wrapped N times" and report how many
   entries were dropped. *)

type 'a t = {
  slots : 'a option array;
  mutable head : int; (* next write position *)
  mutable total : int; (* pushes since creation *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { slots = Array.make capacity None; head = 0; total = 0 }

let capacity t = Array.length t.slots
let total t = t.total
let length t = min t.total (Array.length t.slots)

let push t x =
  t.slots.(t.head) <- Some x;
  t.head <- (t.head + 1) mod Array.length t.slots;
  t.total <- t.total + 1

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.head <- 0;
  t.total <- 0

(* Oldest first.  Before the first wrap the live entries are
   [0 .. head-1]; after it they start at [head] (the oldest survivor)
   and wrap around. *)
let to_list t =
  let cap = Array.length t.slots in
  let n = length t in
  let start = if t.total <= cap then 0 else t.head in
  List.init n (fun i ->
      match t.slots.((start + i) mod cap) with
      | Some x -> x
      | None -> assert false)

