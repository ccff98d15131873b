(* Minimal binary min-heap of int keys, used by the discrete-event
   scheduler, whose keys pack an event's time and CU.  Entries may be
   stale; the scheduler revalidates on pop.

   Keys sit in an [int array], so a sift step reads and writes plain
   words: no tag check, no write barrier.  The sift loops are top-level
   functions that carry the moving key and fill a hole, rather than
   closures or swaps, so push and pop allocate nothing. *)

type t = { mutable keys : int array; mutable size : int }

let create () = { keys = Array.make 16 0; size = 0 }
let is_empty t = t.size = 0
let length t = t.size

(* Move [k] up from the hole at [i] to where it belongs. *)
let rec sift_up (keys : int array) i k =
  if i = 0 then Array.unsafe_set keys 0 k
  else
    let p = (i - 1) / 2 in
    let kp = Array.unsafe_get keys p in
    if kp > k then begin
      Array.unsafe_set keys i kp;
      sift_up keys p k
    end
    else Array.unsafe_set keys i k

(* Move [k] down from the hole at [i] within the first [n] slots. *)
let rec sift_down (keys : int array) n i k =
  let l = (2 * i) + 1 in
  if l >= n then Array.unsafe_set keys i k
  else
    let r = l + 1 in
    let c =
      if r < n && Array.unsafe_get keys r < Array.unsafe_get keys l then r
      else l
    in
    let kc = Array.unsafe_get keys c in
    if kc < k then begin
      Array.unsafe_set keys i kc;
      sift_down keys n c k
    end
    else Array.unsafe_set keys i k

let push t key =
  let n = t.size in
  if n = Array.length t.keys then begin
    let keys = Array.make (2 * n) 0 in
    Array.blit t.keys 0 keys 0 n;
    t.keys <- keys
  end;
  t.size <- n + 1;
  sift_up t.keys n key

exception Empty

let pop_time t =
  let n = t.size - 1 in
  if n < 0 then raise Empty;
  let keys = t.keys in
  let top = Array.unsafe_get keys 0 in
  t.size <- n;
  if n > 0 then sift_down keys n 0 (Array.unsafe_get keys n);
  top
