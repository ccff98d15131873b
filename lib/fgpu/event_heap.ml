(* Minimal binary min-heap of (time, payload) pairs, used by the
   discrete-event scheduler.  Entries may be stale; the scheduler
   revalidates on pop. *)

type 'a t = {
  mutable times : int array;
  mutable payloads : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { times = Array.make 16 0; payloads = Array.make 16 dummy; size = 0; dummy }

let is_empty t = t.size = 0
let length t = t.size

(* Drop every entry (capacity is kept), overwriting payload slots with
   the dummy so discarded payloads don't keep their referents alive. *)
let clear t =
  Array.fill t.payloads 0 t.size t.dummy;
  t.size <- 0

let grow t =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let times = Array.make (cap * 2) 0 in
    let payloads = Array.make (cap * 2) t.dummy in
    Array.blit t.times 0 times 0 cap;
    Array.blit t.payloads 0 payloads 0 cap;
    t.times <- times;
    t.payloads <- payloads
  end

let swap t i j =
  let ti = t.times.(i) and pi = t.payloads.(i) in
  t.times.(i) <- t.times.(j);
  t.payloads.(i) <- t.payloads.(j);
  t.times.(j) <- ti;
  t.payloads.(j) <- pi

let push t time payload =
  grow t;
  let i = ref t.size in
  t.times.(!i) <- time;
  t.payloads.(!i) <- payload;
  t.size <- t.size + 1;
  while !i > 0 && t.times.((!i - 1) / 2) > t.times.(!i) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

exception Empty

(* Remove the smallest entry and return its time alone, so a caller
   whose time key already encodes the payload allocates no pair. *)
let pop_time t =
  if t.size = 0 then raise Empty;
  let time = t.times.(0) in
  t.size <- t.size - 1;
  t.times.(0) <- t.times.(t.size);
  t.payloads.(0) <- t.payloads.(t.size);
  t.payloads.(t.size) <- t.dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && t.times.(l) < t.times.(!smallest) then smallest := l;
    if r < t.size && t.times.(r) < t.times.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      swap t !i !smallest;
      i := !smallest
    end
    else continue := false
  done;
  time

let pop t =
  if t.size = 0 then raise Empty;
  let payload = t.payloads.(0) in
  let time = pop_time t in
  (time, payload)
