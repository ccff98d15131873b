(* Property tests for the discrete-event scheduler's binary min-heap of
   int keys. *)

module H = Ggpu_fgpu.Event_heap

(* A scripted sequence of heap operations: [Push k] inserts key [k],
   [Pop] removes the minimum (ignored when the heap is empty). *)
type op = Push of int | Pop

let op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Push k) (int_bound 10_000)); (2, return Pop) ])

let op_print = function Push k -> Printf.sprintf "Push %d" k | Pop -> "Pop"

let ops_arb =
  QCheck.make ~print:QCheck.Print.(list op_print) QCheck.Gen.(list_size (int_bound 200) op_gen)

let apply h = function
  | Push k -> H.push h k
  | Pop -> ( try ignore (H.pop_time h) with H.Empty -> ())

let prop_pop_sorted =
  QCheck.Test.make ~name:"event_heap pop yields non-decreasing times"
    ~count:200
    QCheck.(list_of_size Gen.(int_bound 300) (int_bound 10_000))
    (fun keys ->
      let h = H.create () in
      List.iter (H.push h) keys;
      let prev = ref min_int in
      let ok = ref true in
      for _ = 1 to List.length keys do
        let k = H.pop_time h in
        if k < !prev then ok := false;
        prev := k
      done;
      !ok && H.is_empty h)

(* Drive the heap and a sorted-list model through the same random op
   sequence; every pop must agree on the minimum key. *)
let prop_model =
  QCheck.Test.make ~name:"event_heap matches sorted-list model" ~count:200
    ops_arb (fun ops ->
      let h = H.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push k ->
              H.push h k;
              model := List.sort compare (k :: !model);
              H.length h = List.length !model
          | Pop -> (
              match !model with
              | [] -> (
                  match H.pop_time h with
                  | exception H.Empty -> true
                  | _ -> false)
              | m :: rest ->
                  let k = H.pop_time h in
                  model := rest;
                  k = m))
        ops)

let prop_is_empty =
  QCheck.Test.make ~name:"event_heap is_empty iff length = 0" ~count:200
    ops_arb (fun ops ->
      let h = H.create () in
      List.for_all
        (fun op ->
          apply h op;
          H.is_empty h = (H.length h = 0))
        ops)

(* The scheduler's stale-entry protocol, with its key encoding: a key
   packs a time above the low bits that name the event's owner (the
   scheduler's CU), so a popped key decodes to both.  An owner may be
   re-armed at a newer time without removing its old entry; on pop, an
   entry whose time disagrees with the owner's current time is
   discarded.  Drive that protocol with random interleaved push/update/
   pop and check that the *valid* pops come out in non-decreasing time
   order and never before the owner's current time. *)
let owner_bits = 3

let prop_stale_min_order =
  QCheck.Test.make ~name:"event_heap stale-entry protocol preserves min-order"
    ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_bound 300) (pair (int_bound 7) (int_bound 1000))))
    (fun (n_owners, ops) ->
      (* the stock int shrinker can walk below the generator's range *)
      let n_owners = max 1 n_owners in
      let h = H.create () in
      let current = Array.make n_owners (-1) in
      (* interleave: even steps push/update an owner, odd steps pop.
         Arming times come off a monotone clock, as simulation times
         do — the protocol does not serve pops in time order if old
         entries can be re-armed into the past. *)
      let clock = ref 0 in
      let prev = ref min_int in
      let ok = ref true in
      List.iteri
        (fun i (p, dt) ->
          let p = p mod n_owners in
          if i land 1 = 0 then begin
            (* re-arm owner [p] at a newer time; the old heap entry, if
               any, goes stale *)
            clock := !clock + dt;
            let t = max current.(p) !clock in
            current.(p) <- t;
            H.push h ((t lsl owner_bits) lor p)
          end
          else
            match H.pop_time h with
            | exception H.Empty -> ()
            | key ->
                let t = key asr owner_bits
                and p = key land ((1 lsl owner_bits) - 1) in
                if t = current.(p) then begin
                  (* valid entry: must be served in global time order *)
                  if t < !prev then ok := false;
                  prev := t;
                  current.(p) <- -1
                end
                else if t > current.(p) && current.(p) >= 0 then
                  (* an entry newer than the owner's own clock cannot
                     exist: updates only move time forward *)
                  ok := false)
        ops;
      !ok)

(* A heap popped until empty — the scheduler's only way to finish with
   one — behaves like a fresh one: it raises [Empty], then serves new
   keys in order, growing past its old size if need be. *)
let prop_drained_reuse =
  QCheck.Test.make ~name:"event_heap drained heap allows reuse" ~count:200
    ops_arb (fun ops ->
      let h = H.create () in
      List.iter (apply h) ops;
      while not (H.is_empty h) do
        ignore (H.pop_time h)
      done;
      H.length h = 0
      && (match H.pop_time h with exception H.Empty -> true | _ -> false)
      &&
      let keys = List.init 40 (fun i -> (i * 7919) mod 101) in
      List.iter (H.push h) keys;
      List.for_all (fun k -> H.pop_time h = k) (List.sort compare keys)
      && H.is_empty h)

let suite =
  [
    ( "event_heap",
      [
        QCheck_alcotest.to_alcotest prop_pop_sorted;
        QCheck_alcotest.to_alcotest prop_model;
        QCheck_alcotest.to_alcotest prop_is_empty;
        QCheck_alcotest.to_alcotest prop_stale_min_order;
        QCheck_alcotest.to_alcotest prop_drained_reuse;
      ] );
  ]
