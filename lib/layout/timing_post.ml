(* Post-route timing.

   Within a partition the logic-synthesis timing holds (the gate delay
   model already charges average local wire).  What physical synthesis
   adds is the inter-partition routes: they cross macro-dominated
   floorplan, where repeaters cannot be placed, so their delay is the
   unbuffered RC of the full length - quadratic in distance.  This is
   the mechanism behind the paper's headline physical result: the 8-CU
   floorplan puts peripheral CUs so far from the general memory
   controller that the 1.5 ns (667 MHz) target breaks, and inserting
   pipeline registers cannot help because the wire itself, not the
   logic, owns the delay.  The best achievable period derates the design
   (to 600 MHz in the paper). *)

open Ggpu_hw
open Ggpu_tech
open Ggpu_synth

type cross_path = {
  net : Net.t;
  from_region : string;
  to_region : string;
  distance_mm : float;
  wire_delay_ns : float;
  total_ns : float;
}

type t = {
  internal_ns : float; (* worst in-partition register path *)
  worst_cross : cross_path option;
  post_route_period_ns : float;
  achieved_mhz : float;
}

(* Routed length of a cross-partition net exceeds the centre-to-centre
   distance: the route must wind around the macro-dominated partitions. *)
let cross_detour = 1.55

(* Unbuffered RC delay of a cross-partition route on an intermediate
   layer (Elmore, distributed line: T = r * c * L^2 / 2). *)
let unbuffered_rc_ns tech ~length_mm =
  let layer = Metal.find tech.Tech.metal "M5" in
  let routed = cross_detour *. length_mm in
  0.5 *. layer.Metal.r_ohm_per_mm *. layer.Metal.c_ff_per_mm *. 1.0e-6
  *. routed *. routed

let setup_of tech cell =
  match Cell.kind cell with
  | Cell.Dff -> tech.Tech.stdcell.Stdcell.dff_setup_ns
  | Cell.Macro spec -> (Memlib.query tech.Tech.memory spec).Memlib.setup_ns
  | Cell.Comb _ -> 0.0

let analyse ?engine tech netlist (fp : Floorplan.t) =
  Ggpu_obs.Trace.with_span "layout.post_sta" @@ fun () ->
  Ggpu_obs.Metrics.count "layout.post_sta.calls" 1;
  (* one engine serves both the worst-path report and the cross-net
     arrivals: in the flow it is DSE's own, which syncs to the netlist's
     current revision before it answers, so it reads as a fresh engine
     would at no rebuild *)
  let engine =
    match engine with
    | Some engine -> engine
    | None -> Timing.make_engine tech netlist
  in
  let pre = Timing.engine_analyse engine in
  let worst_cross = ref None in
  Netlist.iter_nets netlist (fun net ->
      match Netlist.driver_of netlist net with
      | None -> ()
      | Some driver ->
          let from_region = Cell.region driver in
          List.iter
            (fun reader ->
              let to_region = Cell.region reader in
              if not (String.equal from_region to_region) then begin
                let distance_mm =
                  Floorplan.distance fp ~from_:from_region ~to_:to_region
                in
                let wire_delay_ns = unbuffered_rc_ns tech ~length_mm:distance_mm in
                let arrival = Timing.engine_net_arrival engine net in
                let total_ns =
                  arrival +. wire_delay_ns +. setup_of tech reader
                  +. tech.Tech.stdcell.Stdcell.clock_skew_ns
                in
                match !worst_cross with
                | Some worst when worst.total_ns >= total_ns -> ()
                | Some _ | None ->
                    worst_cross :=
                      Some
                        {
                          net;
                          from_region;
                          to_region;
                          distance_mm;
                          wire_delay_ns;
                          total_ns;
                        }
              end)
            (Netlist.readers_of netlist net));
  let internal_ns = pre.Timing.max_delay_ns in
  let post_route_period_ns =
    match !worst_cross with
    | Some cross -> Float.max internal_ns cross.total_ns
    | None -> internal_ns
  in
  {
    internal_ns;
    worst_cross = !worst_cross;
    post_route_period_ns;
    achieved_mhz = 1000.0 /. post_route_period_ns;
  }

(* The paper reports achieved frequencies rounded to marketable steps
   (600 MHz for the derated 8-CU design). *)
let quantise mhz = float_of_int (int_of_float (mhz /. 10.0)) *. 10.0
let quantised_mhz t = quantise t.achieved_mhz

let pp fmt t =
  Format.fprintf fmt "post-route: internal=%.3fns" t.internal_ns;
  (match t.worst_cross with
  | Some c ->
      Format.fprintf fmt " cross=%.3fns (%s->%s, %.2fmm wire %.3fns)"
        c.total_ns c.from_region c.to_region c.distance_mm c.wire_delay_ns
  | None -> ());
  Format.fprintf fmt " achieved=%.0fMHz" t.achieved_mhz
