(* Every float the flow-scaling grid computes, printed exactly.

   For both placers at 8/16/32/64 CUs (667 MHz, the `versions` grid):
   the logic-synthesis report, the post-route timing record, the route
   estimate and every partition of the floorplan.  Floats print with
   %h, so a change in the last bit of any of them moves the output; the
   `versions` table rounds, this does not.  `dune runtest` diffs the
   output against flow_scaling.expected. *)

open Ggpu_core
open Ggpu_layout

let pr = Printf.printf

let dump_report (r : Ggpu_synth.Report.row) =
  pr
    "  report area=%h memory=%h ff=%d comb=%d memories=%d leakage=%h \
     dynamic=%h total_w=%h fmax=%h stages=%d\n"
    r.total_area_mm2 r.memory_area_mm2 r.ff r.comb r.memories r.leakage_mw
    r.dynamic_w r.total_w r.fmax_mhz r.pipeline_stages

let dump_post (t : Timing_post.t) =
  pr "  post internal=%h period=%h achieved=%h\n" t.internal_ns
    t.post_route_period_ns t.achieved_mhz;
  match t.worst_cross with
  | None -> pr "  cross none\n"
  | Some c ->
      pr "  cross net=%s %s->%s distance=%h wire=%h total=%h\n"
        (Ggpu_hw.Net.name c.net) c.from_region c.to_region c.distance_mm
        c.wire_delay_ns c.total_ns

let dump_route (r : Route.t) =
  pr "  route total=%h intra=%h inter=%h congestion=%h\n" r.total_um
    r.intra_um r.inter_um r.congestion;
  List.iter (fun (layer, um) -> pr "    %s=%h\n" layer um) r.per_layer_um

let dump_rect label (r : Floorplan.rect) =
  pr "  %s x=%h y=%h w=%h h=%h\n" label r.x r.y r.w r.h

let dump_floorplan (fp : Floorplan.t) =
  pr "  design=%s cus=%d\n" fp.design fp.num_cus;
  dump_rect "die" fp.die;
  List.iter
    (fun (p : Floorplan.partition) ->
      dump_rect p.part_name p.rect;
      pr "    area total=%h memory=%h logic=%h macros=%d divided=%d\n"
        p.area.total_mm2 p.area.memory_mm2 p.area.logic_mm2 p.macro_count
        p.divided_macros)
    fp.partitions

let () =
  List.iter
    (fun (label, place) ->
      List.iter
        (fun (impl : Flow.implementation) ->
          pr "%s %s achieved=%h derate=%h\n" label
            (Spec.to_string impl.spec)
            impl.achieved_mhz impl.contention_derate;
          dump_report impl.logic_report;
          dump_post impl.post_timing;
          dump_route impl.route;
          dump_floorplan impl.floorplan)
        (Versions.scaling ~parallel:false ~place ()))
    [ ("columns", Flow.Columns); ("analytic", Flow.Analytic) ]
