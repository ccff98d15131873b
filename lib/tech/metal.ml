(* Metal stack model.

   Nine layers as in the paper's 65 nm technology; M1, M8 and M9 are
   reserved for power distribution, so global signal routing uses M2-M7.
   Each routable layer has a pitch (which fixes its track capacity per
   unit area) and a preference weight: routers fill cheap lower layers
   first and escalate to sparser upper layers for long nets, which is
   what produces the per-layer wirelength distribution of Table II. *)

type layer = {
  name : string;
  pitch_um : float;
  signal : bool; (* false for power-only layers *)
  preference : float; (* relative share of demand attracted, signal only *)
  r_ohm_per_mm : float;
  c_ff_per_mm : float;
}

type t = { layers : layer list }

let default_9layer =
  let mk name pitch_um signal preference r c =
    { name; pitch_um; signal; preference; r_ohm_per_mm = r; c_ff_per_mm = c }
  in
  {
    layers =
      [
        mk "M1" 0.20 false 0.0 900.0 220.0;
        mk "M2" 0.20 true 0.20 780.0 210.0;
        mk "M3" 0.20 true 0.28 780.0 210.0;
        mk "M4" 0.28 true 0.17 420.0 200.0;
        mk "M5" 0.28 true 0.16 420.0 200.0;
        mk "M6" 0.40 true 0.12 210.0 190.0;
        mk "M7" 0.40 true 0.07 210.0 190.0;
        mk "M8" 0.80 false 0.0 60.0 180.0;
        mk "M9" 0.80 false 0.0 60.0 180.0;
      ];
  }

let signal_layers t = List.filter (fun l -> l.signal) t.layers

let find t name =
  match List.find_opt (fun l -> l.name = name) t.layers with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Metal.find: no layer %s" name)

(* Track capacity of a layer in millimetres of wire per square millimetre
   of die, assuming half the layer is usable for signal routing. *)
let capacity_mm_per_mm2 layer =
  if not layer.signal then 0.0 else 0.5 *. 1000.0 /. layer.pitch_um
