(* Designer specification for a G-GPU instance, and the PPA check run
   after implementation (the "under the initial specification?" diamond
   of the paper's Fig. 2 flow). *)

type t = {
  num_cus : int; (* a member of Arch_params.supported_cu_counts *)
  freq_mhz : int; (* target operating frequency *)
  max_area_mm2 : float option;
  max_power_w : float option;
}

exception Invalid_spec of string

let make ?(max_area_mm2 = None) ?(max_power_w = None) ~num_cus ~freq_mhz () =
  if not (Ggpu_rtlgen.Arch_params.cu_count_supported num_cus) then
    raise
      (Invalid_spec
         (Printf.sprintf "num_cus %d unsupported (the generator accepts %s)"
            num_cus Ggpu_rtlgen.Arch_params.supported_cu_counts_doc));
  if freq_mhz < 1 then raise (Invalid_spec "freq_mhz must be positive");
  { num_cus; freq_mhz; max_area_mm2; max_power_w }

let period_ns t = 1000.0 /. float_of_int t.freq_mhz

(* Shared L2/AXI contention derate for beyond-paper grids.  Up to 8 CUs
   the four AXI data ports keep up (the paper's largest design); past
   that, each doubling adds a fixed share of queueing at the shared
   interconnect, so the achievable frequency derates logarithmically:
   16 CUs ~0.89x, 32 ~0.81x, 64 ~0.74x. *)
let contention_derate t =
  if t.num_cus <= 8 then 1.0
  else
    let doublings = log (float_of_int t.num_cus /. 8.0) /. log 2.0 in
    1.0 /. (1.0 +. (0.12 *. doublings))

type violation =
  | Area_exceeded of { limit : float; actual : float }
  | Power_exceeded of { limit : float; actual : float }
  | Frequency_missed of { target_mhz : int; achieved_mhz : float }

let violation_to_string = function
  | Area_exceeded { limit; actual } ->
      Printf.sprintf "area %.2f mm2 exceeds limit %.2f mm2" actual limit
  | Power_exceeded { limit; actual } ->
      Printf.sprintf "power %.2f W exceeds limit %.2f W" actual limit
  | Frequency_missed { target_mhz; achieved_mhz } ->
      Printf.sprintf "achieved %.0f MHz misses target %d MHz" achieved_mhz
        target_mhz

let check t ~area_mm2 ~power_w ~achieved_mhz =
  let violations = ref [] in
  (match t.max_area_mm2 with
  | Some limit when area_mm2 > limit ->
      violations := Area_exceeded { limit; actual = area_mm2 } :: !violations
  | Some _ | None -> ());
  (match t.max_power_w with
  | Some limit when power_w > limit ->
      violations := Power_exceeded { limit; actual = power_w } :: !violations
  | Some _ | None -> ());
  if achieved_mhz +. 0.5 < float_of_int t.freq_mhz then
    violations :=
      Frequency_missed { target_mhz = t.freq_mhz; achieved_mhz } :: !violations;
  match !violations with [] -> Ok () | vs -> Error (List.rev vs)

(* Lossless, order-fixed rendering of every result-affecting field —
   the memo-cache key fragment for a spec.  Floats print as hex
   (%h) so distinct budgets can never collide through rounding. *)
let canonical b t =
  let fopt = function
    | None -> Buffer.add_char b '-'
    | Some f -> Printf.bprintf b "%h" f
  in
  Buffer.add_string b "cus=";
  Ggpu_obs.Json.add_int b t.num_cus;
  Buffer.add_string b ";freq=";
  Ggpu_obs.Json.add_int b t.freq_mhz;
  Buffer.add_string b ";area=";
  fopt t.max_area_mm2;
  Buffer.add_string b ";power=";
  fopt t.max_power_w

let to_string t =
  Printf.sprintf "%dCU@%dMHz%s%s" t.num_cus t.freq_mhz
    (match t.max_area_mm2 with
    | Some a -> Printf.sprintf " area<=%.1fmm2" a
    | None -> "")
    (match t.max_power_w with
    | Some p -> Printf.sprintf " power<=%.1fW" p
    | None -> "")
