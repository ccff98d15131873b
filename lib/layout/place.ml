(* Analytical global placement of the partition grid (eplace-style).

   The estimator floorplan ({!Floorplan.build}) stacks CU partitions in
   two fixed columns flanking the central GMC/top column — faithful to
   the paper's published layouts, but increasingly pessimal past a few
   CUs: the worst CU sits a whole column away from the general memory
   controller, and the unbuffered cross-partition RC grows with the
   square of that distance.  This module re-places the same partitions
   with the analytical formulation of the global placers the DG-RePlAce
   line of work builds on:

     minimise  sum_ij w_ij ((xi-xj)^2 + (yi-yj)^2)   (quadratic WL)
             + lambda * sum_ij overlap(i,j)^2        (density penalty)

   where w_ij is the cross-partition wire demand extracted from the
   netlist (width x instance count, exactly the weights
   {!Route.estimate} charges), the GMC block is anchored at the origin
   and every other partition (CUs *and* the top glue) is movable.  The
   penalty multiplier escalates geometrically, Nesterov's accelerated
   descent drives the iterates, and a deterministic abutment legalizer
   removes the residual overlap.  The result is an ordinary
   {!Floorplan.t}, so routing estimation and post-route timing consume
   placed centroids with no code changes.

   Determinism: the gradient of each block is summed over partners in
   fixed index order by exactly one task, [Parallel.map] preserves
   order, and ties in the overlap direction break on block index — so
   the placement is bit-identical at any domain count (enforced by
   tests and the CI smoke at 4 domains). *)

open Ggpu_synth

type t = {
  floorplan : Floorplan.t; (* placed partitions, die = bounding box *)
  iterations : int;
  wirelength_init_mm : float; (* weighted Manhattan WL, clustered init *)
  wirelength_mm : float; (* ... after descent + legalization *)
  overflow : float; (* residual pre-legalization overlap fraction *)
  domains : int;
}

(* --- connectivity extraction ------------------------------------------ *)

(* Pairwise wire demand between regions: for every net whose readers
   leave the driver's region, charge [width x count] wires to each
   (driver region, reader region) pair — the same per-net weight
   {!Route.estimate} uses, so the objective optimises what the router
   measures. *)
let pair_weights netlist ~index ~n =
  let w = Array.make (n * n) 0.0 in
  Ggpu_hw.Netlist.iter_nets netlist (fun net ->
      match Ggpu_hw.Netlist.driver_of netlist net with
      | None -> ()
      | Some driver -> (
          match Hashtbl.find_opt index (Ggpu_hw.Cell.region driver) with
          | None -> ()
          | Some i ->
              let wires =
                float_of_int
                  (Ggpu_hw.Net.width net * Ggpu_hw.Cell.count driver)
              in
              List.iter
                (fun reader ->
                  match
                    Hashtbl.find_opt index (Ggpu_hw.Cell.region reader)
                  with
                  | Some j when j <> i ->
                      w.((i * n) + j) <- w.((i * n) + j) +. wires;
                      w.((j * n) + i) <- w.((j * n) + i) +. wires
                  | Some _ | None -> ())
                (Ggpu_hw.Netlist.readers_of netlist net)))
      ;
  w

(* --- geometry --------------------------------------------------------- *)

(* Block shapes: CUs keep the estimator's 1.6:1 aspect (their internal
   placement is unchanged — only the partition grid moves); the anchored
   GMC and the movable top glue become squares, which also shortens
   their intra-partition Rent average versus the estimator's full-height
   sliver. *)
let cu_aspect = 1.6

let shape ~aspect fp =
  let h = sqrt (fp /. aspect) in
  (aspect *. h, h)

let manhattan_wl ~weights ~n xs ys =
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let w = weights.((i * n) + j) in
      if w > 0.0 then
        total :=
          !total
          +. (w *. (abs_float (xs.(i) -. xs.(j)) +. abs_float (ys.(i) -. ys.(j))))
    done
  done;
  !total

(* --- gradient --------------------------------------------------------- *)

(* d/dxi of the objective for block [i]: quadratic wirelength pull plus
   the overlap push.  Partners are scanned in ascending index order and
   the zero-distance tie pushes the lower-index block negative, so the
   value is a pure function of (positions, lambda, i). *)
let block_gradient ~weights ~n ~bw ~bh ~lambda xs ys i =
  let gx = ref 0.0 and gy = ref 0.0 in
  for j = 0 to n - 1 do
    if j <> i then begin
      let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
      let w = weights.((i * n) + j) in
      if w > 0.0 then begin
        gx := !gx +. (2.0 *. w *. dx);
        gy := !gy +. (2.0 *. w *. dy)
      end;
      (* smooth pairwise overlap: p = (ox * oy)^2 with
         ox = max 0 ((wi+wj)/2 - |dx|) *)
      let ox = ((bw.(i) +. bw.(j)) /. 2.0) -. abs_float dx in
      let oy = ((bh.(i) +. bh.(j)) /. 2.0) -. abs_float dy in
      if ox > 0.0 && oy > 0.0 then begin
        let sx =
          if dx > 0.0 then 1.0
          else if dx < 0.0 then -1.0
          else if i < j then -1.0
          else 1.0
        in
        let sy =
          if dy > 0.0 then 1.0
          else if dy < 0.0 then -1.0
          else if i < j then -1.0
          else 1.0
        in
        (* p = ox * oy and d(ox)/dxi = -sx, so
           d(p^2)/dxi = 2 p * oy * (-sx) *)
        let p = ox *. oy in
        gx := !gx +. (lambda *. 2.0 *. p *. oy *. (-.sx));
        gy := !gy +. (lambda *. 2.0 *. p *. ox *. (-.sy))
      end
    end
  done;
  (!gx, !gy)

let overlap_area ~n ~bw ~bh xs ys =
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ox =
        ((bw.(i) +. bw.(j)) /. 2.0) -. abs_float (xs.(i) -. xs.(j))
      in
      let oy =
        ((bh.(i) +. bh.(j)) /. 2.0) -. abs_float (ys.(i) -. ys.(j))
      in
      if ox > 0.0 && oy > 0.0 then total := !total +. (ox *. oy)
    done
  done;
  !total

(* --- legalization ----------------------------------------------------- *)

(* Deterministic abutment legalizer.  Blocks are committed in ascending
   order of distance-to-anchor (ties on index): each block lands on the
   overlap-free candidate position nearest its optimised target, where
   candidates abut the already-committed rects on all four sides at
   three alignments each, plus the target itself and an always-feasible
   slot right of everything.  No randomness, no iteration-order
   dependence. *)
let legalize ~n ~bw ~bh ~fixed xs ys =
  let committed = ref [] in
  (* (x, y, w, h) with x,y = lower-left corner *)
  let overlaps (x, y, w, h) =
    List.exists
      (fun (cx, cy, cw, ch) ->
        x +. w > cx +. 1e-9
        && cx +. cw > x +. 1e-9
        && y +. h > cy +. 1e-9
        && cy +. ch > y +. 1e-9)
      !committed
  in
  let out_x = Array.make n 0.0 and out_y = Array.make n 0.0 in
  let commit i x y =
    out_x.(i) <- x +. (bw.(i) /. 2.0);
    out_y.(i) <- y +. (bh.(i) /. 2.0);
    committed := (x, y, bw.(i), bh.(i)) :: !committed
  in
  (* anchored blocks first, at their exact positions *)
  Array.iteri
    (fun i is_fixed ->
      if is_fixed then
        commit i (xs.(i) -. (bw.(i) /. 2.0)) (ys.(i) -. (bh.(i) /. 2.0)))
    fixed;
  let movable =
    List.filter (fun i -> not fixed.(i)) (List.init n Fun.id)
    |> List.sort (fun a b ->
           let da = abs_float xs.(a) +. abs_float ys.(a)
           and db = abs_float xs.(b) +. abs_float ys.(b) in
           let c = Float.compare da db in
           if c <> 0 then c else Int.compare a b)
  in
  List.iter
    (fun i ->
      let w = bw.(i) and h = bh.(i) in
      let tx = xs.(i) -. (w /. 2.0) and ty = ys.(i) -. (h /. 2.0) in
      let candidates = ref [ (tx, ty) ] in
      List.iter
        (fun (cx, cy, cw, ch) ->
          let aligns_y = [ cy; cy +. ch -. h; ty ] in
          let aligns_x = [ cx; cx +. cw -. w; tx ] in
          List.iter
            (fun y ->
              candidates := (cx +. cw, y) :: (cx -. w, y) :: !candidates)
            aligns_y;
          List.iter
            (fun x ->
              candidates := (x, cy +. ch) :: (x, cy -. h) :: !candidates)
            aligns_x)
        !committed;
      (* always-feasible fallback: right of everything committed *)
      let right_edge =
        List.fold_left
          (fun acc (cx, _, cw, _) -> Float.max acc (cx +. cw))
          0.0 !committed
      in
      candidates := (right_edge, ty) :: !candidates;
      let best = ref None in
      List.iter
        (fun (x, y) ->
          if not (overlaps (x, y, w, h)) then begin
            let d = ((x -. tx) ** 2.0) +. ((y -. ty) ** 2.0) in
            match !best with
            | Some (bd, _, _) when bd <= d -> ()
            | Some _ | None -> best := Some (d, x, y)
          end)
        (List.rev !candidates);
      match !best with
      | Some (_, x, y) -> commit i x y
      | None -> commit i right_edge ty (* unreachable: fallback is free *))
    movable;
  (out_x, out_y)

(* --- the placer ------------------------------------------------------- *)

let default_iterations = 600

let place ?(domains = 1) ?(iterations = default_iterations) tech netlist
    ~num_cus =
  Ggpu_obs.Trace.with_span "layout.place"
    ~args:[ ("cus", string_of_int num_cus) ]
  @@ fun () ->
  Ggpu_obs.Metrics.count "layout.place.calls" 1;
  (* the estimator floorplan supplies partition inventory, areas and
     footprints; only the geometry is re-derived *)
  let fp0 = Floorplan.build tech netlist ~num_cus in
  let parts = Array.of_list fp0.Floorplan.partitions in
  let n = Array.length parts in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i p -> Hashtbl.replace index p.Floorplan.part_name i)
    parts;
  let bw = Array.make n 0.0 and bh = Array.make n 0.0 in
  let fixed = Array.make n false in
  Array.iteri
    (fun i p ->
      let name = p.Floorplan.part_name in
      let is_cu = String.length name > 2 && String.sub name 0 2 = "cu" in
      let density =
        if String.equal name "top" then Floorplan.top_density
        else Floorplan.cu_density
      in
      let fp_area =
        (p.Floorplan.area.Area.logic_mm2 /. density)
        +. p.Floorplan.area.Area.memory_mm2
      in
      let aspect = if is_cu then cu_aspect else 1.0 in
      let _, h = shape ~aspect fp_area in
      bw.(i) <- aspect *. h;
      bh.(i) <- h;
      (* the GMC column stays anchored at the origin *)
      fixed.(i) <- String.equal name "gmc")
    parts;
  let weights = pair_weights netlist ~index ~n in
  (* clustered initialisation around the anchor, eplace-style: movable
     blocks start near the GMC centre with deterministic per-index
     angular offsets so the quadratic pull unfolds them from the
     interesting basin *)
  let anchor_r = Array.fold_left Float.max 0.0 bw /. 4.0 in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if not fixed.(i) then begin
      let t = float_of_int (i + 1) in
      xs.(i) <- anchor_r *. cos (2.399963 *. t);
      (* golden angle *)
      ys.(i) <- anchor_r *. sin (2.399963 *. t)
    end
  done;
  let wl_init = manhattan_wl ~weights ~n xs ys in
  (* gradient fan-out: blocks are split into [Pool.size] contiguous
     chunks; each chunk's gradients are computed by one task in index
     order, so the result is independent of the chunking *)
  let pool = Ggpu_par.Parallel.Pool.create ~domains () in
  let chunk_count = max 1 (Ggpu_par.Parallel.Pool.size pool) in
  let chunks =
    List.init chunk_count (fun c ->
        let lo = c * n / chunk_count and hi = (c + 1) * n / chunk_count in
        (lo, hi))
    |> List.filter (fun (lo, hi) -> hi > lo)
  in
  let gradient ~lambda xs ys =
    let parts =
      Ggpu_par.Parallel.Pool.map pool
        (fun (lo, hi) ->
          Array.init (hi - lo) (fun d ->
              block_gradient ~weights ~n ~bw ~bh ~lambda xs ys (lo + d)))
        chunks
    in
    let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
    List.iter2
      (fun (lo, _) arr ->
        Array.iteri
          (fun d (x, y) ->
            gx.(lo + d) <- x;
            gy.(lo + d) <- y)
          arr)
      chunks parts;
    (gx, gy)
  in
  (* lambda normalisation: start where the density push is a small
     fraction of the wirelength pull, escalate geometrically *)
  let grad_norm g =
    Array.fold_left (fun acc v -> acc +. abs_float v) 0.0 g
  in
  let gx0, gy0 = gradient ~lambda:0.0 xs ys in
  let wl_pull = grad_norm gx0 +. grad_norm gy0 in
  let gx1, gy1 = gradient ~lambda:1.0 xs ys in
  let density_push =
    grad_norm gx1 +. grad_norm gy1 -. wl_pull |> abs_float
  in
  let lambda0 =
    if density_push > 1e-12 then 0.1 *. wl_pull /. density_push else 1.0
  in
  let lambda = ref lambda0 in
  let scale =
    (* trust region: cap the per-iteration move at a fraction of the
       average block dimension *)
    let avg =
      (Array.fold_left ( +. ) 0.0 bw +. Array.fold_left ( +. ) 0.0 bh)
      /. float_of_int (2 * n)
    in
    0.12 *. avg
  in
  (* Nesterov accelerated descent on the movable coordinates *)
  let ux = Array.copy xs and uy = Array.copy ys in
  let px = Array.copy xs and py = Array.copy ys in
  (* previous u *)
  let a = ref 1.0 in
  for _step = 1 to iterations do
    let gx, gy = gradient ~lambda:!lambda xs ys in
    let gmax =
      let m = ref 1e-12 in
      for i = 0 to n - 1 do
        if not fixed.(i) then begin
          m := Float.max !m (abs_float gx.(i));
          m := Float.max !m (abs_float gy.(i))
        end
      done;
      !m
    in
    let step = scale /. gmax in
    let a' = (1.0 +. sqrt ((4.0 *. !a *. !a) +. 1.0)) /. 2.0 in
    let momentum = (!a -. 1.0) /. a' in
    for i = 0 to n - 1 do
      if not fixed.(i) then begin
        let nx = xs.(i) -. (step *. gx.(i)) in
        let ny = ys.(i) -. (step *. gy.(i)) in
        xs.(i) <- nx +. (momentum *. (nx -. px.(i)));
        ys.(i) <- ny +. (momentum *. (ny -. py.(i)));
        px.(i) <- nx;
        py.(i) <- ny;
        ux.(i) <- nx;
        uy.(i) <- ny
      end
    done;
    a := a';
    lambda := !lambda *. 1.015
  done;
  (* descend to the last proximal iterate (not the extrapolated one);
     the anchor, never moved, is still at the origin *)
  Array.blit ux 0 xs 0 n;
  Array.blit uy 0 ys 0 n;
  let block_area =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (bw.(i) *. bh.(i))
    done;
    !s
  in
  let overflow = overlap_area ~n ~bw ~bh xs ys /. block_area in
  let lx, ly = legalize ~n ~bw ~bh ~fixed xs ys in
  Ggpu_par.Parallel.Pool.shutdown pool;
  let wl_final = manhattan_wl ~weights ~n lx ly in
  (* re-assemble a floorplan: same partitions, placed rects, die =
     bounding box shifted to the origin *)
  let min_x = ref infinity
  and min_y = ref infinity
  and max_x = ref neg_infinity
  and max_y = ref neg_infinity in
  for i = 0 to n - 1 do
    min_x := Float.min !min_x (lx.(i) -. (bw.(i) /. 2.0));
    min_y := Float.min !min_y (ly.(i) -. (bh.(i) /. 2.0));
    max_x := Float.max !max_x (lx.(i) +. (bw.(i) /. 2.0));
    max_y := Float.max !max_y (ly.(i) +. (bh.(i) /. 2.0))
  done;
  let partitions =
    Array.to_list
      (Array.mapi
         (fun i p ->
           {
             p with
             Floorplan.rect =
               {
                 Floorplan.x = lx.(i) -. (bw.(i) /. 2.0) -. !min_x;
                 y = ly.(i) -. (bh.(i) /. 2.0) -. !min_y;
                 w = bw.(i);
                 h = bh.(i);
               };
           })
         parts)
  in
  let floorplan =
    {
      fp0 with
      Floorplan.die =
        {
          Floorplan.x = 0.0;
          y = 0.0;
          w = !max_x -. !min_x;
          h = !max_y -. !min_y;
        };
      partitions;
    }
  in
  Ggpu_obs.Metrics.count "layout.place.iterations" iterations;
  {
    floorplan;
    iterations;
    wirelength_init_mm = wl_init;
    wirelength_mm = wl_final;
    overflow;
    domains;
  }
