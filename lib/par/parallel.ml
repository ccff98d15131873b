(* Domain pool for the embarrassingly parallel parts of the flow.

   The version grid (12 Table-I syntheses, 4 physical implementations)
   gives every spec its own freshly generated netlist, and the tech
   models are immutable, so specs can run on separate OCaml 5 domains
   with no shared mutable state.  Work is pulled off an atomic counter
   (work stealing) because syntheses have very uneven cost — the 8-CU
   versions dominate — and a static partition would leave domains
   idle. *)

let default_domains () = Domain.recommended_domain_count ()

(* The requested domain count, or the default.  A count below 1 is a
   caller's error, never a request for one domain. *)
let domain_count who = function
  | None -> default_domains ()
  | Some d when d < 1 ->
      invalid_arg (Printf.sprintf "%s: domain count %d below 1" who d)
  | Some d -> d

(* Worker-side span capture: which domain ran an item, when, for how
   long.  Captured inside the application itself — the only place that
   knows the stealing outcome — so the serve engine can turn each
   fan-out item into an execution span on the worker's own timeline. *)
type timing = { t_start_ns : int; t_dur_ns : int; t_domain : int }

let timed_apply f x =
  let t0 = Ggpu_obs.Metrics.now_ns () in
  let v = f x in
  let t1 = Ggpu_obs.Metrics.now_ns () in
  ( v,
    {
      t_start_ns = t0;
      t_dur_ns = max 0 (t1 - t0);
      t_domain = (Domain.self () :> int);
    } )

(* One fan-out: [n] items pulled off [next] by whoever gets there
   first; each completed item bumps [completed], and whoever completes
   the last one broadcasts the owner's condition variable. *)
type job = {
  run : int -> unit;  (* must not raise: failures land in the results *)
  n : int;
  next : int Atomic.t;
  completed : int Atomic.t;
}

let work_job ~m ~done_cv job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      job.run i;
      if Atomic.fetch_and_add job.completed 1 = job.n - 1 then begin
        Mutex.lock m;
        Condition.broadcast done_cv;
        Mutex.unlock m
      end;
      go ()
    end
  in
  go ()

(* Run [f] over [xs] with [participants] domains pulling work: the
   caller plus each domain in [workers] that is parked on [submit].
   [submit] installs the job where workers can see it; [None] means
   run everything on the caller (no workers). *)
let run_map ~submit ~m ~done_cv f xs =
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  let results = Array.make n None in
  let run i =
    results.(i) <-
      (match f inputs.(i) with
      | v -> Some (Ok v)
      | exception e -> Some (Error e))
  in
  let job = { run; n; next = Atomic.make 0; completed = Atomic.make 0 } in
  submit job;
  work_job ~m ~done_cv job;
  Mutex.lock m;
  while Atomic.get job.completed < n do
    Condition.wait done_cv m
  done;
  Mutex.unlock m;
  (* re-raise the first failure in input order, as sequential map would *)
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error e) -> raise e
       | None -> assert false)

module Pool = struct
  type t = {
    n_domains : int;  (* workers + the participating caller *)
    m : Mutex.t;
    cv : Condition.t;  (* wakes parked workers: new job or stop *)
    done_cv : Condition.t;  (* wakes the caller: job drained *)
    mutable gen : int;  (* bumped per job so workers never re-run one *)
    mutable job : job option;
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  let worker t () =
    let rec loop last_gen =
      Mutex.lock t.m;
      while (not t.stop) && t.gen = last_gen do
        Condition.wait t.cv t.m
      done;
      if t.stop then Mutex.unlock t.m
      else begin
        let gen = t.gen in
        let job = Option.get t.job in
        Mutex.unlock t.m;
        work_job ~m:t.m ~done_cv:t.done_cv job;
        loop gen
      end
    in
    loop 0

  let create ?domains () =
    let n_domains = domain_count "Parallel.Pool.create" domains in
    let t =
      {
        n_domains;
        m = Mutex.create ();
        cv = Condition.create ();
        done_cv = Condition.create ();
        gen = 0;
        job = None;
        stop = false;
        workers = [];
      }
    in
    t.workers <- List.init (n_domains - 1) (fun _ -> Domain.spawn (worker t));
    t

  let size t = t.n_domains

  let map t f xs =
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Parallel.Pool.map: pool is shut down"
    end;
    Mutex.unlock t.m;
    if t.n_domains <= 1 || List.length xs <= 1 then List.map f xs
    else
      let submit job =
        Mutex.lock t.m;
        t.job <- Some job;
        t.gen <- t.gen + 1;
        Condition.broadcast t.cv;
        Mutex.unlock t.m
      in
      run_map ~submit ~m:t.m ~done_cv:t.done_cv f xs

  let shutdown t =
    Mutex.lock t.m;
    let already = t.stop in
    t.stop <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    if not already then begin
      List.iter Domain.join t.workers;
      t.workers <- []
    end

  let map_timed t f xs = map t (timed_apply f) xs

  (* map_collect defined below, after the snapshot-merging helper *)
  let map_collect_with map_fn f xs =
    let pairs =
      map_fn
        (fun x ->
          let reg = Ggpu_obs.Metrics.create () in
          let v = f reg x in
          (v, Ggpu_obs.Metrics.snapshot reg))
        xs
    in
    let values = List.map fst pairs in
    let merged = Ggpu_obs.Metrics.merge_all (List.map snd pairs) in
    (values, merged)

  let map_collect t f xs = map_collect_with (map t) f xs
end

let map ?domains f xs =
  let n = List.length xs in
  let workers = min n (domain_count "Parallel.map" domains) in
  if workers <= 1 then List.map f xs
  else begin
    (* transient pool: spawn, run the one job, join — the historical
       behaviour, kept for one-shot grids *)
    let m = Mutex.create () in
    let done_cv = Condition.create () in
    let pending = ref None in
    let spawned = ref [] in
    let submit job =
      pending := Some job;
      spawned :=
        List.init (workers - 1) (fun _ ->
            Domain.spawn (fun () -> work_job ~m ~done_cv job))
    in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !spawned)
      (fun () ->
        let r = run_map ~submit ~m ~done_cv f xs in
        ignore !pending;
        r)
  end

(* Parallel map that also collects metrics.  Each item gets a fresh
   registry, so the merged snapshot is a fold over per-item snapshots in
   input order — independent of which domain stole which item.  Metric
   values are integral (see {!Ggpu_obs.Metrics}), so the merge is
   associative and commutative and the result is bit-identical for any
   domain count. *)
let map_collect ?domains f xs = Pool.map_collect_with (map ?domains) f xs
