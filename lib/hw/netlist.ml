(* A flat structural netlist: nets, cells, primary ports.

   The netlist is the mutable object the planner operates on: the RTL
   generator builds it, synthesis analyses it, and the design-space
   exploration rewrites it (memory division, pipeline insertion).  Driver
   and fanout indices are maintained incrementally so transforms stay
   cheap on 10^5-cell designs. *)

type change = {
  cells : int list; (* cell ids added, removed or rewired *)
  nets : int list; (* net ids whose driver changed *)
}

type t = {
  name : string;
  nets : (int, Net.t) Hashtbl.t;
  cells : (int, Cell.t) Hashtbl.t;
  driver : (int, int) Hashtbl.t; (* net id -> driving cell id *)
  fanout : (int, int list) Hashtbl.t; (* net id -> reading cell ids *)
  mutable inputs : Net.t list;
  mutable outputs : Net.t list;
  mutable next_net : int;
  mutable next_cell : int;
  mutable pipeline_regs : int; (* pipeline stages inserted by the planner *)
  mutable revision : int; (* bumped on every mutation *)
  mutable journal : (int * change) list; (* newest first *)
  mutable journal_len : int;
  mutable journal_floor : int; (* revisions <= floor have been dropped *)
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let create ~name =
  {
    name;
    nets = Hashtbl.create 1024;
    cells = Hashtbl.create 1024;
    driver = Hashtbl.create 1024;
    fanout = Hashtbl.create 1024;
    inputs = [];
    outputs = [];
    next_net = 0;
    next_cell = 0;
    pipeline_regs = 0;
    revision = 0;
    journal = [];
    journal_len = 0;
    journal_floor = 0;
  }

let name t = t.name
let net_count t = Hashtbl.length t.nets
let cell_count t = Hashtbl.length t.cells
let pipeline_regs t = t.pipeline_regs
let revision t = t.revision

(* An independent copy: future mutations of either netlist do not affect
   the other.  Net.t and Cell.t values are immutable and shared; the
   index tables are duplicated.  Much cheaper than re-elaborating, which
   makes it the tool for exploring several targets from one base design. *)
let copy t =
  {
    name = t.name;
    nets = Hashtbl.copy t.nets;
    cells = Hashtbl.copy t.cells;
    driver = Hashtbl.copy t.driver;
    fanout = Hashtbl.copy t.fanout;
    inputs = t.inputs;
    outputs = t.outputs;
    next_net = t.next_net;
    next_cell = t.next_cell;
    pipeline_regs = t.pipeline_regs;
    revision = t.revision;
    journal = t.journal; (* immutable entries; copies diverge by prepending *)
    journal_len = t.journal_len;
    journal_floor = t.journal_floor;
  }

(* Bound on the change journal: beyond this, the oldest half is dropped
   and consumers that far behind fall back to a full recompute. *)
let journal_cap = 65536

let log_change t ~cells ~nets =
  t.revision <- t.revision + 1;
  t.journal <- (t.revision, { cells; nets }) :: t.journal;
  t.journal_len <- t.journal_len + 1;
  if t.journal_len > journal_cap then begin
    let keep = journal_cap / 2 in
    let kept = ref [] and n = ref 0 and oldest = ref t.revision in
    List.iter
      (fun ((rev, _) as entry) ->
        if !n < keep then begin
          kept := entry :: !kept;
          oldest := rev;
          incr n
        end)
      t.journal;
    t.journal <- List.rev !kept;
    t.journal_len <- !n;
    t.journal_floor <- !oldest - 1
  end

let changes_since t since =
  if since >= t.revision then Some { cells = []; nets = [] }
  else if since < t.journal_floor then None
  else begin
    let cells = Hashtbl.create 64 and nets = Hashtbl.create 64 in
    let rec collect = function
      | (rev, (ch : change)) :: rest when rev > since ->
          List.iter (fun id -> Hashtbl.replace cells id ()) ch.cells;
          List.iter (fun id -> Hashtbl.replace nets id ()) ch.nets;
          collect rest
      | _ -> ()
    in
    collect t.journal;
    Some
      {
        cells = Hashtbl.fold (fun id () acc -> id :: acc) cells [];
        nets = Hashtbl.fold (fun id () acc -> id :: acc) nets [];
      }
  end

let add_net t ~name ~width =
  if width < 1 then invalid "net %s: width %d < 1" name width;
  let id = t.next_net in
  t.next_net <- id + 1;
  let net = Net.make ~id ~name ~width in
  Hashtbl.replace t.nets id net;
  log_change t ~cells:[] ~nets:[];
  net

let find_net t id =
  match Hashtbl.find_opt t.nets id with
  | Some net -> net
  | None -> invalid "unknown net id %d" id

let find_cell t id =
  match Hashtbl.find_opt t.cells id with
  | Some cell -> cell
  | None -> invalid "unknown cell id %d" id

let mem_cell t id = Hashtbl.mem t.cells id

let check_net_known t net =
  match Hashtbl.find_opt t.nets (Net.id net) with
  | Some n when Net.equal n net -> ()
  | Some _ | None -> invalid "net %a not part of netlist %s" (fun () n -> Format.asprintf "%a" Net.pp n) net t.name

let add_fanout t net cell_id =
  let nid = Net.id net in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.fanout nid) in
  Hashtbl.replace t.fanout nid (cell_id :: existing)

let remove_fanout t net cell_id =
  let nid = Net.id net in
  match Hashtbl.find_opt t.fanout nid with
  | None -> ()
  | Some ids ->
      (* remove one occurrence only: a cell may read the same net twice *)
      let rec drop = function
        | [] -> []
        | id :: rest -> if id = cell_id then rest else id :: drop rest
      in
      Hashtbl.replace t.fanout nid (drop ids)

let add_cell t ~name ~region ~kind ~inputs ~outputs ?(count = 1) () =
  List.iter (check_net_known t) inputs;
  List.iter (check_net_known t) outputs;
  List.iter
    (fun net ->
      if Hashtbl.mem t.driver (Net.id net) then
        invalid "net %s already driven (cell %s)" (Net.name net) name)
    outputs;
  let id = t.next_cell in
  t.next_cell <- id + 1;
  let cell = Cell.make ~id ~name ~region ~kind ~inputs ~outputs ~count in
  Hashtbl.replace t.cells id cell;
  List.iter (fun net -> Hashtbl.replace t.driver (Net.id net) id) outputs;
  List.iter (fun net -> add_fanout t net id) inputs;
  log_change t ~cells:[ id ] ~nets:(List.map Net.id outputs);
  cell

let remove_cell t cell =
  let id = Cell.id cell in
  if not (Hashtbl.mem t.cells id) then invalid "remove_cell: unknown cell %d" id;
  List.iter (fun net -> Hashtbl.remove t.driver (Net.id net)) (Cell.outputs cell);
  List.iter (fun net -> remove_fanout t net id) (Cell.inputs cell);
  Hashtbl.remove t.cells id;
  log_change t ~cells:[ id ] ~nets:(List.map Net.id (Cell.outputs cell))

(* Replace the input list of [cell], keeping indices intact. *)
let rewire_inputs t cell ~inputs =
  List.iter (check_net_known t) inputs;
  let id = Cell.id cell in
  if not (Hashtbl.mem t.cells id) then invalid "rewire_inputs: unknown cell %d" id;
  List.iter (fun net -> remove_fanout t net id) (Cell.inputs cell);
  let cell' =
    Cell.make ~id ~name:(Cell.name cell) ~region:(Cell.region cell)
      ~kind:(Cell.kind cell) ~inputs ~outputs:(Cell.outputs cell)
      ~count:(Cell.count cell)
  in
  Hashtbl.replace t.cells id cell';
  List.iter (fun net -> add_fanout t net id) inputs;
  log_change t ~cells:[ id ] ~nets:[];
  cell'

let set_inputs t nets =
  List.iter (check_net_known t) nets;
  t.inputs <- nets;
  log_change t ~cells:[] ~nets:[]

let set_outputs t nets =
  List.iter (check_net_known t) nets;
  t.outputs <- nets;
  log_change t ~cells:[] ~nets:[]

let inputs t = t.inputs
let outputs t = t.outputs

let driver_of t net =
  match Hashtbl.find_opt t.driver (Net.id net) with
  | None -> None
  | Some id -> Some (find_cell t id)

let readers_of t net =
  match Hashtbl.find_opt t.fanout (Net.id net) with
  | None -> []
  | Some ids -> List.map (find_cell t) ids

let iter_cells t f = Hashtbl.iter (fun _ cell -> f cell) t.cells

let fold_cells t ~init ~f =
  Hashtbl.fold (fun _ cell acc -> f acc cell) t.cells init

let iter_nets t f = Hashtbl.iter (fun _ net -> f net) t.nets

let fold_nets t ~init ~f =
  Hashtbl.fold (fun _ net acc -> f acc net) t.nets init

let cells t = fold_cells t ~init:[] ~f:(fun acc cell -> cell :: acc)
let nets t = fold_nets t ~init:[] ~f:(fun acc net -> net :: acc)

let macros t =
  fold_cells t ~init:[] ~f:(fun acc cell ->
      if Cell.is_macro cell then cell :: acc else acc)

(* Name lookups are used by the planner's map replay; names are unique
   by construction of the generator and the transforms. *)
let find_cell_by_name t name =
  let found = ref None in
  iter_cells t (fun cell ->
      if String.equal (Cell.name cell) name then found := Some cell);
  !found

let find_net_by_name t name =
  let found = ref None in
  iter_nets t (fun net ->
      if String.equal (Net.name net) name then found := Some net);
  !found

(* --- Validation ------------------------------------------------------ *)

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let primary_inputs =
    List.fold_left
      (fun acc net -> (Net.id net :: acc))
      [] t.inputs
  in
  let is_primary_input nid = List.mem nid primary_inputs in
  (* Every net read by a cell or exported must have a driver or be a
     primary input. *)
  iter_nets t (fun net ->
      let nid = Net.id net in
      let read =
        (match Hashtbl.find_opt t.fanout nid with
        | Some (_ :: _) -> true
        | Some [] | None -> false)
        || List.exists (fun o -> Net.id o = nid) t.outputs
      in
      if read && (not (Hashtbl.mem t.driver nid)) && not (is_primary_input nid)
      then err "net %s is read but undriven" (Net.name net));
  (* Primary inputs must not also be driven. *)
  List.iter
    (fun net ->
      if Hashtbl.mem t.driver (Net.id net) then
        err "primary input %s is driven internally" (Net.name net))
    t.inputs;
  (* Index consistency: each driver entry points to a cell that lists the
     net among its outputs. *)
  Hashtbl.iter
    (fun nid cid ->
      match Hashtbl.find_opt t.cells cid with
      | None -> err "driver index references missing cell %d" cid
      | Some cell ->
          if not (List.exists (fun o -> Net.id o = nid) (Cell.outputs cell))
          then err "driver index: cell %s does not drive net %d" (Cell.name cell) nid)
    t.driver;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

(* --- Structural statistics ------------------------------------------- *)

type stats = {
  ff_bits : int;
  comb_gates : int;
  macro_count : int;
  macro_bits : int;
  cell_instances : int;
}

let stats t =
  fold_cells t
    ~init:
      {
        ff_bits = 0;
        comb_gates = 0;
        macro_count = 0;
        macro_bits = 0;
        cell_instances = 0;
      }
    ~f:(fun acc cell ->
      let count = Cell.count cell in
      match Cell.kind cell with
      | Cell.Dff ->
          {
            acc with
            ff_bits = acc.ff_bits + Cell.ff_bits cell;
            cell_instances = acc.cell_instances + count;
          }
      | Cell.Comb _ ->
          {
            acc with
            comb_gates = acc.comb_gates + Cell.comb_gates cell;
            cell_instances = acc.cell_instances + count;
          }
      | Cell.Macro spec ->
          {
            acc with
            macro_count = acc.macro_count + count;
            macro_bits = acc.macro_bits + (Macro_spec.total_bits spec * count);
            cell_instances = acc.cell_instances + count;
          })

(* --- Planner transforms ---------------------------------------------- *)

(* Divide macro [cell] into [banks] banks addressed by the MSBs of the
   original address: bank macros in parallel, a decoder on the spare
   address bits, and one output multiplexer per original output net.  The
   original macro is removed; its output nets are re-driven by the mux.
   This is the paper's "division by number of words" with its "small extra
   logic ... MUXes to switch between block memories". *)
let split_macro_words t cell ~banks =
  let spec =
    match Cell.macro_spec cell with
    | Some spec -> spec
    | None -> invalid "split_macro_words: %s is not a macro" (Cell.name cell)
  in
  let bank_spec = Macro_spec.split_words spec ~banks in
  let region = Cell.region cell in
  let base = Cell.name cell in
  let count = Cell.count cell in
  let inputs = Cell.inputs cell in
  let outputs = Cell.outputs cell in
  remove_cell t cell;
  let sel =
    add_net t ~name:(base ^ "/bank_sel") ~width:(max 1 (Op.clog2 banks))
  in
  let addr_net =
    match inputs with
    | [] -> invalid "split_macro_words: macro %s has no address input" base
    | net :: _ -> net
  in
  let _decode =
    add_cell t ~name:(base ^ "/bank_dec") ~region ~kind:(Cell.Comb Op.Decode)
      ~inputs:[ addr_net ] ~outputs:[ sel ] ~count ()
  in
  let bank_outputs =
    List.init banks (fun b ->
        let outs =
          List.map
            (fun out ->
              add_net t
                ~name:(Printf.sprintf "%s/bank%d/%s" base b (Net.name out))
                ~width:(Net.width out))
            outputs
        in
        let _bank =
          add_cell t
            ~name:(Printf.sprintf "%s/bank%d" base b)
            ~region ~kind:(Cell.Macro bank_spec) ~inputs ~outputs:outs ~count ()
        in
        outs)
  in
  List.iteri
    (fun i out ->
      let per_bank = List.map (fun outs -> List.nth outs i) bank_outputs in
      let _mux =
        add_cell t
          ~name:(Printf.sprintf "%s/mux%d" base i)
          ~region
          ~kind:(Cell.Comb (Op.Mux banks))
          ~inputs:(sel :: per_bank) ~outputs:[ out ] ~count ()
      in
      ())
    outputs

(* Divide macro [cell] into [slices] narrower macros operating in
   parallel on bit slices; outputs are concatenated through a buffer
   (near-zero logic).  This is the paper's "division by size of the
   word". *)
let split_macro_bits t cell ~slices =
  let spec =
    match Cell.macro_spec cell with
    | Some spec -> spec
    | None -> invalid "split_macro_bits: %s is not a macro" (Cell.name cell)
  in
  let slice_spec = Macro_spec.split_bits spec ~slices in
  let region = Cell.region cell in
  let base = Cell.name cell in
  let count = Cell.count cell in
  let inputs = Cell.inputs cell in
  let outputs = Cell.outputs cell in
  remove_cell t cell;
  let slice_outputs =
    List.init slices (fun s ->
        let outs =
          List.map
            (fun out ->
              let width = max 1 (Net.width out / slices) in
              add_net t
                ~name:(Printf.sprintf "%s/slice%d/%s" base s (Net.name out))
                ~width)
            outputs
        in
        let _slice =
          add_cell t
            ~name:(Printf.sprintf "%s/slice%d" base s)
            ~region ~kind:(Cell.Macro slice_spec) ~inputs ~outputs:outs ~count
            ()
        in
        outs)
  in
  List.iteri
    (fun i out ->
      let per_slice = List.map (fun outs -> List.nth outs i) slice_outputs in
      let _concat =
        add_cell t
          ~name:(Printf.sprintf "%s/cat%d" base i)
          ~region ~kind:(Cell.Comb Op.Buf) ~inputs:per_slice ~outputs:[ out ]
          ~count ()
      in
      ())
    outputs

(* Insert a pipeline register on [net]: all current readers (and the
   primary-output role, if any) move to the registered copy.  Returns the
   new net.  This is the paper's "on-demand pipeline insertion"; the
   caller is responsible for accounting for the added latency. *)
let insert_pipeline t net =
  check_net_known t net;
  (* a cell reading [net] on several pins appears once per pin in the
     fanout index; rewire it once (the rewire substitutes every pin) *)
  let readers =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun cell ->
        let id = Cell.id cell in
        if Hashtbl.mem seen id then false
        else begin
          Hashtbl.add seen id ();
          true
        end)
      (readers_of t net)
  in
  let staged =
    add_net t ~name:(Net.name net ^ "/pipe") ~width:(Net.width net)
  in
  let reg_count =
    match driver_of t net with None -> 1 | Some cell -> Cell.count cell
  in
  let _dff =
    add_cell t
      ~name:(Net.name net ^ "/pipe_reg")
      ~region:
        (match driver_of t net with
        | Some cell -> Cell.region cell
        | None -> "top")
      ~kind:Cell.Dff ~inputs:[ net ] ~outputs:[ staged ] ~count:reg_count ()
  in
  List.iter
    (fun cell ->
      let inputs =
        List.map
          (fun i -> if Net.equal i net then staged else i)
          (Cell.inputs cell)
      in
      ignore (rewire_inputs t cell ~inputs))
    readers;
  t.outputs <-
    List.map (fun o -> if Net.equal o net then staged else o) t.outputs;
  t.pipeline_regs <- t.pipeline_regs + 1;
  staged
