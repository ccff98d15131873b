(* Rule-driven peephole pass over assembled FGPU programs.

   Operates after register allocation and assembly, where every cycle
   saved is a real issue slot.  The pass is safe against the
   simulator's dense/sparse divergence machinery by construction:

   - The program is first lifted back to {!Ggpu_isa.Fgpu_asm} items
     with a synthetic label at every branch/jump target.  Rewrite
     windows are maximal runs of pure straight-line ALU instructions
     (register ALU ops and load-immediates); labels, branches, jumps,
     loads, stores, barriers, specials and returns all terminate a
     window.  No rewrite therefore ever crosses a control-flow join,
     moves a memory access, or changes which lanes execute what — a
     divergent lane group re-executes the rewritten window exactly as
     it would have the original, and reconvergence points (labels) keep
     their relative order so the min-PC policy still reconverges.
     Re-assembly recomputes every branch offset and jump target, so
     shrinking a window can never break control flow.

   - Rules only fire where their clobber registers are dead: a
     backward liveness analysis over the item graph (branch edges
     included) proves no later instruction on any path reads the
     registers whose final values the rewrite changes.  Registers not
     in the clobber set are left bit-identical by the rule's
     verification, so the rewritten program's lane-visible semantics
     are unchanged.

   Classic window rewrites (algebraic no-op elimination) run alongside
   the mined table.  Applications strictly decrease the program's
   static cycle cost, so the fixpoint terminates. *)

open Ggpu_isa

type report = {
  applied : (Rule.t * int) list; (* rule, number of times it fired *)
  nops_removed : int;
  saved_cycles : int; (* static estimate under the cost model *)
}

let empty_report = { applied = []; nops_removed = 0; saved_cycles = 0 }

(* --- program <-> items ------------------------------------------------ *)

let label_of pc = Printf.sprintf "pc%d" pc

let items_of_program (prog : Fgpu_isa.t array) =
  let n = Array.length prog in
  let target = Array.make (n + 1) false in
  Array.iteri
    (fun pc insn ->
      match insn with
      | Fgpu_isa.Branch (_, _, _, off) ->
          let t = pc + 1 + off in
          if t >= 0 && t <= n then target.(t) <- true
      | Fgpu_isa.Jump t -> if t >= 0 && t <= n then target.(t) <- true
      | _ -> ())
    prog;
  let items = ref [] in
  Array.iteri
    (fun pc insn ->
      if target.(pc) then items := Fgpu_asm.Label (label_of pc) :: !items;
      let item =
        match insn with
        | Fgpu_isa.Branch (c, rs1, rs2, off) ->
            Fgpu_asm.Branch_to (c, rs1, rs2, label_of (pc + 1 + off))
        | Fgpu_isa.Jump t -> Fgpu_asm.Jump_to (label_of t)
        | i -> Fgpu_asm.I i
      in
      items := item :: !items)
    prog;
  if target.(n) then items := Fgpu_asm.Label (label_of n) :: !items;
  List.rev !items

(* --- liveness --------------------------------------------------------- *)

let bit r = if r = 0 then 0 else 1 lsl r

let use_def = function
  | Fgpu_asm.I (Fgpu_isa.Alu (_, d, a, b)) -> (bit a lor bit b, bit d)
  | Fgpu_asm.I (Fgpu_isa.Alui (_, d, a, _)) -> (bit a, bit d)
  | Fgpu_asm.I (Fgpu_isa.Lui (d, _) | Fgpu_isa.Li (d, _)) -> (0, bit d)
  | Fgpu_asm.Li32 (d, _) -> (0, bit d)
  | Fgpu_asm.I (Fgpu_isa.Lw (d, a, _)) -> (bit a, bit d)
  | Fgpu_asm.I (Fgpu_isa.Sw (v, a, _)) -> (bit v lor bit a, 0)
  | Fgpu_asm.I (Fgpu_isa.Branch (_, a, b, _)) | Fgpu_asm.Branch_to (_, a, b, _)
    ->
      (bit a lor bit b, 0)
  | Fgpu_asm.I (Fgpu_isa.Special (_, d)) -> (0, bit d)
  | Fgpu_asm.I (Fgpu_isa.Jump _ | Fgpu_isa.Barrier | Fgpu_isa.Ret)
  | Fgpu_asm.Jump_to _ | Fgpu_asm.Label _ ->
      (0, 0)

(* live_out per item index, as a register bitmask.  Backward dataflow
   to fixpoint over the item-level control-flow graph; items lists are
   tens of entries, so the quadratic-ish iteration is immaterial. *)
let liveness (items : Fgpu_asm.item array) =
  let n = Array.length items in
  let label_idx = Hashtbl.create 16 in
  Array.iteri
    (fun i it ->
      match it with
      | Fgpu_asm.Label l -> Hashtbl.replace label_idx l i
      | _ -> ())
    items;
  let target l =
    match Hashtbl.find_opt label_idx l with Some j -> [ j ] | None -> []
  in
  (* raw I (Jump _)/I (Branch _) never survive items_of_program, which
     lifts them to *_to forms; treat them like their lifted versions
     anyway so the analysis stays total on arbitrary item lists *)
  let succs i =
    match items.(i) with
    | Fgpu_asm.Jump_to l -> target l
    | Fgpu_asm.I (Fgpu_isa.Jump _) | Fgpu_asm.I Fgpu_isa.Ret -> []
    | Fgpu_asm.Branch_to (_, _, _, l) ->
        let t = target l in
        if i + 1 < n then (i + 1) :: t else t
    | _ -> if i + 1 < n then [ i + 1 ] else []
  in
  let use = Array.make n 0 and def = Array.make n 0 in
  Array.iteri
    (fun i it ->
      let u, d = use_def it in
      use.(i) <- u;
      def.(i) <- d)
    items;
  let live_in = Array.make n 0 and live_out = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out = List.fold_left (fun acc j -> acc lor live_in.(j)) 0 (succs i) in
      let inn = use.(i) lor (out land lnot def.(i)) in
      if out <> live_out.(i) || inn <> live_in.(i) then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  live_out

(* --- window rewriting ------------------------------------------------- *)

let imm16_ok v = v >= -32768l && v <= 32767l

(* Items a rewrite window may contain: pure register-ALU work.  A
   narrow Li32 behaves exactly like Li; wide ones (two-instruction
   expansions) stay opaque. *)
let window_insn = function
  | Fgpu_asm.I ((Fgpu_isa.Alu _ | Fgpu_isa.Alui _ | Fgpu_isa.Li _ | Fgpu_isa.Lui _) as i)
    ->
      Some i
  | Fgpu_asm.Li32 (d, imm) when imm16_ok imm -> Some (Fgpu_isa.Li (d, imm))
  | _ -> None

(* Algebraic no-ops: d <- d op identity.  Deleting one changes no
   register, so no liveness condition is needed. *)
let is_nop = function
  | Fgpu_isa.Alui
      ( (Fgpu_isa.Add | Fgpu_isa.Sub | Fgpu_isa.Or | Fgpu_isa.Xor | Fgpu_isa.Sll
        | Fgpu_isa.Srl | Fgpu_isa.Sra),
        d,
        s,
        0l )
    when d = s && d <> 0 ->
      true
  | Fgpu_isa.Alu
      ( (Fgpu_isa.Add | Fgpu_isa.Sub | Fgpu_isa.Or | Fgpu_isa.Xor | Fgpu_isa.Sll
        | Fgpu_isa.Srl | Fgpu_isa.Sra),
        d,
        s,
        0 )
    when d = s && d <> 0 ->
      true
  | _ -> false

(* What matching compares literally in an instruction: its constructor
   and ALU op, plus the immediate of [Alui]/[Li]/[Lui].  A window can
   match a rule only if its first instruction has the head of the
   rule's first lhs instruction. *)
type head =
  | H_alu of Fgpu_isa.alu_op
  | H_alui of Fgpu_isa.alu_op * int32
  | H_li of int32
  | H_lui of int32

let head_of = function
  | Fgpu_isa.Alu (op, _, _, _) -> Some (H_alu op)
  | Fgpu_isa.Alui (op, _, _, imm) -> Some (H_alui (op, imm))
  | Fgpu_isa.Li (_, imm) -> Some (H_li imm)
  | Fgpu_isa.Lui (_, imm) -> Some (H_lui imm)
  | _ -> None

let bucket index h = Option.value ~default:[] (Hashtbl.find_opt index h)

(* The rules bucketed by the head of their lhs, each bucket in table
   order.  A rule whose lhs is empty or starts with anything else can
   never match a window and is left out. *)
let index_rules (rules : Rule.t list) =
  let index = Hashtbl.create 256 in
  List.iter
    (fun (rule : Rule.t) ->
      match rule.lhs with
      | first :: _ ->
          Option.iter
            (fun h -> Hashtbl.replace index h (rule :: bucket index h))
            (head_of first)
      | [] -> ())
    (List.rev rules);
  index

(* One rewriting pass over the item list.  Returns the new items and
   what changed; [None] if nothing fired. *)
let rewrite_pass ~index (items : Fgpu_asm.item list) =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let live_out = liveness arr in
  let fired = ref None in
  let i = ref 0 in
  while !fired = None && !i < n do
    let at = !i in
    (match window_insn arr.(at) with
    | Some insn when is_nop insn -> fired := Some (`Nop, at, 1, [])
    | Some insn ->
        (* try the rules anchored at [at] whose head matches, table
           order = priority *)
        let rules =
          match head_of insn with Some h -> bucket index h | None -> []
        in
        List.iter
          (fun (rule : Rule.t) ->
            if !fired = None then begin
              let k = List.length rule.lhs in
              if at + k <= n then begin
                (* collect k consecutive window instructions *)
                let window = ref [] and ok = ref true in
                for j = at to at + k - 1 do
                  match window_insn arr.(j) with
                  | Some ins -> window := ins :: !window
                  | None -> ok := false
                done;
                if !ok then
                  match Rule.match_window rule (List.rev !window) with
                  | Some theta ->
                      let dead_ok =
                        List.for_all
                          (fun v -> live_out.(at + k - 1) land bit theta.(v) = 0)
                          rule.clobbers
                      in
                      if dead_ok then
                        fired := Some (`Rule rule, at, k, Rule.instantiate rule theta)
                  | None -> ()
              end
            end)
          rules
    | None -> ());
    incr i
  done;
  match !fired with
  | None -> None
  | Some (what, at, k, replacement) ->
      let out = ref [] in
      Array.iteri
        (fun j it ->
          if j < at || j >= at + k then out := it :: !out
          else if j = at then
            List.iter (fun ins -> out := Fgpu_asm.I ins :: !out) replacement)
        arr;
      Some (what, List.rev !out)

let max_passes = 64

let optimise_items ?(cfg = Ggpu_fgpu.Config.default) ~rules items =
  let counts : (string, Rule.t * int ref) Hashtbl.t = Hashtbl.create 16 in
  let nops = ref 0 and saved = ref 0 in
  let index = index_rules rules in
  let rec fix items pass =
    if pass >= max_passes then items
    else
      match rewrite_pass ~index items with
      | None -> items
      | Some (what, items') ->
          (match what with
          | `Nop -> incr nops
          | `Rule r -> (
              saved := !saved + r.Rule.saved;
              let key = Rule.to_line r in
              match Hashtbl.find_opt counts key with
              | Some (_, c) -> incr c
              | None -> Hashtbl.add counts key (r, ref 1)));
          fix items' (pass + 1)
  in
  let items = fix items 0 in
  let applied =
    Hashtbl.fold (fun _ (r, c) acc -> (r, !c) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> compare (Rule.to_line a) (Rule.to_line b))
  in
  ignore cfg;
  (items, { applied; nops_removed = !nops; saved_cycles = !saved })

let optimise_program ?cfg ~rules (prog : Fgpu_isa.t array) =
  let items, report = optimise_items ?cfg ~rules (items_of_program prog) in
  (Fgpu_asm.assemble items, report)
