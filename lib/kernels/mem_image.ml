(* The memory image both simulator harnesses hand to their machine:
   buffers placed consecutively from [base_addr], 64-byte aligned,
   mimicking an OpenCL runtime allocating device buffers.  The machine
   runs in place on [mem]; results are read back out of it. *)

(* A launch's arguments as I32 words: each buffer's elements and each
   scalar's value. *)
type args = {
  buffers : (string * int array) list;
  scalars : (string * int) list;
}

(* [placed]: each buffer's name, byte address and length in words, in
   argument order. *)
type t = { mem : int array; placed : (string * int * int) list }

exception Setup_error of string

let align64 a = (a + 63) land lnot 63

(* Byte address the first buffer is placed at. *)
let base_addr = 0x1000

let build args =
  let addr = ref (align64 base_addr) in
  let placed =
    List.map
      (fun (name, data) ->
        let placed = !addr in
        addr := align64 (!addr + (4 * Array.length data));
        (name, placed, Array.length data))
      args.buffers
  in
  let needed_words =
    List.fold_left
      (fun acc (_, addr, len) -> Int.max acc ((addr / 4) + len))
      (base_addr / 4) placed
  in
  let mem = Array.make (needed_words + 64) 0 in
  List.iter2
    (fun (_, addr, len) (_, data) -> Array.blit data 0 mem (addr / 4) len)
    placed args.buffers;
  { mem; placed }

let mem t = t.mem

let params t args names =
  List.map
    (fun name ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) t.placed with
      | Some (_, addr, _) -> addr
      | None -> (
          match List.assoc_opt name args.scalars with
          | Some v -> v
          | None ->
              raise (Setup_error (Printf.sprintf "missing argument %s" name))))
    names

let buffers t =
  List.map
    (fun (name, addr, len) -> (name, Array.sub t.mem (addr / 4) len))
    t.placed

let find buffers name =
  match List.assoc_opt name buffers with
  | Some a -> a
  | None -> raise (Setup_error (Printf.sprintf "no such buffer %s" name))
