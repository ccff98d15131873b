(* Minimal JSON: emit and parse, no external dependency.  The emitter
   covers everything the tracer writes; the parser is strict enough that
   the CI trace checker actually vouches for well-formedness. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* [string_of_int]'s digits without its C format parse.  The digits are
   taken off the non-positive side, so [min_int] needs no special case. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else begin
        let s = Printf.sprintf "%.17g" f in
        Buffer.add_string buf s;
        (* an integral value below 1e17 prints as bare digits, which
           would read back as an [Int] *)
        if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s
        then Buffer.add_string buf ".0"
      end
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

exception Parse_error of string * int

(* The parser is a set of top-level functions over the input and one
   position cell, so a call allocates that cell and the values it
   returns: no closure, no option per peek, no buffer for a string
   without escapes. *)

let fail msg pos = raise (Parse_error (msg, pos))

let rec skip_ws s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws s (i + 1)
    | _ -> i
  else i

let expect s pos c =
  if !pos < String.length s && String.unsafe_get s !pos = c then incr pos
  else fail (Printf.sprintf "expected '%c'" c) !pos

(* [word] occurs in [s] at [i], from its [k]th byte on. *)
let rec occurs s i word k =
  k = String.length word
  || String.unsafe_get s (i + k) = String.unsafe_get word k
     && occurs s i word (k + 1)

let literal s pos word v =
  if !pos + String.length word <= String.length s && occurs s !pos word 0
  then begin
    pos := !pos + String.length word;
    v
  end
  else fail "bad literal" !pos

(* The first ['"'] or ['\\'] at or after [i], or the end of [s]. *)
let rec string_stop s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> string_stop s (i + 1)
  else i

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* The rest of a string body from [!pos], what came before it already
   in [buf]: runs without a backslash are copied whole. *)
let rec escaped s pos buf =
  let n = String.length s in
  let stop = string_stop s !pos in
  Buffer.add_substring buf s !pos (stop - !pos);
  if stop >= n then fail "unterminated string" stop;
  pos := stop + 1;
  if String.unsafe_get s stop = '"' then Buffer.contents buf
  else begin
    if !pos >= n then fail "truncated escape" !pos;
    (match String.unsafe_get s !pos with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'n' -> Buffer.add_char buf '\n'
    | 't' -> Buffer.add_char buf '\t'
    | 'r' -> Buffer.add_char buf '\r'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' ->
        if !pos + 4 >= n then fail "truncated \\u escape" !pos;
        let hex = String.sub s (!pos + 1) 4 in
        if not (String.for_all is_hex hex) then fail "bad \\u escape" !pos;
        let code = int_of_string ("0x" ^ hex) in
        (* non-ASCII: placeholder *)
        Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
        pos := !pos + 4
    | _ -> fail "unknown escape" !pos);
    incr pos;
    escaped s pos buf
  end

(* A string without escapes is one [String.sub]. *)
let string_lit s pos =
  expect s pos '"';
  let start = !pos in
  let stop = string_stop s start in
  if stop < String.length s && String.unsafe_get s stop = '"' then begin
    pos := stop + 1;
    String.sub s start (stop - start)
  end
  else escaped s pos (Buffer.create (stop - start + 16))

let is_num = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let rec num_stop s i =
  if i < String.length s && is_num (String.unsafe_get s i) then
    num_stop s (i + 1)
  else i

(* The value of the digits in [\[i, stop)], or -1 if one is not a digit.
   At most 18 digits, so the sum stays below [max_int]. *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

let rec skip_digits s i stop =
  if i < stop && String.unsafe_get s i >= '0' && String.unsafe_get s i <= '9'
  then skip_digits s (i + 1) stop
  else i

(* The end of a run of at least one digit from [i], or -1. *)
let some_digits s i stop =
  let j = skip_digits s i stop in
  if j > i then j else -1

(* [s] from [start] to [stop] is a JSON number: an optional minus, a
   lone zero or digits not starting with one, then optionally a point
   and digits, then optionally an exponent, its sign and digits. *)
let is_number s start stop =
  let at i c = i >= 0 && i < stop && String.unsafe_get s i = c in
  let i = if at start '-' then start + 1 else start in
  let i = if at i '0' then i + 1 else some_digits s i stop in
  let i = if at i '.' then some_digits s (i + 1) stop else i in
  let i =
    if not (at i 'e' || at i 'E') then i
    else if at (i + 1) '+' || at (i + 1) '-' then some_digits s (i + 2) stop
    else some_digits s (i + 1) stop
  in
  i = stop

let number s pos =
  let start = !pos in
  let stop = num_stop s start in
  pos := stop;
  let first =
    if stop > start && String.unsafe_get s start = '-' then start + 1
    else start
  in
  (* the integer fast path: up to 18 digits, no leading zero *)
  let v =
    if
      stop > first
      && stop - first <= 18
      && (String.unsafe_get s first <> '0' || stop - first = 1)
    then digits s first stop 0
    else -1
  in
  if v >= 0 then Int (if first > start then -v else v)
  else
    let tok = String.sub s start (stop - start) in
    let bad () = fail (Printf.sprintf "bad number %S" tok) stop in
    if not (is_number s start stop) then bad ()
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f when Float.is_finite f -> Float f
          | Some _ | None -> bad ())

let rec value s pos =
  let i = skip_ws s !pos in
  pos := i;
  if i >= String.length s then fail "unexpected end of input" i;
  match String.unsafe_get s i with
  | '{' ->
      let j = skip_ws s (i + 1) in
      if j < String.length s && String.unsafe_get s j = '}' then begin
        pos := j + 1;
        Obj []
      end
      else begin
        pos := j;
        Obj (members s pos [])
      end
  | '[' ->
      let j = skip_ws s (i + 1) in
      if j < String.length s && String.unsafe_get s j = ']' then begin
        pos := j + 1;
        List []
      end
      else begin
        pos := j;
        List (elements s pos [])
      end
  | '"' -> String (string_lit s pos)
  | 't' -> literal s pos "true" (Bool true)
  | 'f' -> literal s pos "false" (Bool false)
  | 'n' -> literal s pos "null" Null
  | _ -> number s pos

and members s pos acc =
  pos := skip_ws s !pos;
  let key = string_lit s pos in
  pos := skip_ws s !pos;
  expect s pos ':';
  let v = value s pos in
  let i = skip_ws s !pos in
  pos := i;
  let acc = (key, v) :: acc in
  if i < String.length s && String.unsafe_get s i = ',' then begin
    incr pos;
    members s pos acc
  end
  else if i < String.length s && String.unsafe_get s i = '}' then begin
    incr pos;
    List.rev acc
  end
  else fail "expected ',' or '}'" i

and elements s pos acc =
  let v = value s pos in
  let i = skip_ws s !pos in
  pos := i;
  let acc = v :: acc in
  if i < String.length s && String.unsafe_get s i = ',' then begin
    incr pos;
    elements s pos acc
  end
  else if i < String.length s && String.unsafe_get s i = ']' then begin
    incr pos;
    List.rev acc
  end
  else fail "expected ',' or ']'" i

let parse s =
  let pos = ref 0 in
  match value s pos with
  | v ->
      let i = skip_ws s !pos in
      if i <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" i)
      else Ok v
  | exception Parse_error (msg, p) ->
      Error (Printf.sprintf "%s at offset %d" msg p)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
