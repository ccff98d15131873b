(** Minimal JSON value type with an emitter and a strict parser — just
    enough to write Chrome trace-event files and validate them again
    without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int n]'s bytes, without a format parse. *)

val escape : Buffer.t -> string -> unit
(** Append the body of a JSON string literal, without its quotes: the
    double quote and the backslash escaped, control characters as
    [\n], [\r], [\t] or [\u00XX], every other byte verbatim. *)

val write : Buffer.t -> t -> unit
val to_string : t -> string

val parse : string -> (t, string) result
(** Strict parse of a complete document; trailing garbage is an error.
    Numbers follow JSON's grammar (an optional minus, no leading [+] or
    zero, digits on both sides of a [.] and after an [e]) and must be
    finite; those without [.]/[e] that fit an [int] parse as [Int].  A
    [\u] escape takes exactly four hex digits. *)

val member : string -> t -> t option
(** [member key (Obj kvs)] is the value bound to [key], if any; [None]
    on non-objects. *)
