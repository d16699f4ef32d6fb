(** The one JSON tree, printer and parser of the code base.

    It lives in the telemetry library, below [flowtrace_core], so every
    layer can use it: the telemetry wire formats, the diagnostics'
    [--json] reports and the daemon protocol ([Flowtrace_analysis.Json]
    is an alias of this module). The parser accepts standard JSON
    (RFC 8259); [\uXXXX] escapes are decoded to UTF-8. The printer
    renders every finite float with a decimal point or an exponent, so
    [parse (to_string v) = Ok v] for every tree of finite floats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities print as [nan]/[inf], which is not JSON *)
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] renders compact single-line JSON (no newlines), so one
    value per line is exactly the JSONL framing. *)
val to_string : t -> string

(** [to_string_pretty v] renders with two-space indentation. *)
val to_string_pretty : t -> string

(** [parse s] parses one JSON value (surrounding whitespace allowed).
    A number that reads as an OCaml [int] is an [Int], any other a
    [Float]. *)
val parse : string -> (t, string) result

(** [member key v] looks up [key] in an object. *)
val member : string -> t -> t option

(** Accessors returning [None] on a type mismatch; [to_float_opt]
    accepts both [Int] and [Float] (JSON does not tell them apart). *)
val to_float_opt : t -> float option

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
