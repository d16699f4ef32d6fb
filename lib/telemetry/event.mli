(** The telemetry event vocabulary.

    Everything the runtime records is one of three event kinds:

    - a {!span}: a named wall-clock interval with parent/child nesting
      (one per {!Telemetry.with_span} exit),
    - a {!metric}: the value of a typed counter/gauge/histogram, emitted
      when the registry is flushed,
    - a [Meta] header carrying run-level key/values (emitted once at sink
      installation).

    Events have a canonical JSON object encoding ({!to_json}/{!of_json})
    used verbatim by the JSONL sink; the Chrome sink re-encodes the same
    events into the [trace_event] schema. Timestamps are microseconds of
    wall-clock time relative to the instant the sink was installed, so
    traces from different runs always start near 0. *)

(** Argument values attachable to spans and [Meta] headers. *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** A completed span. [sp_parent] is the id of the enclosing span {e on
    the same domain}, if any; [sp_domain] is the integer id of the domain
    that ran it (worker spans of a parallel selection carry distinct
    domains). Durations are wall-clock microseconds. *)
type span = {
  sp_name : string;
  sp_id : int;  (** unique within a run, allocation order *)
  sp_parent : int option;
  sp_domain : int;
  sp_start_us : float;
  sp_dur_us : float;
  sp_args : (string * value) list;
}

type counter = { c_name : string; c_value : int }
type gauge = { g_name : string; g_value : float }

(** Histogram summary: observation count, sum, and extrema. The mean is
    [h_sum /. float_of_int h_count]. *)
type histogram = { h_name : string; h_count : int; h_sum : float; h_min : float; h_max : float }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = Meta of (string * value) list | Span of span | Metric of metric

val metric_name : metric -> string

(** Structural equality (safe here: all floats are finite). *)
val equal : t -> t -> bool

(** [value_to_json v] is the JSON leaf for one argument value. *)
val value_to_json : value -> Json.t

(** [to_json e] is the canonical JSON object: a ["type"] discriminator
    ([meta]/[span]/[counter]/[gauge]/[histogram]) plus the fields above.
    One such object per line is the JSONL sink format. *)
val to_json : t -> Json.t

(** [of_json j] inverts {!to_json}. [of_json (to_json e) = Ok e]. *)
val of_json : Json.t -> (t, string) result
