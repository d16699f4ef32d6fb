(** Diagnostics: positioned findings with stable rule codes.

    The reusable core of the [flowtrace] static analyses: a diagnostic
    carries a severity, a stable rule code, the source span of the
    offending element (threaded from {!Spec_parser}), the flow it
    concerns, and a human-readable message. Renderers produce
    compiler-style text ([file:line:col: severity[CODE]: message]) and a
    JSON report; the JSON parser inverts the renderer, so reports
    round-trip.

    {1 Code namespaces}

    Every diagnostic-emitting subsystem draws from one shared pool of
    stable codes, split by namespace prefix:
    - [FL0xx] — per-flow lint rules ([flowtrace lint], {!Lint});
    - [FC0xx] — whole-scenario debuggability checks ([flowtrace check],
      {!Check});
    - [RT0xx] — runtime/daemon conditions ({!Rt});
    - [TR0xx] — trace-ingest conditions.

    {1 Exit-code convention}

    Every diagnostic-emitting command ([lint], [check], and any future
    namespace) maps its report to a process exit status the same way:
    - [0] — clean: no error-severity diagnostics (warnings and notes may
      be present);
    - [1] — at least one error-severity diagnostic, including warnings
      promoted by [--werror] ({!promote_warnings});
    - [3] — degraded: the analysis could not complete (truncated path
      enumeration, expired deadline) and found no errors; the absence of
      findings must not be read as a clean bill.

    {!exit_code} implements the mapping; [2] is left to cmdliner for CLI
    usage errors. *)

open Flowtrace_core

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable rule code, e.g. ["FL004"] *)
  severity : severity;
  span : Srcspan.t;  (** position of the offending element *)
  flow : string option;  (** name of the flow concerned, if any *)
  message : string;
}

(** [make ~code ~severity ?flow span message] builds a diagnostic. *)
val make : code:string -> severity:severity -> ?flow:string -> Srcspan.t -> string -> t

val severity_to_string : severity -> string

(** [severity_of_string s] inverts [severity_to_string]. *)
val severity_of_string : string -> severity option

(** Order severities most severe first ([Error < Warning < Info]). *)
val compare_severity : severity -> severity -> int

(** Order diagnostics by span, then code, then message, then flow. *)
val compare : t -> t -> int

(** Report order, shared by every namespace: span, then severity (most
    severe first), then code, then message, then flow (no flow first).
    Unlike {!compare} it ranks severity so an error on a line precedes
    the line's notes. *)
val compare_report : t -> t -> int

(** [sort_report ds] sorts by {!compare_report} and drops exact
    duplicates — the canonical order of every rendered report, text or
    [--json], so output is deterministic across runs and rule evaluation
    order. Diagnostics differing only in [flow] are distinct: both stay. *)
val sort_report : t list -> t list

val equal : t -> t -> bool

(** [promote_warnings d] turns [Warning] into [Error] ([--werror]);
    [Info] is left alone. *)
val promote_warnings : t -> t

(** [count_errors ds] and friends tally by severity. *)
val count_errors : t list -> int

val count_warnings : t list -> int
val count_infos : t list -> int

(** [summary ds] is a one-line tally like ["2 errors, 1 warning, 3 notes"];
    ["clean"] when empty. *)
val summary : t list -> string

(** [render d] is the compiler-style one-line rendering. *)
val render : t -> string

(** [render_all ds] renders one diagnostic per line (trailing newline,
    empty string for no diagnostics). *)
val render_all : t list -> string

val to_json : t -> Json.t

(** [of_json j] inverts [to_json]. *)
val of_json : Json.t -> (t, string) result

(** [render_json ds] is the full JSON report: an object with a
    [diagnostics] array and a [summary] object of per-severity counts. *)
val render_json : t list -> string

(** [parse_json s] inverts [render_json]. *)
val parse_json : string -> (t list, string) result

(** [exit_code ?degraded ds] maps a report to the shared exit-code
    convention above: [1] when [ds] contains an error-severity
    diagnostic (apply {!promote_warnings} first for [--werror]), else
    [3] when [degraded], else [0]. *)
val exit_code : ?degraded:bool -> t list -> int

val pp : Format.formatter -> t -> unit
