(** The `flowtraced` wire protocol: newline-delimited JSON.

    One request per line, one response line per request, in order. Every
    response carries a [status] that mirrors the CLI exit-code convention
    at the protocol level:

    {v
    status      exit  meaning
    "ok"        0     the operation ran to completion
    "error"     1     the request failed (bad input, unknown session, ...)
    "degraded"  3     an honest partial answer (budget expiry, anytime
                      tier, mining degradation)
    "busy"      3     load was shed before the work ran (admission
                      control); retry later — nothing was computed
    v}

    A malformed line — bytes that are not JSON, JSON that is not an
    object, a missing or unknown [op] — yields a per-request ["error"]
    response, never a daemon crash or a dropped connection. Responses
    contain no wall-clock values, so a resumed daemon answers the same
    request with the same bytes as an uninterrupted one. *)

open Flowtrace_core
module Json = Flowtrace_analysis.Json

(** Deterministic fault injection carried by a request; honored only when
    the daemon runs with [--chaos]. [c_fail] makes the first [c_fail]
    attempts of the request's supervised body raise (exercising retry +
    backoff); [c_delay_ms] sleeps before the body (occupying a shard so
    admission control can be driven into shedding on demand); [c_enospc]
    makes the session save fail as if the disk were full (driving the
    degraded-store path end to end over the wire). *)
type chaos = { c_fail : int; c_delay_ms : int; c_enospc : bool }

type op =
  | Ping
  | Status
  | Health  (** store health, session count, stale-temp sweep total *)
  | Shutdown
  | Open_session of {
      tenant : string;
      spec : string;  (** flow-spec text, as a [.flow] file would hold *)
      width : int;
      strategy : Select.strategy;
      instances : (string * int) list;  (** empty = one instance per flow *)
    }
  | Select_op of {
      width : int option;  (** override the session width for this request *)
      deadline_ms : int option;  (** relative per-request budget *)
      max_candidates : int option;
      pack : bool;
    }
  | Localize_op of {
      trace : string list;  (** indexed messages, ["1:ReqE"] style *)
      lossy : bool;
      skip_budget : int;
      width : int option;
    }
  | Mine_op of {
      trace_text : string;  (** a packet trace, as [simulate -o] writes it *)
      support : float option;
      min_count : int option;
    }
  | Close

type request = {
  rq_id : string option;  (** echoed verbatim in the response *)
  rq_session : string option;
  rq_op : op;
  rq_chaos : chaos option;
}

(** [op_name op] is the wire name ("open-session", "select", ...). *)
val op_name : op -> string

(** [needs_session op] — whether the op addresses one session. *)
val needs_session : op -> bool

(** [valid_session_id s] accepts 1-64 chars of [A-Za-z0-9._-] (session
    ids name journal files, so they must be path-safe). *)
val valid_session_id : string -> bool

(** [parse line] decodes one request line. [Error] is the message for the
    per-request error response. *)
val parse : string -> (request, string) result

type status = Sok | Sdegraded | Sbusy | Serror

val status_name : status -> string

(** The exit code the status mirrors (see the table above). *)
val status_exit : status -> int

(** The status a CLI exit code maps to: 0 ["ok"], 3 ["degraded"], else ["error"]. *)
val status_of_exit : int -> status

(** [response ?id ~op status fields] renders one response line (no
    trailing newline). Fields are emitted in the given order after the
    [id]/[op]/[status]/[exit] envelope — keep them deterministic. *)
val response : ?id:string -> op:string -> status -> (string * Json.t) list -> string

(** [error ?id ~op msg] = [response ?id ~op Serror ["error", String msg]]. *)
val error : ?id:string -> op:string -> string -> string

(** [busy ?id ~op msg] — the load-shedding response. *)
val busy : ?id:string -> op:string -> string -> string
