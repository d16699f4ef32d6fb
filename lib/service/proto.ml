open Flowtrace_core
module Json = Flowtrace_analysis.Json

type chaos = { c_fail : int; c_delay_ms : int; c_enospc : bool }

type op =
  | Ping
  | Status
  | Health
  | Shutdown
  | Open_session of {
      tenant : string;
      spec : string;
      width : int;
      strategy : Select.strategy;
      instances : (string * int) list;
    }
  | Select_op of {
      width : int option;
      deadline_ms : int option;
      max_candidates : int option;
      pack : bool;
    }
  | Localize_op of { trace : string list; lossy : bool; skip_budget : int; width : int option }
  | Mine_op of { trace_text : string; support : float option; min_count : int option }
  | Close

type request = {
  rq_id : string option;
  rq_session : string option;
  rq_op : op;
  rq_chaos : chaos option;
}

let op_name = function
  | Ping -> "ping"
  | Status -> "status"
  | Health -> "health"
  | Shutdown -> "shutdown"
  | Open_session _ -> "open-session"
  | Select_op _ -> "select"
  | Localize_op _ -> "localize"
  | Mine_op _ -> "mine"
  | Close -> "close"

let needs_session = function
  | Open_session _ | Select_op _ | Localize_op _ | Mine_op _ | Close -> true
  | Ping | Status | Health | Shutdown -> false

let valid_session_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let get_str obj key =
  match Json.member key obj with
  | None -> None
  | Some j -> (
      match Json.to_string_opt j with
      | Some s -> Some s
      | None -> fail "field %S must be a string" key)

let get_int obj key =
  match Json.member key obj with
  | None -> None
  | Some j -> (
      match Json.to_int_opt j with
      | Some n -> Some n
      | None -> fail "field %S must be an integer" key)

let get_float obj key =
  match Json.member key obj with
  | None -> None
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some _ -> fail "field %S must be a number" key

let get_bool obj key =
  match Json.member key obj with
  | None -> None
  | Some (Json.Bool b) -> Some b
  | Some _ -> fail "field %S must be a boolean" key

let get_strategy obj =
  let name = Option.value ~default:"exact" (get_str obj "strategy") in
  match Select.strategy_of_name name with
  | Some strategy -> strategy
  | None -> fail "unknown strategy %S (exact, exact-maximal or greedy)" name

let get_instances obj =
  match Json.member "instances" obj with
  | None -> []
  | Some (Json.Obj kvs) ->
      List.map
        (fun (name, v) ->
          match Json.to_int_opt v with
          | Some n when n > 0 -> (name, n)
          | _ -> fail "instance count for %S must be a positive integer" name)
        kvs
  | Some _ -> fail "field \"instances\" must be an object of FLOW: COUNT"

let get_trace obj =
  match Json.member "trace" obj with
  | None -> fail "localize needs a \"trace\" array of \"IDX:NAME\" strings"
  | Some (Json.List items) ->
      List.map
        (fun j ->
          match Json.to_string_opt j with
          | Some s -> s
          | None -> fail "trace entries must be strings")
        items
  | Some _ -> fail "field \"trace\" must be an array"

let get_chaos obj =
  match Json.member "chaos" obj with
  | None -> None
  | Some (Json.Obj _ as c) ->
      let fail_n = Option.value ~default:0 (get_int c "fail") in
      let delay = Option.value ~default:0 (get_int c "delay_ms") in
      let enospc = Option.value ~default:false (get_bool c "enospc") in
      if fail_n < 0 || delay < 0 then fail "chaos fields must be non-negative";
      Some { c_fail = fail_n; c_delay_ms = delay; c_enospc = enospc }
  | Some _ -> fail "field \"chaos\" must be an object"

let decode_op obj = function
  | "ping" -> Ping
  | "status" -> Status
  | "health" -> Health
  | "shutdown" -> Shutdown
  | "open-session" ->
      let spec =
        match get_str obj "spec" with
        | Some s -> s
        | None -> fail "open-session needs a \"spec\" field (flow-spec text)"
      in
      let width = Option.value ~default:32 (get_int obj "width") in
      if width < 1 then fail "width must be positive";
      Open_session
        {
          tenant = Option.value ~default:"default" (get_str obj "tenant");
          spec;
          width;
          strategy = get_strategy obj;
          instances = get_instances obj;
        }
  | "select" ->
      Select_op
        {
          width = get_int obj "width";
          deadline_ms = get_int obj "deadline_ms";
          max_candidates = get_int obj "max_candidates";
          pack = Option.value ~default:true (get_bool obj "pack");
        }
  | "localize" ->
      Localize_op
        {
          trace = get_trace obj;
          lossy = Option.value ~default:false (get_bool obj "lossy");
          skip_budget = Option.value ~default:2 (get_int obj "skip_budget");
          width = get_int obj "width";
        }
  | "mine" ->
      let trace_text =
        match get_str obj "trace_text" with
        | Some s -> s
        | None -> fail "mine needs a \"trace_text\" field (packet-trace text)"
      in
      Mine_op
        { trace_text; support = get_float obj "support"; min_count = get_int obj "min_count" }
  | "close" -> Close
  | other -> fail "unknown op %S" other

let parse line =
  match Json.parse line with
  | Error m -> Error (Printf.sprintf "malformed request line: %s" m)
  | Ok (Json.Obj _ as obj) -> (
      try
        let op =
          match get_str obj "op" with
          | Some o -> decode_op obj o
          | None -> fail "request has no \"op\" field"
        in
        let session = get_str obj "session" in
        (match session with
        | Some s when not (valid_session_id s) ->
            fail "invalid session id %S (1-64 chars of A-Za-z0-9._-)" s
        | _ -> ());
        if needs_session op && session = None then
          fail "op %S needs a \"session\" field" (op_name op);
        Ok { rq_id = get_str obj "id"; rq_session = session; rq_op = op; rq_chaos = get_chaos obj }
      with Bad m -> Error m)
  | Ok _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Encoding *)

type status = Sok | Sdegraded | Sbusy | Serror

let status_name = function
  | Sok -> "ok"
  | Sdegraded -> "degraded"
  | Sbusy -> "busy"
  | Serror -> "error"

let status_exit = function Sok -> 0 | Sdegraded | Sbusy -> 3 | Serror -> 1
let status_of_exit = function 0 -> Sok | 3 -> Sdegraded | _ -> Serror

let response ?id ~op status fields =
  let envelope =
    (match id with Some i -> [ ("id", Json.String i) ] | None -> [])
    @ [
        ("op", Json.String op);
        ("status", Json.String (status_name status));
        ("exit", Json.Int (status_exit status));
      ]
  in
  Json.to_string (Json.Obj (envelope @ fields))

let error ?id ~op msg = response ?id ~op Serror [ ("error", Json.String msg) ]

let busy ?id ~op msg = response ?id ~op Sbusy [ ("error", Json.String msg) ]
