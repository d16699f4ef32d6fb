open Flowtrace_core
module Diagnostic = Flowtrace_analysis.Diagnostic
module Miner = Flowtrace_mining.Miner

type source = File of string | Text of string

let load_flows = function
  | File path -> (
      try Ok (Spec_parser.parse_file path) with
      | Spec_parser.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" path line message)
      | Sys_error m -> Error m)
  | Text text -> (
      try Ok (Spec_parser.parse_string text) with
      | Spec_parser.Parse_error { line; message } ->
          Error (Printf.sprintf "spec line %d: %s" line message))

let ( let* ) = Result.bind

let scenario source counts =
  let* flows = load_flows source in
  let* instances =
    match (flows, source) with
    | [], File path -> Error (Printf.sprintf "%s:1:1: specification declares no flows" path)
    | [], Text _ -> Error "specification declares no flows"
    | flows, _ -> Interleave.instances flows counts
  in
  try Ok (Interleave.make instances, List.length instances) with
  | Interleave.Not_legally_indexed m | Interleave.Message_clash m -> Error m
  | Interleave.Too_large n -> Error (Printf.sprintf "interleaving exceeds %d states" n)

type error = Invalid of string | Failed of string | Too_many of { limit : int; width : int }

let message = function
  | Invalid m | Failed m -> m
  | Too_many { limit; width } ->
      Printf.sprintf "Step-1 enumeration exceeded %d candidate combinations at width %d" limit
        width

let guard ~buffer_width f =
  if buffer_width < 1 then Error (Invalid "width must be positive")
  else
    match f () with
    | v -> Ok v
    | exception Combination.Too_many limit -> Error (Too_many { limit; width = buffer_width })
    | exception Invalid_argument m -> Error (Failed m)

type observation = Tokens of string list | Packets of Indexed.t list

exception Bad_token of string

(* "IDX:NAME" tokens; empty ones (runs of blanks) are skipped *)
let indexed_of_tokens tokens =
  let parse tok =
    match String.index_opt tok ':' with
    | None -> raise_notrace (Bad_token tok)
    | Some i -> (
        match int_of_string_opt (String.sub tok 0 i) with
        | Some inst when inst >= 0 ->
            Indexed.make (String.sub tok (i + 1) (String.length tok - i - 1)) inst
        | _ -> raise_notrace (Bad_token tok))
  in
  try Ok (List.filter_map (fun tok -> if tok = "" then None else Some (parse tok)) tokens)
  with Bad_token tok ->
    Error (Invalid (Printf.sprintf "bad indexed message %S (want IDX:NAME)" tok))

type localized = {
  selection : Select.result;
  consistent : int;
  total : int;
  fraction : float;
  lossy : Localize.lossy_report option;
}

let localize ?strategy ?kernel inter ~buffer_width ~lossy ~skip_budget observation =
  let* tokens =
    if buffer_width < 1 then Error (Invalid "width must be positive")
    else if skip_budget < 0 then Error (Invalid "skip_budget must be non-negative")
    else match observation with Tokens tokens -> indexed_of_tokens tokens | Packets _ -> Ok []
  in
  let* selection =
    guard ~buffer_width (fun () -> Select.select ?strategy ?kernel inter ~buffer_width)
  in
  let selected = Select.is_observable selection in
  let observed =
    match observation with
    | Tokens _ -> tokens
    | Packets packets -> Localize.project ~selected packets
  in
  let total = Interleave.total_paths inter in
  let consistent, fraction, lossy =
    if lossy then
      let r = Localize.lossy ~semantics:Localize.Prefix ~skip_budget inter ~selected ~observed in
      (r.Localize.lr_consistent, Localize.lossy_fraction r, Some r)
    else
      let c = Localize.consistent_paths ~semantics:Localize.Prefix inter ~selected ~observed in
      (c, float_of_int c /. float_of_int (max 1 total), None)
  in
  Ok { selection; consistent; total; fraction; lossy }

let mine ?support ?min_count ?default_width ?catalog ~file traces =
  let d = Miner.default_config in
  let config =
    {
      d with
      Miner.support = Option.value ~default:d.Miner.support support;
      min_count = Option.value ~default:d.Miner.min_count min_count;
      default_width = Option.value ~default:d.Miner.default_width default_width;
    }
  in
  try Ok (Miner.mine ~config ?catalog ~file traces) with Invalid_argument m -> Error m

let mine_exit_code diags = Diagnostic.exit_code ~degraded:(Miner.degraded diags) diags
