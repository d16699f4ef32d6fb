open Flowtrace_core

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  span : Srcspan.t;
  flow : string option;
  message : string;
}

let make ~code ~severity ?flow span message = { code; severity; span; flow; message }

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

(* The last tie-break is the flow: two flows can raise the same code with
   the same message at the same span (a scenario-level span), and those
   are two diagnostics, not one. *)
let compare_flow a b = Option.compare String.compare a.flow b.flow

let compare a b =
  match Srcspan.compare a.span b.span with
  | 0 -> (
      match String.compare a.code b.code with
      | 0 -> ( match String.compare a.message b.message with 0 -> compare_flow a b | c -> c)
      | c -> c)
  | c -> c

let equal a b =
  String.equal a.code b.code && a.severity = b.severity && Srcspan.equal a.span b.span
  && Option.equal String.equal a.flow b.flow
  && String.equal a.message b.message

(* Report order: position, then severity (most severe first), then code,
   then message, then flow — shared by every namespace (FL/FC/RT) so text
   and --json output are deterministic and diffable across runs. *)
let compare_report a b =
  match Srcspan.compare a.span b.span with
  | 0 -> (
      match compare_severity a.severity b.severity with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 -> ( match String.compare a.message b.message with 0 -> compare_flow a b | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let sort_report ds = List.sort_uniq compare_report ds

let promote_warnings d = if d.severity = Warning then { d with severity = Error } else d

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let count_errors ds = count Error ds
let count_warnings ds = count Warning ds
let count_infos ds = count Info ds

let summary ds =
  if ds = [] then "clean"
  else
    let part n singular plural = if n = 1 then "1 " ^ singular else Printf.sprintf "%d %s" n plural in
    let parts =
      List.filter_map
        (fun (n, s, p) -> if n > 0 then Some (part n s p) else None)
        [
          (count_errors ds, "error", "errors");
          (count_warnings ds, "warning", "warnings");
          (count_infos ds, "note", "notes");
        ]
    in
    String.concat ", " parts

let render d =
  let flow = match d.flow with Some f -> Printf.sprintf " (flow %s)" f | None -> "" in
  Printf.sprintf "%s: %s[%s]: %s%s" (Srcspan.to_string d.span) (severity_to_string d.severity)
    d.code d.message flow

let render_all ds = String.concat "" (List.map (fun d -> render d ^ "\n") ds)

let to_json d =
  let base =
    [
      ("code", Json.String d.code);
      ("severity", Json.String (severity_to_string d.severity));
      ("file", Json.String d.span.Srcspan.file);
      ("line", Json.Int d.span.Srcspan.line);
      ("col", Json.Int d.span.Srcspan.col);
    ]
  in
  let flow = match d.flow with Some f -> [ ("flow", Json.String f) ] | None -> [] in
  Json.Obj (base @ flow @ [ ("message", Json.String d.message) ])

let of_json j =
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  let int key = Option.bind (Json.member key j) Json.to_int_opt in
  match (str "code", Option.bind (str "severity") severity_of_string, str "file", int "line", int "col", str "message") with
  | Some code, Some severity, Some file, Some line, Some col, Some message ->
      Stdlib.Ok { code; severity; span = Srcspan.make ~file ~line ~col; flow = str "flow"; message }
  | _ -> Stdlib.Error ("diagnostic object missing a required field: " ^ Json.to_string j)

let render_json ds =
  Json.to_string_pretty
    (Json.Obj
       [
         ("diagnostics", Json.List (List.map to_json ds));
         ( "summary",
           Json.Obj
             [
               ("errors", Json.Int (count_errors ds));
               ("warnings", Json.Int (count_warnings ds));
               ("infos", Json.Int (count_infos ds));
             ] );
       ])

let parse_json s =
  match Json.parse s with
  | Stdlib.Error m -> Stdlib.Error m
  | Stdlib.Ok j -> (
      match Option.bind (Json.member "diagnostics" j) Json.to_list_opt with
      | None -> Stdlib.Error "report has no diagnostics array"
      | Some items ->
          let rec go acc = function
            | [] -> Stdlib.Ok (List.rev acc)
            | item :: rest -> (
                match of_json item with
                | Stdlib.Ok d -> go (d :: acc) rest
                | Stdlib.Error m -> Stdlib.Error m)
          in
          go [] items)

(* The shared exit-code convention (see the .mli): found errors are a firm
   verdict even when truncated, but a degraded error-free run must not be
   mistaken for a clean one. *)
let exit_code ?(degraded = false) ds =
  if count_errors ds > 0 then 1 else if degraded then 3 else 0

let pp ppf d = Format.pp_print_string ppf (render d)
