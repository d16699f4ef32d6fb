open Flowtrace_core
module Diagnostic = Flowtrace_analysis.Diagnostic
module Rt = Flowtrace_analysis.Rt
module Journal = Flowtrace_runtime.Journal
module Vfs = Flowtrace_runtime.Vfs

type session = {
  se_id : string;
  se_tenant : string;
  se_width : int;
  se_strategy : Select.strategy;
  se_instances : (string * int) list;
  se_spec : string;
}

let kind = "session"

let file_of ~dir id = Filename.concat dir ("session-" ^ id ^ ".ckpt")

(* Newlines cannot appear in a Log record; the spec and tenant are
   arbitrary request text, so escape them. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
       incr i
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let save ?(vfs = Vfs.passthrough) ~dir s =
  let records =
    [
      "id " ^ s.se_id;
      "tenant " ^ escape s.se_tenant;
      Printf.sprintf "width %d" s.se_width;
      "strategy " ^ Select.strategy_name s.se_strategy;
    ]
    @ List.map (fun (name, n) -> Printf.sprintf "inst %s %d" name n) s.se_instances
    (* last on purpose: a torn tail loses the spec first, and a session
       without its spec is dropped whole rather than resumed half-built *)
    @ [ "spec " ^ escape s.se_spec ]
  in
  Journal.Log.write ~vfs ~path:(file_of ~dir s.se_id) ~kind records

let remove ?(vfs = Vfs.passthrough) ~dir id =
  let path = file_of ~dir id in
  if vfs.Vfs.exists path then vfs.Vfs.unlink path

let split_record r =
  match String.index_opt r ' ' with
  | None -> (r, "")
  | Some i -> (String.sub r 0 i, String.sub r (i + 1) (String.length r - i - 1))

let of_records ~path records =
  let id = ref None
  and tenant = ref "default"
  and width = ref 32
  and strategy = ref Select.Exact
  and instances = ref []
  and spec = ref None
  and bad = ref None in
  List.iter
    (fun r ->
      if !bad = None then
        let key, rest = split_record r in
        match key with
        | "id" -> id := Some rest
        | "tenant" -> tenant := unescape rest
        | "width" -> (
            match int_of_string_opt rest with
            | Some w when w > 0 -> width := w
            | _ -> bad := Some (Printf.sprintf "bad width record %S" rest))
        | "strategy" -> (
            match Select.strategy_of_name rest with
            | Some s -> strategy := s
            | None -> bad := Some (Printf.sprintf "bad strategy record %S" rest))
        | "inst" -> (
            match split_record rest with
            | name, n when name <> "" -> (
                match int_of_string_opt n with
                | Some n when n > 0 -> instances := (name, n) :: !instances
                | _ -> bad := Some (Printf.sprintf "bad instance record %S" rest))
            | _ -> bad := Some (Printf.sprintf "bad instance record %S" rest))
        | "spec" -> spec := Some (unescape rest)
        | other -> bad := Some (Printf.sprintf "unknown session record %S" other))
    records;
  match (!bad, !id, !spec) with
  | Some m, _, _ -> Error [ Rt.v "RT005" (Srcspan.none path) "%s" m ]
  | None, Some id, Some spec ->
      Ok
        (Some
           {
             se_id = id;
             se_tenant = !tenant;
             se_width = !width;
             se_strategy = !strategy;
             se_instances = List.rev !instances;
             se_spec = spec;
           })
  | None, _, _ ->
      (* a recovered prefix that lost the id or spec record: the session
         body is gone, drop it *)
      Ok None

let load ?(vfs = Vfs.passthrough) path =
  match Journal.Log.load ~vfs ~kind path with
  | Error diags -> Error diags
  | Ok (records, warns) -> (
      match of_records ~path records with
      | Error diags -> Error (warns @ diags)
      | Ok None ->
          Ok
            ( None,
              warns
              @ [
                  Rt.v "RT006" (Srcspan.none path)
                    "session body lost with the damaged tail; dropping this session";
                ] )
      | Ok (Some s) -> Ok (Some s, warns))

let quarantine_suffix = ".quarantine"

let quarantine ?(vfs = Vfs.passthrough) ~reason path =
  match vfs.Vfs.rename path (path ^ quarantine_suffix) with
  | () ->
      Rt.v "RT008" (Srcspan.none path) "corrupt session file quarantined as %s: %s"
        (Filename.basename path ^ quarantine_suffix)
        reason
  | exception Vfs.Io_error { e_msg; _ } ->
      Rt.v "RT008" (Srcspan.none path) "corrupt session file could not be quarantined (%s): %s"
        e_msg reason

let is_session_file f =
  String.length f > String.length "session-.ckpt"
  && String.starts_with ~prefix:"session-" f
  && Filename.check_suffix f ".ckpt"

(* The first line of a diagnostic set, as a one-line quarantine reason. *)
let reason_of = function
  | [] -> "unreadable"
  | (d : Diagnostic.t) :: _ -> Printf.sprintf "%s: %s" d.Diagnostic.code d.Diagnostic.message

type state = Intact | Recovered | Corrupt

type entry = {
  f_file : string;
  f_state : state;
  f_session : session option;
  f_diags : Diagnostic.t list;
}

type report = {
  r_dir : string;
  r_entries : entry list;
  r_stale_tmp : string list;
  r_quarantined : string list;
  r_repaired : bool;
  r_diags : Diagnostic.t list;
}

let check_file ~vfs ~repair ~dir f =
  let path = Filename.concat dir f in
  match load ~vfs path with
  | Ok (Some s, []) -> { f_file = f; f_state = Intact; f_session = Some s; f_diags = [] }
  | Ok (Some s, warns) ->
      (* recovered with a damaged tail but the body is whole: compact it
         back to a sealed file so the damage does not compound *)
      let compacted =
        if not repair then []
        else
          match save ~vfs ~dir s with
          | () ->
              [ Rt.v "RT010" (Srcspan.none path) "recovered session compacted (sealed file rewritten)" ]
          | exception Vfs.Io_error { e_msg; _ } ->
              [ Rt.v "RT001" (Srcspan.none path) "cannot compact recovered session: %s" e_msg ]
      in
      { f_file = f; f_state = Recovered; f_session = Some s; f_diags = warns @ compacted }
  | Ok (None, diags) | Error diags ->
      (* the session body is gone: the file is damage with no value *)
      let diags = if repair then [ quarantine ~vfs ~reason:(reason_of diags) path ] else diags in
      { f_file = f; f_state = Corrupt; f_session = None; f_diags = diags }

let check ?(vfs = Vfs.passthrough) ~repair dir =
  let entries, stale, quarantined, dir_diags =
    match vfs.Vfs.readdir dir with
    | exception Vfs.Io_error { e_msg; _ } ->
        ([], [], [], [ Rt.v "RT011" (Srcspan.none dir) "cannot read state directory: %s" e_msg ])
    | names ->
        let names = List.sort String.compare (Array.to_list names) in
        let stale =
          if repair then try Vfs.sweep_tmp vfs ~dir with Vfs.Io_error _ -> []
          else List.filter Vfs.is_tmp names
        in
        ( List.map (check_file ~vfs ~repair ~dir) (List.filter is_session_file names),
          stale,
          List.filter (fun f -> Filename.check_suffix f quarantine_suffix) names,
          List.map
            (fun f ->
              Rt.v "RT009"
                (Srcspan.none (Filename.concat dir f))
                "stale temp file from an interrupted write%s"
                (if repair then " swept" else ""))
            stale )
  in
  {
    r_dir = dir;
    r_entries = entries;
    r_stale_tmp = stale;
    r_quarantined = quarantined;
    r_repaired = repair;
    r_diags = dir_diags @ List.concat_map (fun e -> e.f_diags) entries;
  }

let load_all ?vfs ?(repair = false) dir =
  let r = check ?vfs ~repair dir in
  (List.filter_map (fun e -> e.f_session) r.r_entries, r.r_diags)
