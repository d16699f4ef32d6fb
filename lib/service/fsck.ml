module Diagnostic = Flowtrace_analysis.Diagnostic
module Json = Flowtrace_analysis.Json
module Vfs = Flowtrace_runtime.Vfs

type state = Store.state = Intact | Recovered | Corrupt

type entry = Store.entry = {
  f_file : string;
  f_state : state;
  f_session : Store.session option;
  f_diags : Diagnostic.t list;
}

type report = Store.report = {
  r_dir : string;
  r_entries : entry list;
  r_stale_tmp : string list;
  r_quarantined : string list;
  r_repaired : bool;
  r_diags : Diagnostic.t list;
}

let state_name = function
  | Intact -> "intact"
  | Recovered -> "recovered"
  | Corrupt -> "corrupt"

let scan ?vfs dir = Store.check ?vfs ~repair:false dir
let repair ?vfs dir = Store.check ?vfs ~repair:true dir

let exit_code r =
  let degraded = List.exists (fun e -> e.f_state <> Intact) r.r_entries in
  Diagnostic.exit_code ~degraded r.r_diags

let count st r = List.length (List.filter (fun e -> e.f_state = st) r.r_entries)

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "fsck %s: %d session file%s — %d intact, %d recovered, %d corrupt; %d stale temp, %d quarantined%s\n"
       r.r_dir
       (List.length r.r_entries)
       (if List.length r.r_entries = 1 then "" else "s")
       (count Intact r) (count Recovered r) (count Corrupt r)
       (List.length r.r_stale_tmp)
       (List.length r.r_quarantined)
       (if r.r_repaired then " (repaired)" else ""));
  Buffer.add_string buf (Diagnostic.render_all (Diagnostic.sort_report r.r_diags));
  Buffer.contents buf

let to_json r =
  Json.Obj
    [
      ("dir", Json.String r.r_dir);
      ( "sessions",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("file", Json.String e.f_file);
                   ("state", Json.String (state_name e.f_state));
                   ( "session",
                     match e.f_session with
                     | Some s -> Json.String s.Store.se_id
                     | None -> Json.Null );
                 ])
             r.r_entries) );
      ("stale_tmp", Json.List (List.map (fun f -> Json.String f) r.r_stale_tmp));
      ("quarantined", Json.List (List.map (fun f -> Json.String f) r.r_quarantined));
      ("repaired", Json.Bool r.r_repaired);
      ( "diagnostics",
        Json.List (List.map Diagnostic.to_json (Diagnostic.sort_report r.r_diags)) );
      ("exit", Json.Int (exit_code r));
    ]
