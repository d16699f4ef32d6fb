(* The daemon minus the sockets: Proto codec, Store persistence, and
   Dispatch request execution — including admission control, chaos
   fault injection under supervision, and resume bit-identity. The
   socket event loop on top of this is exercised by chaos_serve. *)

open Flowtrace_service
module Json = Flowtrace_analysis.Json

let spec_text =
  "flow F\n\
   state s0 init\n\
   state s1\n\
   state s2 stop\n\
   msg m1 4 from A to B\n\
   msg m2 4 from B to A\n\
   trans s0 m1 s1\n\
   trans s1 m2 s2\n"

let req fields = Json.to_string (Json.Obj fields)

let open_req ?(id = "1") ?(session = "a") ?(spec = spec_text) () =
  req
    [
      ("id", Json.String id);
      ("op", Json.String "open-session");
      ("session", Json.String session);
      ("spec", Json.String spec);
      ("width", Json.Int 8);
    ]

let select_req ?(id = "2") ?(session = "a") ?chaos () =
  let base =
    [
      ("id", Json.String id);
      ("op", Json.String "select");
      ("session", Json.String session);
    ]
  in
  let chaos_field =
    match chaos with
    | None -> []
    | Some (fail, delay) ->
        [
          ( "chaos",
            Json.Obj [ ("fail", Json.Int fail); ("delay_ms", Json.Int delay) ]
          );
        ]
  in
  req (base @ chaos_field)

let field name line =
  match Json.parse line with
  | Ok v -> Json.member name v
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let str_field name line =
  match Option.bind (field name line) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string %S: %s" name line

let int_field name line =
  match Option.bind (field name line) Json.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int %S: %s" name line

let check_status ~what ~status ~exit line =
  Alcotest.(check string) (what ^ " status") status (str_field "status" line);
  Alcotest.(check int) (what ^ " exit") exit (int_field "exit" line)

(* ---------- Proto ---------- *)

let test_proto_parse () =
  (match Proto.parse (select_req ~chaos:(2, 5) ()) with
  | Error m -> Alcotest.failf "select did not parse: %s" m
  | Ok r ->
      Alcotest.(check (option string)) "id" (Some "2") r.Proto.rq_id;
      Alcotest.(check (option string)) "session" (Some "a") r.Proto.rq_session;
      (match r.Proto.rq_chaos with
      | Some { Proto.c_fail; c_delay_ms; _ } ->
          Alcotest.(check int) "chaos fail" 2 c_fail;
          Alcotest.(check int) "chaos delay" 5 c_delay_ms
      | None -> Alcotest.fail "chaos field lost");
      match r.Proto.rq_op with
      | Proto.Select_op { pack; width; _ } ->
          Alcotest.(check bool) "pack defaults true" true pack;
          Alcotest.(check (option int)) "width default" None width
      | _ -> Alcotest.fail "wrong op");
  (match Proto.parse (open_req ()) with
  | Ok { Proto.rq_op = Proto.Open_session { tenant; width; spec; _ }; _ } ->
      Alcotest.(check string) "default tenant" "default" tenant;
      Alcotest.(check int) "width" 8 width;
      Alcotest.(check string) "spec carried verbatim" spec_text spec
  | Ok _ -> Alcotest.fail "wrong op"
  | Error m -> Alcotest.failf "open-session did not parse: %s" m);
  let rejected line =
    match Proto.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parsed a bad request: %s" line
  in
  rejected "not json at all";
  rejected "[1,2,3]";
  rejected "{}";
  rejected {|{"op":"no-such-op"}|};
  rejected {|{"op":"select"}|};
  (* session op without a session *)
  rejected {|{"op":"select","session":"bad/id"}|};
  rejected {|{"op":"open-session","session":"a"}|} (* missing spec *)

let test_proto_session_ids () =
  List.iter
    (fun id ->
      Alcotest.(check bool) ("valid " ^ id) true (Proto.valid_session_id id))
    [ "a"; "A-1._x"; String.make 64 'z' ];
  List.iter
    (fun id ->
      Alcotest.(check bool) ("invalid " ^ id) false (Proto.valid_session_id id))
    [ ""; "a b"; "a/b"; "a\n"; String.make 65 'z' ]

let test_proto_response () =
  let line =
    Proto.response ~id:"7" ~op:"select" Proto.Sok [ ("n", Json.Int 3) ]
  in
  Alcotest.(check string) "id echoed" "7" (str_field "id" line);
  Alcotest.(check string) "op" "select" (str_field "op" line);
  check_status ~what:"ok" ~status:"ok" ~exit:0 line;
  Alcotest.(check int) "payload" 3 (int_field "n" line);
  check_status ~what:"error" ~status:"error" ~exit:1
    (Proto.error ~op:"select" "boom");
  check_status ~what:"busy" ~status:"busy" ~exit:3 (Proto.busy ~op:"select" "full");
  check_status ~what:"degraded" ~status:"degraded" ~exit:3
    (Proto.response ~op:"mine" Proto.Sdegraded [])

(* ---------- Store ---------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "flowtrace-store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_store_roundtrip () =
  with_tmpdir @@ fun dir ->
  let session =
    {
      Store.se_id = "s-1.x";
      se_tenant = "team one\\two\nthree\rfour";
      se_width = 24;
      se_strategy = Flowtrace_core.Select.Greedy;
      se_instances = [ ("F", 2); ("G", 1) ];
      se_spec = "flow F\n  # weird \\ backslash\r\nstate s stop\n";
    }
  in
  Store.save ~dir session;
  (match Store.load (Store.file_of ~dir "s-1.x") with
  | Ok (Some got, warns) ->
      Alcotest.(check bool) "no warnings" true (warns = []);
      Alcotest.(check bool) "round-trips exactly" true (got = session)
  | Ok (None, _) -> Alcotest.fail "session dropped"
  | Error _ -> Alcotest.fail "load failed");
  let sessions, diags = Store.load_all dir in
  Alcotest.(check int) "load_all finds it" 1 (List.length sessions);
  Alcotest.(check bool) "load_all clean" true (diags = []);
  Store.remove ~dir "s-1.x";
  Alcotest.(check bool)
    "removed" false
    (Sys.file_exists (Store.file_of ~dir "s-1.x"));
  let none, _ = Store.load_all (Filename.concat dir "missing") in
  Alcotest.(check int) "missing dir is empty store" 0 (List.length none)

let test_store_torn_tail_drops_session () =
  with_tmpdir @@ fun dir ->
  let session =
    {
      Store.se_id = "t";
      se_tenant = "default";
      se_width = 8;
      se_strategy = Flowtrace_core.Select.Exact;
      se_instances = [];
      se_spec = spec_text;
    }
  in
  Store.save ~dir session;
  let path = Store.file_of ~dir "t" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* Cut into the spec record: it is the second-to-last line, so any cut
     past the preceding lines but before its newline tears it. *)
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  let keep_lines = List.filteri (fun i _ -> i < n - 3) lines in
  let prefix = String.concat "\n" keep_lines ^ "\n" in
  let spec_line = List.nth lines (n - 3) in
  let torn = prefix ^ String.sub spec_line 0 (String.length spec_line / 2) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc torn);
  (match Store.load path with
  | Ok (Some _, _) -> Alcotest.fail "torn session resurrected"
  | Ok (None, warns) ->
      Alcotest.(check bool) "drop carries warnings" true (warns <> [])
  | Error _ -> Alcotest.fail "torn tail must recover, not hard-fail");
  let sessions, diags = Store.load_all dir in
  Alcotest.(check int) "load_all drops it" 0 (List.length sessions);
  Alcotest.(check bool) "load_all reports it" true (diags <> [])

(* ---------- Dispatch ---------- *)

let handle t line = fst (Dispatch.handle t line)

let test_dispatch_session_lifecycle () =
  let t, diags = Dispatch.create () in
  Alcotest.(check bool) "no resume diags" true (diags = []);
  check_status ~what:"ping" ~status:"ok" ~exit:0 (handle t {|{"op":"ping"}|});
  check_status ~what:"open" ~status:"ok" ~exit:0 (handle t (open_req ()));
  check_status ~what:"duplicate open" ~status:"error" ~exit:1
    (handle t (open_req ()));
  let sel = handle t (select_req ()) in
  check_status ~what:"select" ~status:"ok" ~exit:0 sel;
  Alcotest.(check int) "select width" 8 (int_field "buffer_width" sel);
  Alcotest.(check string) "id echoed" "2" (str_field "id" sel);
  (match field "selected" sel with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "selected list missing or empty");
  let st = handle t {|{"op":"status","session":"a"}|} in
  check_status ~what:"status" ~status:"ok" ~exit:0 st;
  Alcotest.(check string) "status session" "a" (str_field "session" st);
  Alcotest.(check int) "status flows" 1 (int_field "flows" st);
  let loc =
    handle t
      (req
         [
           ("op", Json.String "localize");
           ("session", Json.String "a");
           ("trace", Json.List [ Json.String "1:m1" ]);
         ])
  in
  check_status ~what:"localize" ~status:"ok" ~exit:0 loc;
  Alcotest.(check bool)
    "localize narrows" true
    (int_field "consistent" loc <= int_field "total" loc);
  let mine =
    handle t
      (req
         [
           ("op", Json.String "mine");
           ("session", Json.String "a");
           ("trace_text", Json.String "1 F 0 m1 A B -\n2 F 0 m2 B A -\n");
         ])
  in
  check_status ~what:"mine" ~status:"ok" ~exit:0 mine;
  Alcotest.(check bool) "mine saw an episode" true (int_field "episodes" mine >= 1);
  check_status ~what:"close" ~status:"ok" ~exit:0
    (handle t {|{"op":"close","session":"a"}|});
  check_status ~what:"select after close" ~status:"error" ~exit:1
    (handle t (select_req ()));
  let _, shutdown = Dispatch.handle t {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown flagged" true shutdown

let test_dispatch_errors_and_shedding () =
  let t, _ = Dispatch.create ~max_inflight:1 () in
  check_status ~what:"unknown session" ~status:"error" ~exit:1
    (handle t (select_req ~session:"ghost" ()));
  check_status ~what:"malformed line" ~status:"error" ~exit:1
    (handle t "}{ not json");
  check_status ~what:"bad spec" ~status:"error" ~exit:1
    (handle t (open_req ~session:"b" ~spec:"flow\nbroken" ()));
  (* Claim the only in-flight slot: the next session op must be shed. *)
  Alcotest.(check bool) "first admit" true (Dispatch.admit t);
  Alcotest.(check bool) "cap reached" false (Dispatch.admit t);
  check_status ~what:"busy at capacity" ~status:"busy" ~exit:3
    (handle t (open_req ~session:"c" ()));
  Dispatch.release t;
  check_status ~what:"slot freed" ~status:"ok" ~exit:0
    (handle t (open_req ~session:"c" ()));
  (* Queued-too-long shedding: a request already past its drop deadline
     is answered busy before any work runs. *)
  let shed, _ =
    Dispatch.handle ~drop_deadline:(Unix.gettimeofday () -. 1.0) t
      (select_req ~session:"c" ())
  in
  check_status ~what:"queue-grace shed" ~status:"busy" ~exit:3 shed

let test_dispatch_chaos_supervision () =
  let t, _ = Dispatch.create ~chaos:true ~retries:2 () in
  ignore (handle t (open_req ()));
  let plain = handle t (select_req ()) in
  let faulted = handle t (select_req ~chaos:(2, 0) ()) in
  Alcotest.(check string)
    "fail<=retries is byte-identical to the undisturbed run" plain faulted;
  check_status ~what:"fail>retries" ~status:"error" ~exit:1
    (handle t (select_req ~chaos:(3, 0) ()));
  check_status ~what:"recovers after exhaustion" ~status:"ok" ~exit:0
    (handle t (select_req ()));
  (* Without --chaos the field is inert: a production daemon cannot be
     fault-injected by a client. *)
  let t2, _ = Dispatch.create ~chaos:false () in
  ignore (handle t2 (open_req ()));
  check_status ~what:"chaos ignored" ~status:"ok" ~exit:0
    (handle t2 (select_req ~chaos:(99, 0) ()))

let test_dispatch_resume_bit_identical () =
  with_tmpdir @@ fun dir ->
  let t1, _ = Dispatch.create ~state_dir:dir () in
  check_status ~what:"open a" ~status:"ok" ~exit:0 (handle t1 (open_req ()));
  check_status ~what:"open b" ~status:"ok" ~exit:0
    (handle t1
       (open_req ~session:"b"
          ~spec:
            "flow G\nstate g0 init\nstate g1 stop\nmsg gm 6 from C to D\n\
             trans g0 gm g1\n"
          ()));
  let before_a = handle t1 (select_req ()) in
  let before_b = handle t1 (select_req ~session:"b" ()) in
  (* t1 is simply abandoned — the daemon it models was kill -9'd. *)
  let t2, diags = Dispatch.create ~state_dir:dir ~resume:true () in
  Alcotest.(check bool) "clean resume has no diags" true (diags = []);
  Alcotest.(check (list string))
    "sessions survive" [ "a"; "b" ] (Dispatch.session_ids t2);
  Alcotest.(check string) "a resumes bit-identically" before_a
    (handle t2 (select_req ()));
  Alcotest.(check string) "b resumes bit-identically" before_b
    (handle t2 (select_req ~session:"b" ()));
  (* Torn tail on one session file: that session is dropped with a
     diagnostic; the intact one still resumes. *)
  let path = Store.file_of ~dir "b" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  (* keep everything before the spec record, plus half of it: the spec
     is gone, so the session must be dropped rather than resurrected *)
  let prefix =
    String.concat "\n" (List.filteri (fun i _ -> i < n - 3) lines) ^ "\n"
  in
  let spec_line = List.nth lines (n - 3) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (prefix ^ String.sub spec_line 0 (String.length spec_line / 2)));
  let t3, diags = Dispatch.create ~state_dir:dir ~resume:true () in
  Alcotest.(check bool) "torn file reported" true (diags <> []);
  Alcotest.(check (list string))
    "torn session dropped" [ "a" ] (Dispatch.session_ids t3);
  Alcotest.(check string) "intact session still bit-identical" before_a
    (handle t3 (select_req ()))

module Vfs = Flowtrace_runtime.Vfs

let test_dispatch_health_and_degraded_store () =
  (* no store configured: healthy, store "none" *)
  let t0, _ = Dispatch.create () in
  let h = handle t0 {|{"op":"health"}|} in
  check_status ~what:"health without store" ~status:"ok" ~exit:0 h;
  Alcotest.(check int) "no sessions yet" 0 (int_field "sessions" h);
  Alcotest.(check string) "store none" "none" (str_field "store" h);
  (* a fault-vfs store: the disk fills, the daemon degrades instead of
     dying, the disk drains, the next save heals it *)
  let fs = Vfs.Fault.create () in
  let t, diags = Dispatch.create ~state_dir:"/state" ~vfs:(Vfs.Fault.vfs fs) () in
  Alcotest.(check bool) "clean create" true (diags = []);
  check_status ~what:"open on healthy store" ~status:"ok" ~exit:0
    (handle t (open_req ()));
  Vfs.Fault.set_disk_budget fs (Some 0);
  let resp = handle t (open_req ~id:"9" ~session:"b" ()) in
  check_status ~what:"open on a full disk" ~status:"degraded" ~exit:3 resp;
  (match field "persisted" resp with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.failf "persisted:false missing: %s" resp);
  (* the unpersisted session is held in memory and fully usable *)
  check_status ~what:"unpersisted session works" ~status:"ok" ~exit:0
    (handle t (select_req ~session:"b" ()));
  let h = handle t {|{"op":"health"}|} in
  check_status ~what:"health while degraded" ~status:"degraded" ~exit:3 h;
  Alcotest.(check string) "store degraded" "degraded" (str_field "store" h);
  Alcotest.(check int) "both sessions live" 2 (int_field "sessions" h);
  Vfs.Fault.set_disk_budget fs None;
  check_status ~what:"open after the disk drains" ~status:"ok" ~exit:0
    (handle t (open_req ~id:"10" ~session:"c" ()));
  let h = handle t {|{"op":"health"}|} in
  check_status ~what:"health healed" ~status:"ok" ~exit:0 h;
  Alcotest.(check string) "store ok again" "ok" (str_field "store" h)

let test_dispatch_chaos_enospc () =
  with_tmpdir @@ fun dir ->
  let t, _ = Dispatch.create ~state_dir:dir ~chaos:true () in
  let open_chaos =
    req
      [
        ("op", Json.String "open-session");
        ("session", Json.String "a");
        ("spec", Json.String spec_text);
        ("width", Json.Int 8);
        ("chaos", Json.Obj [ ("enospc", Json.Bool true) ]);
      ]
  in
  check_status ~what:"injected ENOSPC" ~status:"degraded" ~exit:3
    (handle t open_chaos);
  Alcotest.(check bool) "nothing persisted" false
    (Sys.file_exists (Store.file_of ~dir "a"));
  (* the injected failure is per-request: the next save succeeds and
     heals the store flag *)
  check_status ~what:"open after injection" ~status:"ok" ~exit:0
    (handle t (open_req ~id:"2" ~session:"b" ()));
  Alcotest.(check bool) "b persisted" true
    (Sys.file_exists (Store.file_of ~dir "b"));
  let h = handle t {|{"op":"health"}|} in
  check_status ~what:"healed after injection" ~status:"ok" ~exit:0 h;
  (* without --chaos the field is inert for ENOSPC too: the same request
     against a non-chaos daemon persists normally *)
  let t2, _ = Dispatch.create ~state_dir:dir ~chaos:false () in
  check_status ~what:"chaos ignored without --chaos" ~status:"ok" ~exit:0
    (handle t2 open_chaos);
  Alcotest.(check bool) "a persisted this time" true
    (Sys.file_exists (Store.file_of ~dir "a"))

let test_dispatch_resume_quarantines_corrupt () =
  with_tmpdir @@ fun dir ->
  let t1, _ = Dispatch.create ~state_dir:dir () in
  check_status ~what:"open a" ~status:"ok" ~exit:0 (handle t1 (open_req ()));
  check_status ~what:"open b" ~status:"ok" ~exit:0
    (handle t1 (open_req ~id:"2" ~session:"b" ()));
  let before_a = handle t1 (select_req ()) in
  (* b's file is destroyed wholesale (not torn — garbage), and an
     interrupted write left a temp file behind *)
  Out_channel.with_open_bin (Store.file_of ~dir "b") (fun oc ->
      Out_channel.output_string oc "total garbage\n");
  Out_channel.with_open_bin (Store.file_of ~dir "a" ^ Vfs.tmp_suffix) (fun oc ->
      Out_channel.output_string oc "x");
  let t2, diags = Dispatch.create ~state_dir:dir ~resume:true () in
  Alcotest.(check bool) "damage reported" true (diags <> []);
  Alcotest.(check (list string))
    "only the intact session resumes" [ "a" ] (Dispatch.session_ids t2);
  Alcotest.(check string) "and answers bit-identically" before_a
    (handle t2 (select_req ()));
  Alcotest.(check bool) "corrupt file quarantined, not deleted" true
    (Sys.file_exists (Store.file_of ~dir "b" ^ Store.quarantine_suffix));
  Alcotest.(check bool) "stale temp swept" false
    (Sys.file_exists (Store.file_of ~dir "a" ^ Vfs.tmp_suffix));
  let h = handle t2 {|{"op":"health"}|} in
  Alcotest.(check int) "sweep surfaced in health" 1 (int_field "stale_tmp_swept" h);
  (* repair-on-resume converges: a second resume finds nothing wrong *)
  let _t3, diags = Dispatch.create ~state_dir:dir ~resume:true () in
  Alcotest.(check bool) "second resume is clean" true (diags = [])

(* The instance counts name a flow the spec does not declare: the open
   is refused (nothing persisted), and a session persisted with such a
   name by an older daemon is dropped on resume as one that no longer
   builds (RT005). *)
let test_dispatch_unknown_flow_in_counts () =
  with_tmpdir @@ fun dir ->
  let t, _ = Dispatch.create ~state_dir:dir () in
  let instances = Json.Obj [ ("F", Json.Int 1); ("NoSuch", Json.Int 1) ] in
  let resp =
    handle t
      (req
         [
           ("op", Json.String "open-session");
           ("session", Json.String "u");
           ("spec", Json.String spec_text);
           ("instances", instances);
         ])
  in
  check_status ~what:"unknown flow" ~status:"error" ~exit:1 resp;
  Alcotest.(check string)
    "names the unknown and the declared flows"
    {|unknown flow "NoSuch" in the instance counts (declared: F)|} (str_field "error" resp);
  Alcotest.(check bool) "not persisted" false (Sys.file_exists (Store.file_of ~dir "u"));
  Store.save ~dir
    {
      Store.se_id = "u";
      se_tenant = "default";
      se_width = 8;
      se_strategy = Flowtrace_core.Select.Exact;
      se_instances = [ ("F", 1); ("NoSuch", 1) ];
      se_spec = spec_text;
    };
  let t2, diags = Dispatch.create ~state_dir:dir ~resume:true () in
  Alcotest.(check (list string)) "dropped on resume" [] (Dispatch.session_ids t2);
  Alcotest.(check (list string))
    "as RT005" [ "RT005" ]
    (List.map (fun (d : Dispatch.Diagnostic.t) -> d.Dispatch.Diagnostic.code) diags)

(* A negative instance index in a trace token is bad input, refused like
   any malformed token, not an exception retried to "request failed". *)
let test_dispatch_negative_instance_index () =
  let t, _ = Dispatch.create () in
  ignore (handle t (open_req ()));
  let resp =
    handle t
      (req
         [
           ("op", Json.String "localize");
           ("session", Json.String "a");
           ("trace", Json.List [ Json.String "1:m1"; Json.String "-1:m2" ]);
         ])
  in
  check_status ~what:"negative index" ~status:"error" ~exit:1 resp;
  Alcotest.(check string)
    "names the token" {|bad indexed message "-1:m2" (want IDX:NAME)|} (str_field "error" resp)

(* A state dir that cannot be listed (here a regular file, which fails
   readdir even for root) is reported on resume with the RT011 that fsck
   gives, and the daemon still starts. *)
let test_dispatch_resume_unreadable_dir () =
  with_tmpdir @@ fun dir ->
  let file = Filename.concat dir "not-a-dir" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc "x");
  let t, diags = Dispatch.create ~state_dir:file ~resume:true () in
  Alcotest.(check (list string))
    "RT011" [ "RT011" ]
    (List.map (fun (d : Dispatch.Diagnostic.t) -> d.Dispatch.Diagnostic.code) diags);
  Alcotest.(check bool) "same diagnostic as fsck" true (diags = (Fsck.scan file).Fsck.r_diags);
  check_status ~what:"ping after resume" ~status:"ok" ~exit:0 (handle t {|{"op":"ping"}|});
  Alcotest.(check bool)
    "still serves sessions" true
    (str_field "status" (handle t (open_req ())) <> "error")

(* MN002 (an error) always arrives with MN090 (degraded): errors win, as
   in the CLI's exit code, so the daemon answers "error", not
   "degraded". *)
let test_mine_status_errors_win () =
  let span = Flowtrace_core.Srcspan.none "t" in
  let module Mn = Flowtrace_analysis.Mn in
  let diags = [ Mn.v "MN002" span "mined flow F failed validation"; Mn.v "MN090" span "degraded" ] in
  Alcotest.(check int) "exit code" 1 (Op.mine_exit_code diags);
  Alcotest.(check string) "daemon status" "error"
    (Proto.status_name (Proto.status_of_exit (Op.mine_exit_code diags)));
  Alcotest.(check int) "degraded alone" 3 (Op.mine_exit_code [ Mn.v "MN090" span "degraded" ]);
  Alcotest.(check int) "clean" 0 (Op.mine_exit_code [])

let test_dispatch_sharding () =
  let t, _ = Dispatch.create ~shards:4 () in
  Alcotest.(check int) "shard count" 4 (Dispatch.n_shards t);
  List.iter
    (fun id ->
      let s = Dispatch.shard_of t id in
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
      Alcotest.(check int) "stable" s (Dispatch.shard_of t id))
    [ "a"; "b"; "tenant-17"; String.make 64 'z' ]

let () =
  Alcotest.run "service"
    [
      ( "proto",
        [
          Alcotest.test_case "parse accepts good and rejects bad lines" `Quick
            test_proto_parse;
          Alcotest.test_case "session ids are path-safe" `Quick
            test_proto_session_ids;
          Alcotest.test_case "responses mirror the exit-code convention" `Quick
            test_proto_response;
        ] );
      ( "store",
        [
          Alcotest.test_case "sessions round-trip exactly" `Quick
            test_store_roundtrip;
          Alcotest.test_case "a torn tail drops the session cleanly" `Quick
            test_store_torn_tail_drops_session;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "session lifecycle over one dispatcher" `Quick
            test_dispatch_session_lifecycle;
          Alcotest.test_case "errors and admission shedding" `Quick
            test_dispatch_errors_and_shedding;
          Alcotest.test_case "chaos faults retry to identical bytes" `Quick
            test_dispatch_chaos_supervision;
          Alcotest.test_case "resume answers bit-identically" `Quick
            test_dispatch_resume_bit_identical;
          Alcotest.test_case "health reports the store; ENOSPC degrades, then heals"
            `Quick test_dispatch_health_and_degraded_store;
          Alcotest.test_case "injected ENOSPC degrades one request only" `Quick
            test_dispatch_chaos_enospc;
          Alcotest.test_case "resume quarantines damage and sweeps temp files"
            `Quick test_dispatch_resume_quarantines_corrupt;
          Alcotest.test_case "sharding is stable and bounded" `Quick
            test_dispatch_sharding;
          Alcotest.test_case "an unknown flow in the counts is refused" `Quick
            test_dispatch_unknown_flow_in_counts;
          Alcotest.test_case "mine status: errors win over degraded" `Quick
            test_mine_status_errors_win;
          Alcotest.test_case "a negative instance index is refused" `Quick
            test_dispatch_negative_instance_index;
          Alcotest.test_case "an unreadable state dir resumes with RT011" `Quick
            test_dispatch_resume_unreadable_dir;
        ] );
    ]
