open Flowtrace_core
module Diagnostic = Flowtrace_analysis.Diagnostic
module Json = Flowtrace_analysis.Json
module Rt = Flowtrace_analysis.Rt
module Supervisor = Flowtrace_runtime.Supervisor
module Backoff = Flowtrace_runtime.Backoff
module Vfs = Flowtrace_runtime.Vfs
module Tel = Flowtrace_telemetry.Telemetry

let c_requests = Tel.Counter.v "serve.requests"
let c_busy = Tel.Counter.v "serve.busy"
let c_shed = Tel.Counter.v "serve.shed"
let c_errors = Tel.Counter.v "serve.errors"

(* same counter the engines bump — one degradation total per process *)
let c_degraded = Tel.Counter.v "select.degraded"

type entry = {
  e_session : Store.session;
  e_inter : Interleave.t;
  e_flows : int;  (** flow instances in the interleaving *)
  e_pool : int;  (** messages in the selection pool *)
}

type shard = { mu : Mutex.t; sessions : (string, entry) Hashtbl.t }

type t = {
  shards : shard array;
  state_dir : string option;
  vfs : Vfs.t;
  max_inflight : int;
  inflight : int Atomic.t;
  retries : int;
  backoff : Backoff.t;
  chaos : bool;
  (* [None] = store healthy; [Some msg] = last session save failed (disk
     full, IO error) and sessions are being held in memory only *)
  store_error : string option Atomic.t;
  stale_swept : int;  (** stale temp files swept by this process's resume *)
}

(* ------------------------------------------------------------------ *)
(* Session construction (shared by open-session and resume) *)

let interleave_of_spec spec counts =
  match Spec_parser.parse_string spec with
  | exception Spec_parser.Parse_error e ->
      Error (Printf.sprintf "spec line %d: %s" e.Spec_parser.line e.Spec_parser.message)
  | [] -> Error "specification declares no flows"
  | flows -> (
      let find name = List.find_opt (fun f -> String.equal f.Flow.name name) flows in
      let instances =
        match counts with
        | [] -> List.mapi (fun i f -> { Interleave.flow = f; index = i + 1 }) flows
        | counts ->
            let next = ref 0 in
            List.concat_map
              (fun (name, n) ->
                match find name with
                | None -> []
                | Some f ->
                    List.init n (fun _ ->
                        incr next;
                        { Interleave.flow = f; index = !next }))
              counts
      in
      if instances = [] then Error "instance specification matches no flow"
      else
        try Ok (Interleave.make instances, List.length instances) with
        | Interleave.Not_legally_indexed m | Interleave.Message_clash m -> Error m
        | Interleave.Too_large n -> Error (Printf.sprintf "interleaving exceeds %d states" n))

let entry_of_session (s : Store.session) =
  match interleave_of_spec s.Store.se_spec s.Store.se_instances with
  | Error m -> Error m
  | Ok (inter, nflows) ->
      Ok
        {
          e_session = s;
          e_inter = inter;
          e_flows = nflows;
          e_pool = List.length (Interleave.messages inter);
        }

let create ?state_dir ?(vfs = Vfs.passthrough) ?(shards = 4) ?(max_inflight = 64) ?(retries = 2)
    ?(backoff_seed = 0) ?(chaos = false) ?(resume = false) () =
  if shards < 1 then invalid_arg "Dispatch.create: shards must be positive";
  if max_inflight < 1 then invalid_arg "Dispatch.create: max_inflight must be positive";
  let resume_diags =
    match (state_dir, resume) with
    | Some dir, true -> Some (Store.load_all ~vfs ~repair:true dir)
    | _ -> None
  in
  let swept =
    match resume_diags with
    | None -> 0
    | Some (_, ds) ->
        List.length (List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = "RT009") ds)
  in
  let t =
    {
      shards =
        Array.init shards (fun _ -> { mu = Mutex.create (); sessions = Hashtbl.create 16 });
      state_dir;
      vfs;
      max_inflight;
      inflight = Atomic.make 0;
      retries;
      backoff = Backoff.make ~seed:backoff_seed ();
      chaos;
      store_error = Atomic.make None;
      stale_swept = swept;
    }
  in
  let diags =
    match resume_diags with
    | Some (sessions, diags) ->
        List.fold_left
          (fun diags (s : Store.session) ->
            match entry_of_session s with
            | Ok e ->
                let shard = t.shards.(Hashtbl.hash s.Store.se_id mod shards) in
                Hashtbl.replace shard.sessions s.Store.se_id e;
                diags
            | Error m ->
                let dir = Option.value ~default:"" state_dir in
                diags
                @ [
                    Rt.v "RT005"
                      (Srcspan.none (Store.file_of ~dir s.Store.se_id))
                      "persisted session %S no longer builds (%s); dropping it" s.Store.se_id m;
                  ])
          diags sessions
    | _ -> []
  in
  (t, diags)

let shard_of t id = Hashtbl.hash id mod Array.length t.shards
let n_shards t = Array.length t.shards

let session_ids t =
  let ids =
    Array.fold_left
      (fun acc shard ->
        Mutex.protect shard.mu (fun () ->
            Hashtbl.fold (fun id _ acc -> id :: acc) shard.sessions acc))
      [] t.shards
  in
  List.sort String.compare ids

let busy_message t = Printf.sprintf "daemon at capacity (%d requests in flight)" t.max_inflight

let busy_response t ?id ~op () =
  Tel.Counter.incr c_busy;
  Proto.busy ?id ~op (busy_message t)

let admit t =
  let rec go () =
    let n = Atomic.get t.inflight in
    if n >= t.max_inflight then false
    else if Atomic.compare_and_set t.inflight n (n + 1) then true
    else go ()
  in
  go ()

let release t = ignore (Atomic.fetch_and_add t.inflight (-1))

(* ------------------------------------------------------------------ *)
(* Supervised execution of one request body.

   The body is transactional — it only returns its response; all state
   mutation happens through it exactly once on the successful attempt —
   so an injected fault on attempts 1..n followed by a success yields
   byte-identical responses to an undisturbed run. *)

exception Chaos_fault of int

let supervised t ~chaos body =
  let inject =
    match chaos with
    | Some c when t.chaos && c.Proto.c_fail > 0 ->
        Some
          (fun ~task:_ ~attempt ->
            if attempt <= c.Proto.c_fail then raise (Chaos_fault attempt))
    | _ -> None
  in
  let result = ref None in
  let summary =
    Supervisor.run ~retries:t.retries ~backoff:t.backoff ?inject ~tasks:[| 0 |] (fun _ ->
        result := Some (body ()))
  in
  match (summary.Supervisor.statuses.(0), !result) with
  | Supervisor.Done, Some r -> Ok r
  | Supervisor.Gave_up e, _ -> Error e
  | _ -> Error (Failure "request body did not run")

(* ------------------------------------------------------------------ *)
(* Op bodies: each returns (status, payload fields). Expected failures
   are mapped to Serror responses inside the body — only unexpected or
   injected exceptions reach the supervisor's retry machinery. *)

let err fmt = Printf.ksprintf (fun m -> (Proto.Serror, [ ("error", Json.String m) ])) fmt

let session_fields (e : entry) =
  let s = e.e_session in
  [
    ("session", Json.String s.Store.se_id);
    ("tenant", Json.String s.Store.se_tenant);
    ("width", Json.Int s.Store.se_width);
    ("strategy", Json.String (Store.strategy_name s.Store.se_strategy));
    ("flows", Json.Int e.e_flows);
    ("messages", Json.Int e.e_pool);
  ]

let run_select (e : entry) ~width ~deadline_ms ~max_candidates ~pack =
  let s = e.e_session in
  let buffer_width = Option.value ~default:s.Store.se_width width in
  if buffer_width < 1 then err "width must be positive"
  else
    let deadline =
      Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)) deadline_ms
    in
    match
      Select.select ~strategy:s.Store.se_strategy ?deadline ?max_candidates ~pack e.e_inter
        ~buffer_width
    with
    | exception Combination.Too_many n ->
        err "Step-1 enumeration exceeded %d candidate combinations at width %d" n buffer_width
    | exception Invalid_argument m -> err "%s" m
    | r ->
        let status =
          if Select.Tier.is_degraded r.Select.tier then Proto.Sdegraded else Proto.Sok
        in
        ( status,
          [
            ( "selected",
              Json.List (List.map (fun n -> Json.String n) (Select.selected_names r)) );
            ("gain", Json.Float r.Select.gain);
            ( "gain_bits",
              Json.String (Printf.sprintf "%016Lx" (Int64.bits_of_float r.Select.gain)) );
            ("coverage", Json.Float r.Select.coverage);
            ("bits_used", Json.Int r.Select.bits_used);
            ("buffer_width", Json.Int r.Select.buffer_width);
            ("tier", Json.String (Select.Tier.to_string r.Select.tier));
          ] )

exception Bad_trace of string

let parse_observed tokens =
  List.filter_map
    (fun tok ->
      if tok = "" then None
      else
        match String.index_opt tok ':' with
        | Some i -> (
            match int_of_string_opt (String.sub tok 0 i) with
            | Some inst ->
                let base = String.sub tok (i + 1) (String.length tok - i - 1) in
                Some (Indexed.make base inst)
            | None -> raise (Bad_trace tok))
        | None -> raise (Bad_trace tok))
    tokens

let run_localize (e : entry) ~trace ~lossy ~skip_budget ~width =
  let s = e.e_session in
  let buffer_width = Option.value ~default:s.Store.se_width width in
  if buffer_width < 1 then err "width must be positive"
  else if skip_budget < 0 then err "skip_budget must be non-negative"
  else
    match parse_observed trace with
    | exception Bad_trace tok -> err "bad indexed message %S (want IDX:NAME)" tok
    | observed -> (
        match
          Select.select ~strategy:s.Store.se_strategy e.e_inter ~buffer_width
        with
        | exception Combination.Too_many n ->
            err "Step-1 enumeration exceeded %d candidate combinations at width %d" n
              buffer_width
        | exception Invalid_argument m -> err "%s" m
        | sel ->
            let selected b = Select.is_observable sel b in
            let total = Interleave.total_paths e.e_inter in
            let selection =
              ( "selection",
                Json.List
                  (List.map (fun n -> Json.String n) (Select.selected_names sel)) )
            in
            if lossy then
              let r =
                Localize.lossy ~semantics:Localize.Prefix ~skip_budget e.e_inter ~selected
                  ~observed
              in
              ( Proto.Sok,
                [
                  selection;
                  ("consistent", Json.Int r.Localize.lr_consistent);
                  ("total", Json.Int total);
                  ("fraction", Json.Float (Localize.lossy_fraction r));
                  ("discarded", Json.Int r.Localize.lr_discarded);
                  ("skips", Json.Int r.Localize.lr_skips);
                  ("confidence", Json.Float r.Localize.lr_confidence);
                ] )
            else
              let consistent =
                Localize.consistent_paths ~semantics:Localize.Prefix e.e_inter ~selected
                  ~observed
              in
              ( Proto.Sok,
                [
                  selection;
                  ("consistent", Json.Int consistent);
                  ("total", Json.Int total);
                  ( "fraction",
                    Json.Float (float_of_int consistent /. float_of_int (max 1 total)) );
                ] ))

let run_mine ~trace_text ~support ~min_count =
  let open Flowtrace_mining in
  match Flowtrace_soc.Trace_io.parse trace_text with
  | exception Flowtrace_soc.Trace_io.Parse_error e ->
      err "trace line %d: %s" e.Flowtrace_soc.Trace_io.line e.Flowtrace_soc.Trace_io.message
  | packets -> (
      let d = Miner.default_config in
      let config =
        {
          d with
          Miner.support = Option.value ~default:d.Miner.support support;
          min_count = Option.value ~default:d.Miner.min_count min_count;
        }
      in
      match Miner.mine ~config ~file:"<request>" [ packets ] with
      | exception Invalid_argument m -> err "%s" m
      | r ->
          let status =
            if Miner.degraded r.Miner.r_diags then Proto.Sdegraded
            else if List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) r.Miner.r_diags
            then Proto.Serror
            else Proto.Sok
          in
          ( status,
            [
              ("episodes", Json.Int r.Miner.r_episodes);
              ( "flows",
                Json.List
                  (List.map
                     (fun (m : Miner.mined) ->
                       Json.Obj
                         [
                           ("name", Json.String m.Miner.m_flow.Flow.name);
                           ("states", Json.Int (Flow.n_states m.Miner.m_flow));
                           ("messages", Json.Int (Flow.n_messages m.Miner.m_flow));
                           ("paths", Json.Int (List.length m.Miner.m_kept));
                           ("fingerprint", Json.String m.Miner.m_fingerprint);
                         ])
                     r.Miner.r_flows) );
              ("spec", Json.String (Miner.spec_text r));
              ( "diagnostics",
                Json.List
                  (List.map
                     (fun d -> Json.String (Diagnostic.render d))
                     r.Miner.r_diags) );
            ] ))

(* ------------------------------------------------------------------ *)
(* The request switch *)

let with_shard t id f =
  let shard = t.shards.(shard_of t id) in
  Mutex.protect shard.mu (fun () -> f shard)

let run_session_op t (rq : Proto.request) =
  let id = Option.get rq.Proto.rq_session in
  match rq.Proto.rq_op with
  | Proto.Open_session { tenant; spec; width; strategy; instances } ->
      with_shard t id (fun shard ->
          if Hashtbl.mem shard.sessions id then err "session %S is already open" id
          else
            let session =
              {
                Store.se_id = id;
                se_tenant = tenant;
                se_width = width;
                se_strategy = strategy;
                se_instances = instances;
                se_spec = spec;
              }
            in
            match entry_of_session session with
            | Error m -> err "%s" m
            | Ok e -> (
                let persist dir =
                  (* --chaos + {"enospc":true} fails the save exactly the
                     way a full disk does, without needing a full disk *)
                  (match rq.Proto.rq_chaos with
                  | Some c when t.chaos && c.Proto.c_enospc ->
                      raise
                        (Vfs.Io_error
                           {
                             Vfs.e_op = "write";
                             e_path = Store.file_of ~dir id;
                             e_msg = "No space left on device";
                             e_enospc = true;
                           })
                  | _ -> ());
                  Store.save ~vfs:t.vfs ~dir session
                in
                match Option.iter persist t.state_dir with
                | exception Vfs.Io_error { e_msg; _ } ->
                    (* shed to degraded, never die: the session stays
                       open in memory and the store is flagged unhealthy
                       until a later save succeeds *)
                    Atomic.set t.store_error (Some e_msg);
                    Hashtbl.replace shard.sessions id e;
                    ( Proto.Sdegraded,
                      session_fields e
                      @ [
                          ("persisted", Json.Bool false);
                          ( "warning",
                            Json.String
                              (Printf.sprintf "session not persisted (%s); held in memory only"
                                 e_msg) );
                        ] )
                | () ->
                    if t.state_dir <> None then Atomic.set t.store_error None;
                    Hashtbl.replace shard.sessions id e;
                    (Proto.Sok, session_fields e)))
  | Proto.Close ->
      with_shard t id (fun shard ->
          if not (Hashtbl.mem shard.sessions id) then err "unknown session %S" id
          else begin
            Hashtbl.remove shard.sessions id;
            (match t.state_dir with
            | Some dir -> ( try Store.remove ~vfs:t.vfs ~dir id with Vfs.Io_error _ -> ())
            | None -> ());
            (Proto.Sok, [ ("session", Json.String id) ])
          end)
  | Proto.Select_op { width; deadline_ms; max_candidates; pack } ->
      with_shard t id (fun shard ->
          match Hashtbl.find_opt shard.sessions id with
          | None -> err "unknown session %S" id
          | Some e -> run_select e ~width ~deadline_ms ~max_candidates ~pack)
  | Proto.Localize_op { trace; lossy; skip_budget; width } ->
      with_shard t id (fun shard ->
          match Hashtbl.find_opt shard.sessions id with
          | None -> err "unknown session %S" id
          | Some e -> run_localize e ~trace ~lossy ~skip_budget ~width)
  | Proto.Mine_op { trace_text; support; min_count } ->
      with_shard t id (fun shard ->
          if not (Hashtbl.mem shard.sessions id) then err "unknown session %S" id
          else run_mine ~trace_text ~support ~min_count)
  | Proto.Ping | Proto.Status | Proto.Health | Proto.Shutdown -> assert false

let run_health t =
  let n = List.length (session_ids t) in
  let store_fields =
    match t.state_dir with
    | None -> [ ("store", Json.String "none") ]
    | Some _ -> (
        match Atomic.get t.store_error with
        | None -> [ ("store", Json.String "ok") ]
        | Some msg ->
            [ ("store", Json.String "degraded"); ("store_error", Json.String msg) ])
  in
  let status =
    if Atomic.get t.store_error <> None then Proto.Sdegraded else Proto.Sok
  in
  ( status,
    [ ("sessions", Json.Int n) ]
    @ store_fields
    @ [ ("stale_tmp_swept", Json.Int t.stale_swept) ] )

let run_status t (rq : Proto.request) =
  match rq.Proto.rq_session with
  | None ->
      let ids = session_ids t in
      ( Proto.Sok,
        [
          ("sessions", Json.List (List.map (fun i -> Json.String i) ids));
          ("count", Json.Int (List.length ids));
        ] )
  | Some id ->
      with_shard t id (fun shard ->
          match Hashtbl.find_opt shard.sessions id with
          | None -> err "unknown session %S" id
          | Some e -> (Proto.Sok, session_fields e))

let handle ?drop_deadline ?(admitted = false) t line =
  Tel.Counter.incr c_requests;
  let finish ?id ~op (status, fields) =
    (match status with
    | Proto.Serror -> Tel.Counter.incr c_errors
    | Proto.Sbusy -> Tel.Counter.incr c_busy
    | Proto.Sdegraded -> Tel.Counter.incr c_degraded
    | Proto.Sok -> ());
    Proto.response ?id ~op status fields
  in
  match Proto.parse line with
  | Error m ->
      if admitted then release t;
      (finish ~op:"invalid" (Proto.Serror, [ ("error", Json.String m) ]), false)
  | Ok rq -> (
      let id = rq.Proto.rq_id in
      let op = Proto.op_name rq.Proto.rq_op in
      match rq.Proto.rq_op with
      | Proto.Ping ->
          if admitted then release t;
          (finish ?id ~op (Proto.Sok, []), false)
      | Proto.Shutdown ->
          if admitted then release t;
          (finish ?id ~op (Proto.Sok, []), true)
      | Proto.Status ->
          if admitted then release t;
          (finish ?id ~op (run_status t rq), false)
      | Proto.Health ->
          if admitted then release t;
          (finish ?id ~op (run_health t), false)
      | _ ->
          let shed =
            match drop_deadline with
            | Some d -> Budget.already_expired (Budget.make ~deadline:d ())
            | None -> false
          in
          if shed then begin
            if admitted then release t;
            Tel.Counter.incr c_shed;
            ( finish ?id ~op
                (Proto.Sbusy, [ ("error", Json.String "request queued past its deadline") ]),
              false )
          end
          else if (not admitted) && not (admit t) then
            (finish ?id ~op (Proto.Sbusy, [ ("error", Json.String (busy_message t)) ]), false)
          else
            Fun.protect
              ~finally:(fun () -> release t)
              (fun () ->
                (* chaos delay occupies the in-flight slot and the shard,
                   deterministically driving the admission path in tests *)
                (match rq.Proto.rq_chaos with
                | Some c when t.chaos && c.Proto.c_delay_ms > 0 ->
                    Unix.sleepf (float_of_int c.Proto.c_delay_ms /. 1000.0)
                | _ -> ());
                match supervised t ~chaos:rq.Proto.rq_chaos (fun () -> run_session_op t rq) with
                | Ok resp -> (finish ?id ~op resp, false)
                | Error (Chaos_fault n) ->
                    (finish ?id ~op (err "request failed after %d injected faults" n), false)
                | Error e ->
                    (finish ?id ~op (err "request failed: %s" (Printexc.to_string e)), false)))
