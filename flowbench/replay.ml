(* The traced run's in-process half: the workload's requests replayed
   through [Dispatch.handle] (untraced, one and two domains, and with the
   program's telemetry counters on), and once more re-enacted stage by
   stage through each layer's public functions under the benchmark's own
   spans. The program itself is not instrumented here: every span below
   wraps a call the benchmark makes. *)

open Flowtrace_core
open Util
module Proto = Flowtrace_service.Proto
module Dispatch = Flowtrace_service.Dispatch
module Store = Flowtrace_service.Store
module Tel = Flowtrace_telemetry.Telemetry
module Sink = Flowtrace_telemetry.Sink
module Trace_io = Flowtrace_soc.Trace_io
module Stress = Flowtrace_soc.Stress
module Miner = Flowtrace_mining.Miner
module Json = Flowtrace_analysis.Json

type req = { client : int; op : Inputs.op; line : string }

let requests (w : Inputs.t) ops =
  Array.of_list (List.map (fun (client, op) -> { client; op; line = Inputs.line_of w op }) ops)

(* Failed checks, shared by every phase of a run. *)
type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let tally () = { attempted = 0; failed = 0; why = [] }

let record t what = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error m ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.why < 20 then t.why <- (what ^ ": " ^ m) :: t.why

(* The one-slot evaluator cache is global: point it at an unrelated
   interleaving so every replay starts from the same cache state. *)
let reset_evaluator =
  let other = lazy (Interleave.of_flows [ List.hd Stress.flows ]) in
  fun () -> ignore (Infogain.evaluator (Lazy.force other))

let dispatcher (w : Inputs.t) ~dir t =
  let state_dir =
    if w.Inputs.state_dir then begin
      rm_rf dir;
      mkdir_p dir;
      Some dir
    end
    else None
  in
  let d, _ = Dispatch.create ?state_dir () in
  List.iter
    (fun s ->
      let op = Inputs.Open s in
      record t "in-process open" (Inputs.check w op (fst (Dispatch.handle d (Inputs.line_of w op)))))
    w.Inputs.resident;
  reset_evaluator ();
  d

(* One domain: per-request handle time in ns. *)
let handle_one (w : Inputs.t) ~dir t reqs =
  let d = dispatcher w ~dir t in
  Array.map
    (fun r ->
      let (resp, _), ns = time (fun () -> Dispatch.handle d r.line) in
      record t "in-process" (Inputs.check w r.op resp);
      ns)
    reqs

(* Two domains, one per client stream, on one shared dispatcher. *)
let handle_two (w : Inputs.t) ~dir t reqs =
  let d = dispatcher w ~dir t in
  let ready = Atomic.make 0 in
  let run c =
    let mine = List.filter (fun r -> r.client = c) (Array.to_list reqs) in
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.map
      (fun r ->
        let (resp, _), ns = time (fun () -> Dispatch.handle d r.line) in
        (ns, Inputs.check w r.op resp))
      mine
  in
  let other = Domain.spawn (fun () -> run 1) in
  let here = run 0 in
  let there = Domain.join other in
  List.iter (fun (_, v) -> record t "two-domain" v) (here @ there);
  Array.of_list (List.map fst (here @ there))

(* ------------------------------------------------------------------ *)
(* Telemetry counters, per request *)

let counter_names =
  [|
    "infogain.evaluator_builds";
    "select.candidates_streamed";
    "select.candidates_scored";
    "packing.candidates_scored";
    "serve.requests";
    "serve.busy";
  |]

let counters = lazy (Array.map Tel.Counter.v counter_names)
let snapshot () = Array.map Tel.Counter.value (Lazy.force counters)

let with_telemetry f =
  Tel.install Sink.null;
  Fun.protect ~finally:Tel.shutdown f

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = { id : int; name : string; req : int; parent : int; start : int; dur : int }

let spans : span list ref = ref [] (* newest first *)
let n_spans = ref 0
let recording = ref true
let current = ref (-1)
let req_no = ref 0
let origin = now_ns ()

(* summed duration of the stage spans of the current request *)
let stage_acc = ref 0

let span name f =
  let parent = !current in
  let id = !n_spans in
  incr n_spans;
  let t0 = now_ns () in
  current := id;
  let r = Fun.protect ~finally:(fun () -> current := parent) f in
  let dur = now_ns () - t0 in
  if !recording then begin
    spans := { id; name; req = !req_no; parent; start = t0 - origin; dur } :: !spans;
    if name <> "request" then stage_acc := !stage_acc + dur
  end;
  r

let dump_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            {|{"id":%d,"name":%S,"req":%d,"parent":%d,"start_ns":%d,"dur_ns":%d}|} s.id s.name
            s.req s.parent s.start s.dur;
          output_char oc '\n')
        (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* Stage-by-stage re-enactment of one request, as the dispatcher runs it *)

exception Mismatch of string

let gain_bits = Inputs.gain_bits

let parse_observed trace =
  List.map
    (fun tok ->
      match String.index_opt tok ':' with
      | Some i ->
          Indexed.make (String.sub tok (i + 1) (String.length tok - i - 1))
            (int_of_string (String.sub tok 0 i))
      | None -> raise (Mismatch ("bad trace entry " ^ tok)))
    trace

let select_fields (r : Select.result) =
  [
    ("selected", Json.List (List.map (fun n -> Json.String n) (Select.selected_names r)));
    ("gain", Json.Float r.Select.gain);
    ("gain_bits", Json.String (gain_bits r.Select.gain));
    ("coverage", Json.Float r.Select.coverage);
    ("bits_used", Json.Int r.Select.bits_used);
    ("buffer_width", Json.Int r.Select.buffer_width);
    ("tier", Json.String (Select.Tier.to_string r.Select.tier));
  ]

let expect what ok = if not ok then raise (Mismatch ("staged " ^ what ^ " differs from the oracle"))

let stage (w : Inputs.t) tbl ~dir (r : req) =
  let rq =
    match span "proto.parse" (fun () -> Proto.parse r.line) with
    | Ok rq -> rq
    | Error m -> raise (Mismatch m)
  in
  let id = Option.get rq.Proto.rq_session in
  let fields =
    match (rq.Proto.rq_op, r.op) with
    | Proto.Open_session { tenant; spec; width; strategy; instances }, Inputs.Open s ->
        let flows = span "spec.parse" (fun () -> Spec_parser.parse_string spec) in
        let inter =
          span "interleave.make" (fun () -> Interleave.make (Inputs.instances flows instances))
        in
        let se =
          {
            Store.se_id = id;
            se_tenant = tenant;
            se_width = width;
            se_strategy = strategy;
            se_instances = instances;
            se_spec = spec;
          }
        in
        span "store.save" (fun () -> Store.save ~dir se);
        Hashtbl.replace tbl id (se, inter);
        let pool = List.length (Interleave.messages inter) in
        expect "open"
          (pool = List.length (Interleave.messages (Hashtbl.find w.Inputs.inters s.Inputs.key)));
        [ ("session", Json.String id); ("width", Json.Int width); ("messages", Json.Int pool) ]
    | Proto.Select_op { width; _ }, Inputs.Select (s, wd) ->
        let se, inter = Hashtbl.find tbl id in
        let buffer_width = Option.value ~default:se.Store.se_width width in
        ignore (span "infogain.evaluator" (fun () -> Infogain.evaluator inter));
        let k = span "kernel.make" (fun () -> Kernel.make inter) in
        let sel =
          span "kernel.walk" (fun () ->
              Kernel.select_exact ~only_maximal:false ~limit:Combination.default_limit ~jobs:1 k
                ~buffer_width)
        in
        let sel = Option.get sel in
        let res =
          span "select.finalize" (fun () ->
              Select.finalize ~kernel:k inter ~combo:sel.Kernel.sel_messages
                ~gain:sel.Kernel.sel_gain ~buffer_width)
        in
        let want = Inputs.expected_select w s wd in
        expect "select"
          (Select.selected_names res = Select.selected_names want
          && gain_bits res.Select.gain = gain_bits want.Select.gain);
        select_fields res
    | Proto.Localize_op { trace; width; _ }, Inputs.Localize (_, i) ->
        let se, inter = Hashtbl.find tbl id in
        let buffer_width = Option.value ~default:se.Store.se_width width in
        let sel =
          span "localize.select" (fun () ->
              Select.select ~strategy:se.Store.se_strategy inter ~buffer_width)
        in
        let selected b = Select.is_observable sel b in
        let consistent, total =
          span "localize" (fun () ->
              let observed = parse_observed trace in
              ( Localize.consistent_paths ~semantics:Localize.Prefix inter ~selected ~observed,
                Interleave.total_paths inter ))
        in
        let o = w.Inputs.observations.(i) in
        expect "localize" (consistent = o.Inputs.ob_consistent && total = o.Inputs.ob_total);
        [ ("consistent", Json.Int consistent); ("total", Json.Int total) ]
    | Proto.Mine_op { trace_text; _ }, Inputs.Mine (_, i) ->
        let packets = span "trace_io.parse" (fun () -> Trace_io.parse trace_text) in
        let spec =
          span "miner.mine" (fun () ->
              Miner.spec_text (Miner.mine ~config:Miner.default_config ~file:"<request>" [ packets ]))
        in
        expect "mine" (spec = w.Inputs.traces.(i).Inputs.tr_spec);
        [ ("spec", Json.String spec) ]
    | Proto.Close, Inputs.Close _ ->
        Hashtbl.remove tbl id;
        span "store.remove" (fun () -> Store.remove ~dir id);
        [ ("session", Json.String id) ]
    | _ -> raise (Mismatch "request does not match its op")
  in
  ignore
    (span "proto.response" (fun () ->
         Proto.response ~op:(Proto.op_name rq.Proto.rq_op) Proto.Sok fields))

(* A session table for the re-enactment, holding the resident sessions
   (opened unrecorded). *)
let stage_table (w : Inputs.t) ~dir =
  rm_rf dir;
  mkdir_p dir;
  let tbl = Hashtbl.create 16 in
  recording := false;
  List.iter
    (fun s ->
      let op = Inputs.Open s in
      stage w tbl ~dir { client = 0; op; line = Inputs.line_of w op })
    w.Inputs.resident;
  recording := true;
  tbl

(* Re-enact one request under a "request" span; its summed stage time. *)
let stage_one w tbl ~dir t r =
  incr req_no;
  stage_acc := 0;
  (match span "request" (fun () -> stage w tbl ~dir r) with
  | () -> record t "staged" (Ok ())
  | exception Mismatch m -> record t "staged" (Error m));
  !stage_acc

type counted = { counts : int array; handle_ns : int }

(* A one-domain handle replay with the program's telemetry on: each
   request's counter deltas and handle time. *)
let counted (w : Inputs.t) ~dir t reqs =
  with_telemetry @@ fun () ->
  let d = dispatcher w ~dir t in
  Array.map
    (fun r ->
      let before = snapshot () in
      let (resp, _), handle_ns = time (fun () -> Dispatch.handle d r.line) in
      let counts = Array.map2 ( - ) (snapshot ()) before in
      record t "counted" (Inputs.check w r.op resp);
      { counts; handle_ns })
    reqs

(* Handle times and stage sums of the same requests, taken in alternating
   chunks of [chunk] requests so both are measured under the same machine
   load. The re-enactment has interleavings of its own, so each chunk
   boundary empties the one-slot evaluator cache for both sides alike: the
   two sides always do the same work. *)
let paired ?(chunk = 16) (w : Inputs.t) ~dir ~stage_dir t reqs =
  with_telemetry @@ fun () ->
  let d = dispatcher w ~dir t in
  let tbl = stage_table w ~dir:stage_dir in
  reset_evaluator ();
  let n = Array.length reqs in
  let handle_ns = Array.make n 0 and stage_ns = Array.make n 0 in
  let rec go i =
    if i < n then begin
      let j = min n (i + chunk) in
      for k = i to j - 1 do
        let (resp, _), ns = time (fun () -> Dispatch.handle d reqs.(k).line) in
        record t "paired" (Inputs.check w reqs.(k).op resp);
        handle_ns.(k) <- ns
      done;
      for k = i to j - 1 do
        stage_ns.(k) <- stage_one w tbl ~dir:stage_dir t reqs.(k)
      done;
      go j
    end
  in
  go 0;
  (handle_ns, stage_ns)

(* Re-enact layer probes (sessions they open themselves). *)
let probe (w : Inputs.t) ~dir t reqs =
  with_telemetry @@ fun () ->
  let tbl = stage_table { w with Inputs.resident = [] } ~dir in
  reset_evaluator ();
  Array.iter (fun r -> ignore (stage_one w tbl ~dir t r)) reqs

(* Stage durations in us, by stage name. *)
let stage_us name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (us_of_ns s.dur) else None) !spans)
