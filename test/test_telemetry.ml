(* Tests for the telemetry layer (lib/telemetry) and its integration with
   the selection engine, the SoC simulator and the debug sessions:

   - the JSONL encoding round-trips exactly (in memory and through a file);
   - instrumentation is observation-only: selections are identical with
     telemetry enabled and disabled, and metric updates while disabled are
     no-ops;
   - counter values are bit-identical across --jobs 1/2/4 — only
     decomposition-invariant quantities are counted;
   - the Chrome sink emits one well-formed JSON array;
   - simulator counters are reproducible for a fixed seed. *)

open Flowtrace_core
open Flowtrace_soc
open Flowtrace_debug
module Tel = Flowtrace_telemetry.Telemetry
module Event = Flowtrace_telemetry.Event
module Sink = Flowtrace_telemetry.Sink
module Summary = Flowtrace_telemetry.Summary
module Json = Flowtrace_telemetry.Json

let sample_events =
  [
    Event.Meta [ ("epoch_unix", Event.Float 1754300000.125); ("tool", Event.Str "test") ];
    Event.Span
      {
        Event.sp_name = "select";
        sp_id = 0;
        sp_parent = None;
        sp_domain = 0;
        sp_start_us = 12.5;
        sp_dur_us = 1034.0625;
        sp_args = [ ("width", Event.Int 32); ("ok", Event.Bool true) ];
      };
    Event.Span
      {
        Event.sp_name = "select.worker";
        sp_id = 3;
        sp_parent = Some 0;
        sp_domain = 2;
        sp_start_us = 14.0;
        sp_dur_us = 0.0;
        sp_args = [];
      };
    Event.Metric (Event.Counter { Event.c_name = "select.runs"; c_value = 7 });
    Event.Metric (Event.Gauge { Event.g_name = "soc.sim.queue_depth_max"; g_value = 41.0 });
    Event.Metric
      (Event.Histogram
         {
           Event.h_name = "infogain.eval_combo_len";
           h_count = 3;
           h_sum = 7.0;
           h_min = 1.0;
           h_max = 4.0;
         });
  ]

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Alcotest.(check bool) "of_json (to_json e) = e" true (Event.equal ev ev')
      | Error m -> Alcotest.fail m)
    sample_events

(* Every finite float prints with a '.' or an exponent, so it parses
   back as the same Float: integral floats in [1e16, 1e17) used to print
   as bare digits and come back as Int. Checked through the name the
   protocol and the diagnostics use. *)
let prop_json_float_roundtrip =
  let module J = Flowtrace_analysis.Json in
  let roundtrips f =
    match J.parse (J.to_string (J.List [ J.Float f; J.Obj [ ("f", J.Float f) ] ])) with
    | Ok (J.List [ J.Float a; J.Obj [ ("f", J.Float b) ] ]) ->
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float f)
        && Int64.equal (Int64.bits_of_float b) (Int64.bits_of_float f)
    | _ -> false
  in
  let floats =
    QCheck.(
      oneof
        [
          map Int64.float_of_bits int64;
          (* integral floats in [1e16, 1.8e16), where the spacing is 2 *)
          map (fun k -> 1e16 +. (2. *. float_of_int k)) (int_bound 4_000_000_000);
          map float_of_int int;
          oneofl [ 0.; -0.; 1e16; 9.999999999999998e16; 1e17; 5e-324; Float.max_float ];
        ])
  in
  QCheck.Test.make ~name:"JSON floats round-trip as floats" ~count:2000 floats (fun f ->
      QCheck.assume (Float.is_finite f);
      roundtrips f)

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "flowtrace_tel" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Sink.jsonl oc in
  List.iter sink.Sink.emit sample_events;
  sink.Sink.close ();
  match Summary.load_jsonl path with
  | Error m -> Alcotest.fail m
  | Ok evs ->
      Alcotest.(check int) "event count" (List.length sample_events) (List.length evs);
      List.iter2
        (fun a b -> Alcotest.(check bool) "event round-trips" true (Event.equal a b))
        sample_events evs

let test_chrome_is_json_array () =
  let path = Filename.temp_file "flowtrace_tel" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Sink.chrome oc in
  List.iter sink.Sink.emit sample_events;
  sink.Sink.close ();
  let ic = open_in path in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  match Json.parse body with
  | Error m -> Alcotest.fail ("chrome output is not JSON: " ^ m)
  | Ok (Json.List entries) ->
      Alcotest.(check bool) "non-empty" true (entries <> []);
      List.iter
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.fail "trace_event entry lacks a \"ph\" phase")
        entries;
      (* a JSONL reader must reject this format with the helpful hint *)
      (let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       match Summary.load_jsonl path with
       | Error m -> Alcotest.(check bool) "hint mentions Chrome" true (contains m "Chrome")
       | Ok _ -> Alcotest.fail "load_jsonl accepted a Chrome trace")
  | Ok _ -> Alcotest.fail "chrome output is not a JSON array"

(* --- observation-only / no-op-when-disabled ------------------------- *)

let test_disabled_is_noop () =
  Tel.shutdown ();
  Tel.reset ();
  let c = Tel.Counter.v "test.noop_counter" in
  let g = Tel.Gauge.v "test.noop_gauge" in
  let h = Tel.Histogram.v "test.noop_hist" in
  Tel.Counter.add c 5;
  Tel.Gauge.set g 3.0;
  Tel.Gauge.max_ g 9.0;
  Tel.Histogram.observe h 1.0;
  Alcotest.(check int) "counter unchanged while disabled" 0 (Tel.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge unchanged while disabled" 0.0 (Tel.Gauge.value g);
  Alcotest.(check int) "histogram unchanged while disabled" 0 (Tel.Histogram.count h)

let test_selection_identical_enabled_vs_disabled () =
  let inter = Scenario.interleave Scenario.scenario1 in
  Tel.shutdown ();
  let off = Select.select inter ~buffer_width:32 in
  Tel.install Sink.null;
  let on_ = Fun.protect ~finally:Tel.shutdown (fun () -> Select.select inter ~buffer_width:32) in
  Alcotest.(check (list string))
    "selection identical" (Select.selected_names off) (Select.selected_names on_);
  Alcotest.(check (float 0.0)) "gain identical" off.Select.gain on_.Select.gain;
  Alcotest.(check (float 0.0)) "coverage identical" off.Select.coverage on_.Select.coverage

(* --- counter determinism across jobs -------------------------------- *)

let counters_of_run ~jobs inter ~buffer_width =
  Tel.install Sink.null;
  Fun.protect ~finally:Tel.shutdown @@ fun () ->
  ignore (Select.select ~jobs ~pack:false inter ~buffer_width);
  List.filter_map
    (function Event.Counter c when c.Event.c_value <> 0 -> Some (c.Event.c_name, c.Event.c_value) | _ -> None)
    (Tel.metrics ())

let pp_counters cs =
  String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) cs)

let check_counters_jobs_identical name inter ~buffer_width =
  (* warm the evaluator cache first (telemetry still off): scoring an
     interleave builds its cached evaluator once, so without this the
     jobs:1 run alone would carry infogain.evaluator_builds *)
  ignore (Select.select ~jobs:1 ~pack:false inter ~buffer_width);
  let c1 = counters_of_run ~jobs:1 inter ~buffer_width in
  let c2 = counters_of_run ~jobs:2 inter ~buffer_width in
  let c4 = counters_of_run ~jobs:4 inter ~buffer_width in
  Alcotest.(check string) (name ^ ": jobs 2 counters = jobs 1") (pp_counters c1) (pp_counters c2);
  Alcotest.(check string) (name ^ ": jobs 4 counters = jobs 1") (pp_counters c1) (pp_counters c4);
  Alcotest.(check bool)
    (name ^ ": candidates were actually counted")
    true
    (List.mem_assoc "select.candidates_streamed" c1)

let test_scenario_counters_jobs_identical () =
  check_counters_jobs_identical "scenario1"
    (Scenario.interleave Scenario.scenario1)
    ~buffer_width:32

let test_stress_counters_jobs_identical () =
  check_counters_jobs_identical "stress" (Stress.interleave ())
    ~buffer_width:Stress.default_buffer_width

(* --- pipeline integration -------------------------------------------- *)

let test_select_spans_and_counters_recorded () =
  let inter = Scenario.interleave Scenario.scenario2 in
  let sink, events = Sink.memory () in
  Tel.install sink;
  ignore (Select.select inter ~buffer_width:32);
  Tel.shutdown ();
  let evs = events () in
  let span_names =
    List.filter_map (function Event.Span s -> Some s.Event.sp_name | _ -> None) evs
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span recorded") true (List.mem n span_names))
    [ "select"; "select.step1_2"; "select.pack"; "select.coverage"; "infogain.evaluator" ];
  (* spans nest: step1_2's parent is the select span *)
  let find_span name =
    List.find_map
      (function Event.Span s when String.equal s.Event.sp_name name -> Some s | _ -> None)
      evs
  in
  (match (find_span "select", find_span "select.step1_2") with
  | Some sel, Some step ->
      Alcotest.(check (option int)) "step1_2 nests under select" (Some sel.Event.sp_id)
        step.Event.sp_parent
  | _ -> Alcotest.fail "missing select/select.step1_2 spans");
  let summary = Summary.of_events evs in
  Alcotest.(check bool) "summary has spans" true (summary.Summary.spans <> []);
  Alcotest.(check bool) "summary has counters" true (summary.Summary.counters <> [])

let sim_counters ~seed =
  Tel.install Sink.null;
  Fun.protect ~finally:Tel.shutdown @@ fun () ->
  ignore (Scenario.run ~config:{ Scenario.default_run with Scenario.seed; rounds = 6 } Scenario.scenario1);
  List.filter_map
    (function Event.Counter c when c.Event.c_value <> 0 -> Some (c.Event.c_name, c.Event.c_value) | _ -> None)
    (Tel.metrics ())

let test_sim_counters_reproducible () =
  let a = sim_counters ~seed:3 in
  let b = sim_counters ~seed:3 in
  Alcotest.(check string) "same-seed sim counters identical" (pp_counters a) (pp_counters b);
  Alcotest.(check bool) "fires counted" true (List.mem_assoc "soc.sim.fires" a);
  Alcotest.(check bool)
    "per-IP counters present" true
    (List.exists (fun (n, _) -> String.length n > 11 && String.sub n 0 11 = "soc.sim.ip.") a)

let test_debug_session_spans () =
  let sink, events = Sink.memory () in
  Tel.install sink;
  let s =
    Fun.protect ~finally:Tel.shutdown (fun () ->
        Session.run ~seed:11 ~rounds:12 ~scenario:Scenario.scenario1
          ~bugs:[ Flowtrace_bug.Catalog.by_id 33 ] ~buffer_width:32 ())
  in
  let evs = events () in
  let spans name =
    List.filter
      (function Event.Span sp when String.equal sp.Event.sp_name name -> true | _ -> false)
      evs
  in
  Alcotest.(check int) "one debug.session span" 1 (List.length (spans "debug.session"));
  Alcotest.(check int)
    "one step span per investigation step"
    (List.length s.Session.steps)
    (List.length (spans "debug.session.step"))

let () =
  Alcotest.run "telemetry"
    [
      ( "encoding",
        [
          Alcotest.test_case "event JSON round-trip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          Alcotest.test_case "JSONL file round-trip" `Quick test_jsonl_file_roundtrip;
          Alcotest.test_case "chrome sink emits a JSON array" `Quick test_chrome_is_json_array;
        ] );
      ( "purity",
        [
          Alcotest.test_case "metric updates are no-ops while disabled" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "selection identical enabled vs disabled" `Quick
            test_selection_identical_enabled_vs_disabled;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "scenario counters: jobs 1/2/4 identical" `Quick
            test_scenario_counters_jobs_identical;
          Alcotest.test_case "stress counters: jobs 1/2/4 identical" `Slow
            test_stress_counters_jobs_identical;
          Alcotest.test_case "sim counters reproducible per seed" `Quick
            test_sim_counters_reproducible;
        ] );
      ( "integration",
        [
          Alcotest.test_case "select spans + counters recorded" `Quick
            test_select_spans_and_counters_recorded;
          Alcotest.test_case "debug session spans" `Quick test_debug_session_spans;
        ] );
    ]
