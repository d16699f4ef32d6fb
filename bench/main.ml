(* The benchmark harness: regenerates every table and figure of the paper
   (the reproduction output recorded in EXPERIMENTS.md), then times each
   experiment's kernel with Bechamel — one Test.make per table/figure plus
   the core-algorithm micro-kernels and the selection stress workload.

   Options:
     --json FILE   also write the timings (and the memory probes) as JSON:
                   one entry per kernel/experiment — the BENCH_select.json
                   trajectory file is produced this way
     --quota SEC   Bechamel time quota per test (default 0.25)
     --no-tables   skip the table/figure regeneration pass *)

open Bechamel
open Flowtrace_core
open Flowtrace_soc
open Flowtrace_experiments
module Json = Flowtrace_analysis.Json

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate all tables and figures *)

let print_all_tables () =
  print_endline "==================================================================";
  print_endline " flowtrace: reproduction of every table and figure (DAC'18 paper)";
  print_endline "==================================================================";
  print_newline ();
  List.iter
    (fun (e : Registry.experiment) ->
      List.iter Table_render.print (e.Registry.run ()))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timings *)

let experiment_tests =
  List.map
    (fun (e : Registry.experiment) ->
      Test.make ~name:e.Registry.id (Staged.stage (fun () -> ignore (e.Registry.run ()))))
    Registry.all

(* The pre-PR list-based exact path, kept as the benchmark reference: Step 1
   materializes every candidate combination, then Step 2 scores the list. *)
let select_exact_list inter ~buffer_width =
  Select.step2 inter (Combination.enumerate (Interleave.messages inter) ~width:buffer_width)

(* Core micro-kernels, timed on Scenario 1's interleaving. *)
let kernel_tests =
  let sc = Scenario.scenario1 in
  let inter = Scenario.interleave sc in
  [
    Test.make ~name:"kernel_interleave"
      (Staged.stage (fun () -> ignore (Scenario.interleave sc)));
    Test.make ~name:"kernel_infogain_evaluator"
      (Staged.stage (fun () -> ignore (Infogain.evaluator inter)));
    Test.make ~name:"kernel_select_greedy"
      (Staged.stage (fun () ->
           ignore (Select.select ~strategy:Select.Greedy inter ~buffer_width:32)));
    Test.make ~name:"kernel_select_bitset"
      (Staged.stage (fun () ->
           ignore (Select.select ~strategy:Select.Exact inter ~buffer_width:32)));
    (* the same select on a prebuilt kernel: what a daemon session does
       per request minus the serving layer — the anchor of
       kernel_serve_select *)
    Test.make ~name:"kernel_select_resident"
      (Staged.stage
         (let kernel = Kernel.make inter in
          fun () -> ignore (Select.select ~strategy:Select.Exact ~kernel inter ~buffer_width:32)));
    (* delta re-selection seeded by the journalled best of a prior run at a
       neighboring buffer width — the --delta-from workload in miniature *)
    (Test.make ~name:"kernel_reselect")
      (Staged.stage
         (let seeds =
            [ List.map (fun (m : Message.t) -> m.Message.name)
                (Select.select inter ~buffer_width:30).Select.messages ]
          in
          fun () -> ignore (Select.reselect ~seeds inter ~buffer_width:32)));
    Test.make ~name:"kernel_total_paths"
      (Staged.stage (fun () -> ignore (Interleave.total_paths inter)));
    Test.make ~name:"kernel_sim_run"
      (Staged.stage (fun () -> ignore (Scenario.run_analysis ~seed:1 sc)));
    (* spec inference over a full scenario-1 monitor log, and the
       language-level scoring of the result against the ground truth *)
    (Test.make ~name:"kernel_mine_scenario1")
      (Staged.stage
         (let packets = (Scenario.run ~config:{ Scenario.default_run with Scenario.rounds = 12 } sc).Sim.packets in
          fun () ->
            ignore
              (Flowtrace_mining.Miner.mine ~catalog:T2.all_messages ~file:"bench" [ packets ])));
    (Test.make ~name:"kernel_mine_score")
      (Staged.stage
         (let packets = (Scenario.run ~config:{ Scenario.default_run with Scenario.rounds = 12 } sc).Sim.packets in
          let result = Flowtrace_mining.Miner.mine ~catalog:T2.all_messages ~file:"bench" [ packets ] in
          let mined = List.map (fun m -> m.Flowtrace_mining.Miner.m_flow) result.Flowtrace_mining.Miner.r_flows in
          fun () -> ignore (Flowtrace_mining.Score.score ~truth:T2.flows mined)));
  ]

(* The daemon's dispatch path on the same Scenario-1 selection the bare
   kernels time: one request line through Proto parsing, admission
   control, per-request supervision and response rendering, on the
   session's resident kernel. The ratio over kernel_select_resident (the
   same exact width-32 selection on a prebuilt kernel) is the whole
   per-request serving overhead — that ratio is what the CI bench gate
   holds. *)

module Service = Flowtrace_service

let serve_req fields = Json.to_string (Json.Obj fields)

let serve_open ~session =
  serve_req
    [
      ("op", Json.String "open-session");
      ("session", Json.String session);
      ("spec", Json.String (Spec_parser.print_flows (Scenario.flows Scenario.scenario1)));
      ( "instances",
        Json.Obj
          (List.map
             (fun (n, k) -> (n, Json.Int k))
             Scenario.scenario1.Scenario.analysis_counts) );
      ("width", Json.Int 32);
    ]

let serve_select ~session ~width =
  serve_req
    [
      ("op", Json.String "select");
      ("session", Json.String session);
      ("width", Json.Int width);
    ]

let serve_dispatcher n_sessions =
  let disp, _ = Service.Dispatch.create ~shards:4 () in
  for i = 1 to n_sessions do
    ignore (Service.Dispatch.handle disp (serve_open ~session:(Printf.sprintf "s%d" i)))
  done;
  disp

let serve_tests =
  let disp = serve_dispatcher 1 in
  let line = serve_select ~session:"s1" ~width:32 in
  [
    Test.make ~name:"kernel_serve_select"
      (Staged.stage (fun () -> ignore (Service.Dispatch.handle disp line)));
  ]

(* fsck over a populated state dir: 32 sealed session files classified
   through the fault vfs, so the timing isolates the scan/parse kernel
   from physical disk cost. The CI gate holds its ratio over
   kernel_serve_select — integrity checking must stay in the same cost
   class as serving one request, or resume-time repair would become the
   daemon's startup bottleneck. *)
let fsck_tests =
  let module Vfs = Flowtrace_runtime.Vfs in
  let fs = Vfs.Fault.create () in
  let vfs = Vfs.Fault.vfs fs in
  let spec = Spec_parser.print_flows (Scenario.flows Scenario.scenario1) in
  for i = 1 to 32 do
    Service.Store.save ~vfs ~dir:"/state"
      {
        Service.Store.se_id = Printf.sprintf "s%02d" i;
        se_tenant = "bench";
        se_width = 32;
        se_strategy = Select.Greedy;
        se_instances = Scenario.scenario1.Scenario.analysis_counts;
        se_spec = spec;
      }
  done;
  [
    Test.make ~name:"kernel_fsck_scan"
      (Staged.stage (fun () -> ignore (Service.Fsck.scan ~vfs "/state")));
  ]

(* Saturation: requests/sec against one dispatcher as concurrent sessions
   grow. One client domain per session drives Dispatch.handle directly
   (no sockets), so the curve isolates the serving layer — shard locking,
   admission, supervision, rendering — from kernel and event-loop cost. *)
let serve_saturation () =
  let per_session = 40 in
  List.map
    (fun n ->
      let disp = serve_dispatcher n in
      let t0 = Unix.gettimeofday () in
      let doms =
        List.init n (fun i ->
            Domain.spawn (fun () ->
                let line = serve_select ~session:(Printf.sprintf "s%d" (i + 1)) ~width:16 in
                for _ = 1 to per_session do
                  ignore (Service.Dispatch.handle disp line)
                done))
      in
      List.iter Domain.join doms;
      let dt = Unix.gettimeofday () -. t0 in
      ( Printf.sprintf "serve_rps_%d_sessions" n,
        n,
        float_of_int (n * per_session) /. Float.max dt 1e-9 ))
    [ 1; 2; 4; 8 ]

(* The selection stress workload (Stress): hundreds of thousands of
   candidate combinations. Compares the brute-force list path against
   the selection kernel, plain and supervised. *)
let stress_tests =
  let inter = Stress.interleave () in
  let w = Stress.default_buffer_width in
  let kernel = Kernel.make inter in
  [
    (* building the (2,1,2) stress product: what opening a stress session
       spends beyond parsing its spec *)
    Test.make ~name:"stress_interleave" (Staged.stage (fun () -> ignore (Stress.interleave ())));
    (* an evaluator build on a cold cache: two interleavings of the same
       mix alternate, so the one-slot cache misses on every call — what a
       stress session's first select pays for its kernel's terms *)
    Test.make ~name:"stress_evaluator_cold"
      (Staged.stage
         (let pair = [| inter; Stress.interleave () |] and k = ref 0 in
          fun () ->
            incr k;
            ignore (Infogain.evaluator pair.(!k land 1))));
    (* a select as a daemon session runs it, with no Step 3: a prebuilt
       kernel, so no Kernel.make (most of stress_select_bitset) — only
       admission, the bound table, the walk and the coverage fold *)
    Test.make ~name:"stress_walk_resident"
      (Staged.stage (fun () -> ignore (Select.select ~pack:false ~kernel inter ~buffer_width:w)));
    (* the same select under a deadline that never expires: the budgeted
       path (Kernel.search on the fixed-depth plan, seed incumbent) *)
    Test.make ~name:"stress_walk_budgeted_resident"
      (Staged.stage
         (let deadline = Unix.gettimeofday () +. (365.0 *. 86400.0) in
          fun () -> ignore (Select.select ~deadline ~pack:false ~kernel inter ~buffer_width:w)));
    (* Definition 7 on a prebuilt kernel for the workload's exact
       selection: the word-OR/popcount fold every select ends with *)
    Test.make ~name:"stress_coverage_resident"
      (Staged.stage
         (let chosen = (Select.select ~pack:false ~kernel inter ~buffer_width:w).Select.messages in
          let selected name = List.exists (fun (m : Message.t) -> String.equal m.Message.name name) chosen in
          fun () -> ignore (Kernel.coverage kernel ~selected)));
    Test.make ~name:"stress_select_exact_list"
      (Staged.stage (fun () -> ignore (select_exact_list inter ~buffer_width:w)));
    Test.make ~name:"stress_select_bitset"
      (Staged.stage (fun () -> ignore (Select.select ~pack:false inter ~buffer_width:w)));
    Test.make ~name:"stress_select_greedy"
      (Staged.stage (fun () ->
           ignore (Select.select ~strategy:Select.Greedy ~pack:false inter ~buffer_width:w)));
    (* the supervised engine on the same workload: its task loop, mutex
       publication and per-task ticked walks are the overhead the runtime
       layer charges over the bare kernel *)
    Test.make ~name:"stress_select_supervised"
      (Staged.stage (fun () ->
           ignore
             (Flowtrace_runtime.Engine.select ~pack:false inter ~buffer_width:w)));
  ]

let benchmark ~quota =
  let test =
    Test.make_grouped ~name:"flowtrace"
      (experiment_tests @ kernel_tests @ serve_tests @ fsck_tests @ stress_tests)
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort compare rows in
  print_endline "== Bechamel timings (monotonic clock, ns per run) ==";
  List.filter_map
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with Some [ e ] -> Some e | _ -> None
      in
      Printf.printf "%-40s %s\n" name
        (match est with Some e -> Printf.sprintf "%12.0f ns" e | None -> "n/a");
      Option.map (fun e -> (name, e)) est)
    rows

(* ------------------------------------------------------------------ *)
(* Memory probes: words allocated and peak heap for one run of each exact
   path on the stress workload. The kernel's peak does not scale with the
   candidate count — the list path's does. *)

let memory_probes () =
  let inter = Stress.interleave () in
  let w = Stress.default_buffer_width in
  let probe name f =
    Gc.compact ();
    let s0 = Gc.quick_stat () in
    ignore (f ());
    (* words still in the minor heap only reach the counters at the next
       minor collection; a run smaller than the minor heap would read 0 *)
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    let allocated =
      s1.Gc.minor_words +. s1.Gc.major_words -. s1.Gc.promoted_words
      -. (s0.Gc.minor_words +. s0.Gc.major_words -. s0.Gc.promoted_words)
    in
    [
      (name ^ "_allocated_words", allocated);
      (name ^ "_peak_heap_words", float_of_int s1.Gc.top_heap_words);
    ]
  in
  (* the kernel first so the list path's heap growth cannot mask it *)
  probe "stress_exact_bitset" (fun () -> Select.select ~pack:false inter ~buffer_width:w)
  @ probe "stress_exact_list" (fun () -> select_exact_list inter ~buffer_width:w)

(* ------------------------------------------------------------------ *)
(* Counter provenance: one instrumented kernel run of the stress
   workload, recorded into the bench JSON so a timing regression can be
   cross-checked against the work actually done (did the candidate count
   change, or just the clock?). Uses the null sink — counters only. *)

let telemetry_provenance () =
  let module Tel = Flowtrace_telemetry.Telemetry in
  let module Event = Flowtrace_telemetry.Event in
  let inter = Stress.interleave () in
  Tel.install Flowtrace_telemetry.Sink.null;
  Fun.protect ~finally:Tel.shutdown @@ fun () ->
  ignore (Select.select ~pack:false inter ~buffer_width:Stress.default_buffer_width);
  List.filter_map
    (function
      | Event.Counter c when c.Event.c_value <> 0 -> Some (c.Event.c_name, c.Event.c_value)
      | _ -> None)
    (Tel.metrics ())

(* ------------------------------------------------------------------ *)

let write_json file rows probes counters saturation =
  let classify name =
    (* strip the Bechamel group prefix ("flowtrace/") *)
    let base =
      match String.rindex_opt name '/' with
      | Some i -> String.sub name (i + 1) (String.length name - i - 1)
      | None -> name
    in
    if String.length base >= 7 && String.sub base 0 7 = "stress_" then "stress"
    else if String.length base >= 7 && String.sub base 0 7 = "kernel_" then "kernel"
    else "experiment"
  in
  let entry (name, ns) =
    (* round to whole nanoseconds: raw OLS estimates carry ~15 digits of
       run-to-run noise, which churned every committed trajectory diff *)
    Json.Obj
      [ ("name", Json.String name); ("kind", Json.String (classify name));
        ("ns_per_run", Json.Float (Float.round ns)) ]
  in
  let probe_entry (name, v) =
    Json.Obj
      [ ("name", Json.String name); ("kind", Json.String "memory"); ("words", Json.Float v) ]
  in
  let counter_entry (name, v) =
    Json.Obj
      [ ("name", Json.String name); ("kind", Json.String "counter"); ("value", Json.Int v) ]
  in
  let serve_entry (name, sessions, rps) =
    Json.Obj
      [
        ("name", Json.String name); ("kind", Json.String "serve");
        ("sessions", Json.Int sessions);
        ("requests_per_sec", Json.Float (Float.round rps));
      ]
  in
  let doc =
    Json.Obj
      [
        ("suite", Json.String "flowtrace");
        ("schema", Json.String "bench/v1");
        ( "entries",
          Json.List
            (List.map entry rows @ List.map probe_entry probes
            @ List.map counter_entry counters
            @ List.map serve_entry saturation) );
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string_pretty doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "bench timings written to %s\n" file

let () =
  let json_file = ref None in
  let quota = ref 0.25 in
  let tables = ref true in
  let spec =
    [
      ("--json", Arg.String (fun s -> json_file := Some s), "FILE also write timings as JSON");
      ("--quota", Arg.Set_float quota, "SEC Bechamel quota per test (default 0.25)");
      ("--no-tables", Arg.Clear tables, " skip the table/figure regeneration pass");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--json FILE] [--quota SEC] [--no-tables]";
  if !tables then begin
    print_all_tables ();
    print_newline ()
  end;
  let rows = benchmark ~quota:!quota in
  let probes = memory_probes () in
  List.iter (fun (n, v) -> Printf.printf "%-40s %12.0f words\n" n v) probes;
  let counters = telemetry_provenance () in
  List.iter (fun (n, v) -> Printf.printf "%-40s %12d\n" n v) counters;
  let saturation = serve_saturation () in
  List.iter
    (fun (n, _, rps) -> Printf.printf "%-40s %12.0f req/s\n" n rps)
    saturation;
  match !json_file with
  | None -> ()
  | Some file -> write_json file rows probes counters saturation
