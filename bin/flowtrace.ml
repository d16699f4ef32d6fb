(* The flowtrace command-line tool.

   Subcommands:
     select      select trace messages for flows in a spec file
     interleave  report the interleaved flow of a spec file
     localize    count executions consistent with an observed trace
     lint        statically check each flow of a spec file (FL0xx diagnostics)
     check       whole-scenario debuggability analysis (FC0xx diagnostics)
     tables      regenerate the paper's tables and figures
     scenarios   show the built-in OpenSPARC T2 scenarios
     stats       replay a recorded telemetry file into aggregate tables *)

open Cmdliner
open Flowtrace_core
module Telemetry = Flowtrace_telemetry.Telemetry
module Engine = Flowtrace_runtime.Engine
module Journal = Flowtrace_runtime.Journal

module Op = Flowtrace_service.Op

(* --- arguments ----------------------------------------------------- *)

let spec_file =
  let doc = "Flow specification file (see the README for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)

let width =
  let doc = "Trace buffer width in bits." in
  Arg.(value & opt int 32 & info [ "w"; "width" ] ~docv:"BITS" ~doc)

let strategy =
  let doc = "Candidate search strategy: $(b,exact), $(b,exact-maximal) or $(b,greedy)." in
  let strategies = Arg.enum Select.strategies in
  Arg.(value & opt strategies Select.Exact & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

let no_pack =
  let doc = "Disable Step-3 packing of leftover buffer bits." in
  Arg.(value & flag & info [ "no-pack" ] ~doc)

let instances =
  let doc =
    "Instance counts as $(b,FLOW=N) (repeatable). Default: one instance of every flow in the \
     file."
  in
  let inst_conv =
    let parse s =
      match String.split_on_char '=' s with
      | [ name; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (name, n)
          | _ -> Error (`Msg "expected FLOW=N with positive N"))
      | _ -> Error (`Msg "expected FLOW=N")
    in
    Arg.conv (parse, fun ppf (n, c) -> Format.fprintf ppf "%s=%d" n c)
  in
  Arg.(value & opt_all inst_conv [] & info [ "i"; "instances" ] ~docv:"FLOW=N" ~doc)

let trace_arg =
  let doc =
    "Observed trace: whitespace-separated indexed messages like $(b,1:ReqE 2:GntE). Omit it \
     when reading the observation from $(b,--trace-file)."
  in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"TRACE" ~doc)

let jobs =
  let doc = "Domains to fan the exact Step-1/2 subset-tree walk across (1 = sequential)." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let limit =
  let doc =
    "Candidate-combination budget for exact Step-1 enumeration. Past it selection aborts with \
     a hint to use $(b,--strategy greedy) or a higher limit."
  in
  Arg.(value & opt int Combination.default_limit & info [ "limit" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget in seconds. When it expires mid-search the run degrades to an anytime \
     result: the best candidate streamed so far, or the greedy baseline if none completed \
     (the result box then carries a $(b,tier:) line and the exit status is 3). A zero or \
     negative budget is already expired."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc)

let max_candidates_arg =
  let doc =
    "Candidate budget: stop the exact Step-1/2 walk after exploring $(docv) candidates and \
     return the best seen (tier $(b,anytime), exit status 3). Unlike $(b,--limit) this \
     degrades instead of failing."
  in
  Arg.(value & opt (some int) None & info [ "max-candidates" ] ~docv:"N" ~doc)

let checkpoint_arg =
  let doc =
    "Journal selection progress to $(docv) (crash-safe: written whole, then renamed into \
     place) so a killed run can be picked up with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume from the journal at $(docv) (and keep checkpointing to it). Completed subset-tree \
     tasks are skipped; the finished run's answer is bit-identical to an uninterrupted one. A \
     missing journal starts fresh."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let retries_arg =
  let doc =
    "Extra attempts for a worker task that dies (supervised runs only, i.e. with \
     $(b,--checkpoint)/$(b,--resume)). Tasks still failing after that are dropped from the \
     search and the result is reported partial."
  in
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)

let delta_from_arg =
  let doc =
    "Delta re-selection: seed the exact search with the journalled bests of a prior run at \
     $(docv) (no fingerprint match required — the point is replaying against a $(i,modified) \
     scenario). Feasible seeds prune the walk as branch-and-bound incumbents; the answer is \
     bit-identical to a from-scratch run but re-scores strictly fewer candidates when any \
     seed survives the change. Incompatible with $(b,--checkpoint)/$(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "delta-from" ] ~docv:"FILE" ~doc)

let telemetry_arg =
  let doc =
    "Record runtime telemetry (spans, counters, gauges, histograms) to $(docv). The format \
     follows the extension: $(b,.jsonl) writes one JSON event per line (replayable with \
     $(b,flowtrace stats)), $(b,.json)/$(b,.trace) writes a Chrome $(i,trace_event) file for \
     about://tracing, anything else writes human-readable text."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

(* Bracket a command with telemetry recording: install the sink before the
   work, flush and close it afterwards even if the command dies. *)
let with_telemetry tel f =
  match tel with
  | None -> f ()
  | Some path ->
      Telemetry.install
        ~meta:[ ("tool", Flowtrace_telemetry.Event.Str "flowtrace") ]
        (Flowtrace_telemetry.Sink.of_path path);
      Fun.protect ~finally:Telemetry.shutdown f

let or_die = function
  | Ok v -> v
  | Error m ->
      Printf.eprintf "flowtrace: %s\n" m;
      exit 1

let render_diags diags =
  if diags <> [] then Printf.eprintf "%s%!" (Flowtrace_analysis.Diagnostic.render_all diags)

let journal_or_die file = function
  | Ok v -> v
  | Error diags ->
      render_diags diags;
      Printf.eprintf "flowtrace: cannot use journal %s\n" file;
      exit 1

(* Load a packet trace for a subcommand: I/O and parse failures become
   positioned one-line errors (file:line) through [or_die], never a
   backtrace. With [recover], malformed lines are skipped under
   [Trace_io.parse_lenient]'s error budget and reported on stderr. *)
let load_trace_or_die ~recover path =
  let open Flowtrace_soc in
  try
    if recover then begin
      let packets, diags = Trace_io.load_lenient path in
      render_diags diags;
      packets
    end
    else Trace_io.load path
  with
  | Trace_io.Parse_error e ->
      or_die (Error (Printf.sprintf "%s:%d: %s" path e.Trace_io.line e.Trace_io.message))
  | Sys_error m -> or_die (Error m)

let obs_faults_arg =
  let doc =
    "Observation-path fault spec: comma-separated $(b,key=value) among $(b,drop=P) and \
     $(b,corrupt=P) (probabilities), $(b,reorder=W) (local window), $(b,blackout=A-B) \
     (cycle range, repeatable) and $(b,trunc=N) (keep first N packets). Example: \
     $(b,drop=0.1,reorder=3)."
  in
  Arg.(value & opt (some string) None & info [ "obs-faults" ] ~docv:"SPEC" ~doc)

let parse_obs_faults = function
  | None -> Flowtrace_soc.Obs_fault.none
  | Some s -> or_die (Flowtrace_soc.Obs_fault.parse_spec s)

let scenario_or_die path counts = fst (or_die (Op.scenario (Op.File path) counts))

(* A failed selection request as a one-line error: rejected inputs as
   they are, selection failures positioned on the spec, the Too_many
   blow-up with an actionable hint. *)
let op_or_die ~path = function
  | Ok v -> v
  | Error (Op.Invalid m) -> or_die (Error m)
  | Error e ->
      let hint =
        match e with Op.Too_many _ -> "; use --strategy greedy or raise --limit" | _ -> ""
      in
      or_die (Error (Printf.sprintf "%s: %s%s" path (Op.message e) hint))

let select_or_die ~path ?strategy ?jobs ?limit inter ~buffer_width =
  op_or_die ~path
    (Op.guard ~buffer_width (fun () -> Select.select ?strategy ?jobs ?limit inter ~buffer_width))

(* --- commands ------------------------------------------------------ *)

let select_cmd =
  let run path counts width strategy no_pack jobs limit deadline max_candidates checkpoint
      resume retries delta_from tel =
    (* compute the exit code inside the telemetry bracket so a degraded
       exit still flushes the recording, then exit outside it *)
    let code =
      with_telemetry tel @@ fun () ->
      let inter = scenario_or_die path counts in
      (* --deadline is relative on the command line, absolute in the API *)
      let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline in
      let pack = not no_pack in
      if delta_from <> None && (checkpoint <> None || resume <> None) then
        or_die (Error "--delta-from replays a finished journal; it cannot be combined with \
                       --checkpoint/--resume");
      let ckpt, resuming =
        match (resume, checkpoint) with
        | Some r, Some c when not (String.equal r c) ->
            or_die (Error "give --resume FILE or --checkpoint FILE, not two different files")
        | Some r, _ -> (Some r, true)
        | None, c -> (c, false)
      in
      (* deliberately no fingerprint check on --delta-from: the journal
         came from a prior revision of the scenario, which is the whole
         point *)
      let seeds =
        Option.map
          (fun file ->
            let snap, warns = journal_or_die file (Journal.load file) in
            render_diags warns;
            (match snap.Journal.s_best with Some b -> [ b.Journal.b_names ] | None -> [])
            @ List.map (fun (_, (b : Journal.best)) -> b.Journal.b_names) snap.Journal.s_task_bests)
          delta_from
      in
      (* each branch selects under the one guard and returns how to
         print its answer and the exit code *)
      let answer =
        op_or_die ~path @@ Op.guard ~buffer_width:width
        @@ fun () ->
        let exit_of r = if Select.Tier.is_degraded r.Select.tier then 3 else 0 in
        match (seeds, ckpt) with
        | Some seeds, _ ->
            let r, stats =
              Select.reselect ~strategy ~limit ~jobs ?deadline ?max_candidates ~pack ~seeds inter
                ~buffer_width:width
            in
            fun () ->
              Format.printf "%a@." Select.pp_result r;
              (match stats with
              | Some s ->
                  Format.printf
                    "delta: %d seed%s, %d candidates re-scored, %d subtree%s pruned@."
                    s.Select.rs_seeds
                    (if s.Select.rs_seeds = 1 then "" else "s")
                    s.Select.rs_scored s.Select.rs_pruned_subtrees
                    (if s.Select.rs_pruned_subtrees = 1 then "" else "s")
              | None -> Format.printf "delta: seeds unusable here; ran a full selection@.");
              exit_of r
        | None, None ->
            (* unsupervised: budgets run inside the core engine *)
            let r =
              Select.select ~strategy ~jobs ~limit ?deadline ?max_candidates ~pack inter
                ~buffer_width:width
            in
            fun () ->
              Format.printf "%a@." Select.pp_result r;
              exit_of r
        | None, Some file ->
            let o =
              journal_or_die file
                (Engine.select ~strategy ~limit ~jobs ~retries ?deadline ?max_candidates
                   ~checkpoint:file ~resume:resuming ~pack inter ~buffer_width:width)
            in
            fun () ->
              render_diags o.Engine.o_diags;
              Format.printf "%a@." Select.pp_result o.Engine.o_result;
              Format.printf "%a@." Engine.pp_outcome o;
              if o.Engine.o_status = Engine.Partial then 3 else 0
      in
      answer ()
    in
    if code <> 0 then exit code
  in
  let doc = "Select trace messages for the flows of a spec file." in
  Cmd.v (Cmd.info "select" ~doc)
    Term.(
      const run $ spec_file $ instances $ width $ strategy $ no_pack $ jobs $ limit
      $ deadline_arg $ max_candidates_arg $ checkpoint_arg $ resume_arg $ retries_arg
      $ delta_from_arg $ telemetry_arg)

let interleave_cmd =
  let run path counts =
    let inter = scenario_or_die path counts in
    Format.printf "%a@." Stats.pp (Stats.compute inter);
    Format.printf "message pool: %s@."
      (String.concat ", " (List.map Message.to_string (Interleave.messages inter)))
  in
  let doc = "Report the interleaved flow of a spec file." in
  Cmd.v (Cmd.info "interleave" ~doc) Term.(const run $ spec_file $ instances)

let localize_cmd =
  let trace_file_arg =
    let doc =
      "Read the observation from a packet trace file (as written by $(b,simulate -o)) instead \
       of the TRACE argument; packets outside the selection are projected away."
    in
    Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc)
  in
  let recover_arg =
    let doc =
      "With $(b,--trace-file): skip malformed trace lines (reported on stderr) instead of \
       failing on the first one."
    in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let lossy_arg =
    let doc =
      "Gap-tolerant matching: treat the observation as a subsequence of each execution's \
       projection (the trace may have lost entries) instead of requiring an exact prefix."
    in
    Arg.(value & flag & info [ "lossy" ] ~doc)
  in
  let skip_budget_arg =
    let doc = "Skip budget for $(b,--lossy): lost or bogus observation entries tolerated." in
    Arg.(value & opt int 2 & info [ "skip-budget" ] ~docv:"N" ~doc)
  in
  let run path counts trace trace_file recover lossy skip_budget width strategy tel =
    with_telemetry tel @@ fun () ->
    let inter = scenario_or_die path counts in
    let observation =
      match (trace, trace_file) with
      | Some _, Some _ -> or_die (Error "give either a TRACE argument or --trace-file, not both")
      | None, None -> or_die (Error "no observation given (TRACE argument or --trace-file)")
      | Some trace, None -> Op.Tokens (String.split_on_char ' ' trace)
      | None, Some file ->
          Op.Packets (List.map Flowtrace_soc.Packet.indexed (load_trace_or_die ~recover file))
    in
    let l =
      op_or_die ~path
        (Op.localize ~strategy inter ~buffer_width:width ~lossy ~skip_budget observation)
    in
    Format.printf "selection: %s@." (String.concat ", " (Select.selected_names l.Op.selection));
    Format.printf "consistent executions: %d of %d (%.4f%%)@." l.Op.consistent l.Op.total
      (100.0 *. l.Op.fraction);
    Option.iter
      (fun r ->
        Format.printf
          "lossy: %d observation entr%s discarded to resynchronize, >=%d emission%s skipped, \
           budget %d, confidence %.2f@."
          r.Localize.lr_discarded
          (if r.Localize.lr_discarded = 1 then "y" else "ies")
          r.Localize.lr_skips
          (if r.Localize.lr_skips = 1 then "" else "s")
          r.Localize.lr_budget r.Localize.lr_confidence)
      l.Op.lossy
  in
  let doc = "Count executions prefix-consistent with an observed trace." in
  Cmd.v (Cmd.info "localize" ~doc)
    Term.(
      const run $ spec_file $ instances $ trace_arg $ trace_file_arg $ recover_arg $ lossy_arg
      $ skip_budget_arg $ width $ strategy $ telemetry_arg)

let tables_cmd =
  let ids =
    let doc = "Experiment ids to run (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids =
    let module R = Flowtrace_experiments.Registry in
    let module T = Flowtrace_experiments.Table_render in
    let ids = if ids = [] then R.ids else ids in
    List.iter
      (fun id ->
        match R.find id with
        | Some e -> List.iter T.print (e.R.run ())
        | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" id (String.concat " " R.ids);
            exit 1)
      ids
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ ids)

let explain_cmd =
  let run path counts width strategy jobs limit tel =
    with_telemetry tel @@ fun () ->
    let inter = scenario_or_die path counts in
    let r = select_or_die ~path ~strategy ~jobs ~limit inter ~buffer_width:width in
    Format.printf "%a@.@." Select.pp_result r;
    List.iter
      (fun c -> Format.printf "%a@." Select.pp_contribution c)
      (Select.explain inter r)
  in
  let doc = "Rank every message of a spec file by information contribution." in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ spec_file $ instances $ width $ strategy $ jobs $ limit $ telemetry_arg)

let simulate_cmd =
  let open Flowtrace_soc in
  let scenario_arg =
    let doc = "T2 usage scenario id (1-3)." in
    Arg.(value & opt int 1 & info [ "scenario" ] ~docv:"ID" ~doc)
  in
  let bug_arg =
    let doc = "Catalog bug id to inject (repeatable)." in
    Arg.(value & opt_all int [] & info [ "bug" ] ~docv:"ID" ~doc)
  in
  let rounds_arg =
    let doc = "Workload rounds (one instance of each flow per round)." in
    Arg.(value & opt int 20 & info [ "rounds" ] ~doc)
  in
  let seed_arg =
    let doc = "Workload seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let out_arg =
    let doc = "Save the packet trace to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let overflow_arg =
    let doc =
      "Feed the (faulted) packet log through a trace buffer with this overflow policy: \
       $(b,oldest) (wrap-around), $(b,newest) (freeze when full) or $(b,sample:K) (keep every \
       K-th observable occurrence)."
    in
    Arg.(value & opt (some string) None & info [ "overflow" ] ~docv:"POLICY" ~doc)
  in
  let depth_arg =
    let doc = "Trace buffer depth in entries (with $(b,--overflow))." in
    Arg.(value & opt int 256 & info [ "depth" ] ~docv:"N" ~doc)
  in
  let run scenario bugs rounds seed out obs_faults overflow depth width tel =
    with_telemetry tel @@ fun () ->
    let sc = try Scenario.by_id scenario with Invalid_argument m -> or_die (Error m) in
    let bugs =
      List.map
        (fun id ->
          try Flowtrace_bug.Catalog.by_id id with Invalid_argument m -> or_die (Error m))
        bugs
    in
    let spec = parse_obs_faults obs_faults in
    let policy =
      Option.map (fun s -> or_die (Trace_buffer.parse_policy s)) overflow
    in
    let config = { Scenario.default_run with Scenario.rounds; seed } in
    let outcome = Scenario.run ~config ~mutators:(Flowtrace_bug.Inject.mutators bugs) sc in
    Format.printf "%s: %d packets, %d completed, %d hung, %d failures, %d cycles@."
      sc.Scenario.name
      (List.length outcome.Sim.packets)
      (List.length outcome.Sim.completed)
      (List.length outcome.Sim.hung)
      (List.length outcome.Sim.failures)
      outcome.Sim.end_cycle;
    List.iter
      (fun (f : Sim.failure) -> Format.printf "  [%d] %s at %s@." f.Sim.f_cycle f.Sim.f_desc f.Sim.f_ip)
      outcome.Sim.failures;
    (match Flowtrace_bug.Inject.symptom_of outcome with
    | Flowtrace_bug.Inject.No_symptom -> ()
    | s -> Format.printf "symptom: %s@." (Flowtrace_bug.Inject.symptom_to_string s));
    let packets =
      if Obs_fault.is_none spec then outcome.Sim.packets
      else begin
        let faulted, rep = Obs_fault.apply ~seed spec outcome.Sim.packets in
        Format.printf "%s@." (Obs_fault.report_to_string rep);
        faulted
      end
    in
    (match policy with
    | None -> ()
    | Some policy ->
        let inter = Scenario.interleave sc in
        let sel =
          select_or_die ~path:sc.Scenario.name ~strategy:Select.Greedy inter ~buffer_width:width
        in
        let buf = Trace_buffer.create ~policy ~depth sel in
        Trace_buffer.record_all buf packets;
        let recorded, lost = Trace_buffer.stats buf in
        let overwritten, refused, sampled_out = Trace_buffer.drop_breakdown buf in
        Format.printf
          "trace buffer (policy %s, depth %d, width %d bits): %d entries retained, %d recorded, \
           %d lost (%d overwritten, %d refused, %d sampled out)@."
          (Trace_buffer.policy_to_string policy)
          depth width
          (List.length (Trace_buffer.entries buf))
          recorded lost overwritten refused sampled_out);
    match out with
    | None -> ()
    | Some file -> (
        match (try Ok (Trace_io.save file packets) with Sys_error m -> Error m) with
        | Error m -> or_die (Error m)
        | Ok () -> Format.printf "trace written to %s@." file)
  in
  let doc = "Simulate a T2 usage scenario, optionally with injected bugs." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ scenario_arg $ bug_arg $ rounds_arg $ seed_arg $ out_arg $ obs_faults_arg
      $ overflow_arg $ depth_arg $ width $ telemetry_arg)

let debug_cmd =
  let case_arg =
    let doc = "Case study id (1-5)." in
    Arg.(value & opt int 1 & info [ "case" ] ~docv:"ID" ~doc)
  in
  let rounds_arg =
    let doc = "Workload rounds." in
    Arg.(value & opt int 40 & info [ "rounds" ] ~doc)
  in
  let run case rounds obs_faults tel =
    with_telemetry tel @@ fun () ->
    let open Flowtrace_debug in
    let cs = try Case_study.by_id case with Invalid_argument m -> or_die (Error m) in
    let spec = parse_obs_faults obs_faults in
    Report.print (Case_study.run ~rounds ~obs_faults:spec cs)
  in
  let doc = "Run a T2 debugging case study and print the session report." in
  Cmd.v (Cmd.info "debug" ~doc)
    Term.(const run $ case_arg $ rounds_arg $ obs_faults_arg $ telemetry_arg)

let dot_cmd =
  let out =
    let doc = "Write DOT to $(docv) instead of stdout." in
    Cmdliner.Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let interleaved =
    let doc = "Export the interleaving of the instances instead of each flow." in
    Cmdliner.Arg.(value & flag & info [ "interleaved" ] ~doc)
  in
  let run path counts interleaved out =
    let dot =
      if interleaved then Dot.of_interleave (scenario_or_die path counts)
      else String.concat "\n" (List.map Dot.of_flow (or_die (Op.load_flows (Op.File path))))
    in
    match out with
    | None -> print_string dot
    | Some file ->
        let oc = open_out file in
        output_string oc dot;
        close_out oc
  in
  let doc = "Export flows (or their interleaving) as Graphviz DOT." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ spec_file $ instances $ interleaved $ out)

(* --- diagnostics reports (lint, check) ------------------------------ *)

let json_arg =
  let doc = "Emit the diagnostics as a JSON report instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let werror_arg =
  let doc = "Promote warnings to errors (the exit status then reflects them)." in
  Arg.(value & flag & info [ "werror" ] ~doc)

let spec_files doc = Arg.(value & pos_all file [] & info [] ~docv:"SPEC" ~doc)

(* Run a lint/check pass: print the rule [catalog] under --list-rules
   (--json lists every namespace), else [diags_of] each spec, print the
   report (text ending in a summary that counts the specs as [noun]s, or
   JSON) and exit with its status; [degraded] marks truncated analysis. *)
let report_and_exit ~tool ~noun ~catalog ~json ~werror ~list_rules ?(degraded = fun _ -> false)
    specs diags_of =
  let open Flowtrace_analysis in
  if list_rules then print_string (if json then Check.catalog_json () else catalog ())
  else begin
    if specs = [] then or_die (Error "no spec files given (try --list-rules for the catalog)");
    let diags = List.concat_map diags_of specs in
    let diags = if werror then List.map Diagnostic.promote_warnings diags else diags in
    let diags = Diagnostic.sort_report diags in
    let n = List.length specs in
    if json then print_endline (Diagnostic.render_json diags)
    else begin
      print_string (Diagnostic.render_all diags);
      Printf.printf "flowtrace %s: %d %s%s checked: %s\n" tool n noun
        (if n = 1 then "" else "s")
        (Diagnostic.summary diags)
    end;
    match Diagnostic.exit_code ~degraded:(degraded diags) diags with 0 -> () | n -> exit n
  end

let lint_cmd =
  let open Flowtrace_analysis in
  let list_rules =
    let doc = "Print the rule catalog (code, severity, what is checked) and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let topology =
    let doc =
      "IP topology to check message endpoints against: $(b,none) or $(b,t2) (the OpenSPARC T2 \
       platform, also valid for its DMA extension flows)."
    in
    Arg.(value & opt (enum [ ("none", `None); ("t2", `T2) ]) `None & info [ "topology" ] ~docv:"TOPO" ~doc)
  in
  let max_states =
    let doc = "Interleaving product-state bound rule FL014 warns against." in
    Arg.(value & opt int 2_000_000 & info [ "max-states" ] ~docv:"N" ~doc)
  in
  let run specs json werror list_rules topology max_states =
    let known_ips =
      match topology with `None -> None | `T2 -> Some (List.map fst Flowtrace_soc.T2.ips)
    in
    let context = { Rule.default_context with Rule.known_ips; max_states } in
    (* the text catalog is the FL one followed by the FC one *)
    report_and_exit ~tool:"lint" ~noun:"file"
      ~catalog:(fun () -> Lint.catalog () ^ Check.catalog ())
      ~json ~werror ~list_rules specs (Lint.lint_file ~context)
  in
  let doc = "Statically check flow specification files (rules FL001..FL015)." in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ spec_files "Flow specification files to check." $ json_arg $ werror_arg
      $ list_rules $ topology $ max_states)

let check_cmd =
  let open Flowtrace_analysis in
  let list_rules =
    let doc =
      "Print the FC rule catalog and exit (with $(b,--json), the machine-readable catalog of \
       every namespace)."
    in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let topology =
    let doc =
      "IP topology the scenario's monitors sit on: $(b,none) (every message observable) or \
       $(b,t2) (the OpenSPARC T2 interconnect). Enables rules FC013/FC022/FC023 and makes the \
       ambiguity rules respect observability."
    in
    Arg.(value & opt (enum [ ("none", `None); ("t2", `T2) ]) `None & info [ "topology" ] ~docv:"TOPO" ~doc)
  in
  let budget =
    let doc = "Trace-buffer budget in bits to prove feasibility against (rules FC020/FC021)." in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"BITS" ~doc)
  in
  let path_limit =
    let doc =
      "Per-flow path-enumeration bound. Past it the analysis degrades (FC090, exit 3) instead \
       of running forever."
    in
    Arg.(value & opt int Scenario_model.default_path_limit & info [ "path-limit" ] ~docv:"N" ~doc)
  in
  let run specs json werror list_rules topology budget path_limit =
    let topology =
      match topology with `None -> None | `T2 -> Some Flowtrace_soc.Scenario.t2_topology
    in
    report_and_exit ~tool:"check" ~noun:"scenario" ~catalog:Check.catalog ~json ~werror
      ~list_rules ~degraded:Check.degraded specs
      (Check.check_file ~path_limit ?topology ?budget)
  in
  let doc =
    "Statically analyze whole scenarios for debuggability: cross-flow ambiguity, buffer \
     feasibility, observability dead zones, loss fragility (rules FC0xx)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ spec_files "Flow specification files, each checked as one scenario." $ json_arg
      $ werror_arg $ list_rules $ topology $ budget $ path_limit)

let stats_cmd =
  let file =
    (* a [string] conv, not [file]: a missing path must reach [or_die]'s
       one-line exit-1 error, not cmdliner's usage failure (exit 124) *)
    let doc = "Telemetry file recorded with $(b,--telemetry) (JSONL format)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Flowtrace_telemetry.Summary.load_jsonl file with
    | Error m -> or_die (Error m)
    | Ok [] -> or_die (Error (Printf.sprintf "%s:1: telemetry file contains no events" file))
    | Ok events ->
        Format.printf "%a@."
          Flowtrace_telemetry.Summary.pp
          (Flowtrace_telemetry.Summary.of_events events)
  in
  let doc = "Replay a recorded telemetry file into per-phase timing and counter tables." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ file)

let mine_cmd =
  let open Flowtrace_analysis in
  let open Flowtrace_mining in
  let parse_spec_or_die path = or_die (Op.load_flows (Op.File path)) in
  let trace_files =
    let doc = "Packet trace file to mine (repeatable; each file is one monitor log)." in
    Arg.(value & opt_all string [] & info [ "trace-file" ] ~docv:"FILE" ~doc)
  in
  let support =
    let doc =
      "Minimum fraction of a flow's episodes a kept path must explain, in [0,1]. The default \
       0 trusts every observed sequence; raise it on lossy traces to shed noise."
    in
    Arg.(value & opt float Miner.default_config.Miner.support & info [ "support" ] ~docv:"F" ~doc)
  in
  let min_count =
    let doc = "Absolute evidence floor: paths observed fewer than $(docv) times are noise." in
    Arg.(value & opt int Miner.default_config.Miner.min_count & info [ "min-count" ] ~docv:"N" ~doc)
  in
  let catalog =
    let doc =
      "Message catalog: a flow spec whose message declarations supply widths, endpoints, \
       beats and subgroups for mined messages (the monitor-configuration knowledge a trace \
       cannot carry). Without it, widths default and endpoints are majority-voted."
    in
    Arg.(value & opt (some string) None & info [ "catalog" ] ~docv:"SPEC" ~doc)
  in
  let default_width =
    let doc = "Width assumed for messages absent from the catalog." in
    Arg.(
      value
      & opt int Miner.default_config.Miner.default_width
      & info [ "default-width" ] ~docv:"BITS" ~doc)
  in
  let score_against =
    let doc =
      "Ground-truth flow spec to score the mined flows against (edge- and path-level \
       precision/recall, matched by flow name)."
    in
    Arg.(value & opt (some string) None & info [ "score-against" ] ~docv:"SPEC" ~doc)
  in
  let emit_spec =
    let doc = "Write the mined flows as a .flow spec to $(docv) ($(b,-) for stdout)." in
    Arg.(value & opt (some string) None & info [ "emit-spec" ] ~docv:"FILE" ~doc)
  in
  let json =
    let doc = "Emit the full mining report (flows, provenance, score, diagnostics) as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let werror =
    let doc = "Promote warnings (dropped paths/flows) to errors." in
    Arg.(value & flag & info [ "werror" ] ~doc)
  in
  let recover =
    let doc = "Skip malformed trace lines (within an error budget) instead of dying." in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let list_rules =
    let doc =
      "Print the MN rule catalog and exit (with $(b,--json), the machine-readable catalog of \
       every namespace)."
    in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let run trace_files support min_count catalog default_width score_against emit_spec json
      werror recover list_rules tel =
    if list_rules then
      print_string (if json then Check.catalog_json () else Mn.catalog ())
    else begin
      if trace_files = [] then
        or_die (Error "no trace files given (--trace-file; --list-rules for the catalog)");
      with_telemetry tel @@ fun () ->
      let catalog =
        match catalog with
        | None -> []
        | Some path ->
            List.concat_map (fun (f : Flow.t) -> f.Flow.messages) (parse_spec_or_die path)
      in
      let traces = List.map (load_trace_or_die ~recover) trace_files in
      let result =
        or_die
          (Op.mine ~support ~min_count ~default_width ~catalog
             ~file:(String.concat "," trace_files) traces)
      in
      let score =
        Option.map
          (fun path ->
            let truth = parse_spec_or_die path in
            Score.score ~truth (List.map (fun m -> m.Miner.m_flow) result.Miner.r_flows))
          score_against
      in
      (match emit_spec with
      | None -> ()
      | Some "-" -> print_string (Miner.spec_text result)
      | Some path ->
          let oc = open_out path in
          output_string oc (Miner.spec_text result);
          close_out oc);
      let diags =
        if werror then List.map Diagnostic.promote_warnings result.Miner.r_diags
        else result.Miner.r_diags
      in
      if json then
        print_endline
          (Json.to_string_pretty (Miner.to_json ?score:(Option.map Score.to_json score) result))
      else begin
        List.iter
          (fun m ->
            Printf.printf "mined %s: %d states, %d messages, %d path%s (%d episodes, %d absorbed) [%s]\n"
              m.Miner.m_flow.Flow.name (Flow.n_states m.Miner.m_flow)
              (Flow.n_messages m.Miner.m_flow) (List.length m.Miner.m_kept)
              (if List.length m.Miner.m_kept = 1 then "" else "s")
              m.Miner.m_episodes m.Miner.m_absorbed m.Miner.m_fingerprint)
          result.Miner.r_flows;
        Option.iter (fun s -> print_string (Score.render s)) score;
        print_string (Diagnostic.render_all diags);
        Printf.printf "flowtrace mine: %d flow%s from %d episodes: %s\n"
          (List.length result.Miner.r_flows)
          (if List.length result.Miner.r_flows = 1 then "" else "s")
          result.Miner.r_episodes (Diagnostic.summary diags)
      end;
      match Op.mine_exit_code diags with 0 -> () | n -> exit n
    end
  in
  let doc =
    "Mine candidate flow specifications from packet traces (frequent-subsequence inference \
     with support thresholds; rules MN0xx). The mined spec feeds back into $(b,lint), \
     $(b,check) and $(b,select) — the closed specification loop."
  in
  Cmd.v (Cmd.info "mine" ~doc)
    Term.(
      const run $ trace_files $ support $ min_count $ catalog $ default_width $ score_against
      $ emit_spec $ json $ werror $ recover $ list_rules $ telemetry_arg)

let serve_cmd =
  let module Server = Flowtrace_service.Server in
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(value & opt string Server.default.Server.socket & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let state_dir_arg =
    let doc =
      "Persist every open session to crash-safe journals under $(docv) (created if missing). \
       A daemon restarted with $(b,--resume) reopens them and answers with the same bytes an \
       uninterrupted daemon would have."
    in
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let shards_arg =
    let doc = "Session-table shards; each shard is served by its own worker domain." in
    Arg.(value & opt int Server.default.Server.shards & info [ "shards" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission cap: session requests past this many in flight are answered $(b,busy) (exit \
       field 3) instead of queueing without bound."
    in
    Arg.(value & opt int Server.default.Server.max_inflight & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let serve_retries_arg =
    let doc = "Supervised retry bound per request (retries are delayed by deterministic backoff)." in
    Arg.(value & opt int Server.default.Server.retries & info [ "retries" ] ~docv:"N" ~doc)
  in
  let chaos_arg =
    let doc =
      "Honor per-request $(b,chaos) fields (injected faults and delays) — the deterministic \
       fault-injection mode the chaos harness drives. Never enable in production."
    in
    Arg.(value & flag & info [ "chaos" ] ~doc)
  in
  let serve_resume_arg =
    let doc = "Reload the sessions persisted under $(b,--state-dir)." in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let queue_grace_arg =
    let doc =
      "Shed session requests that waited longer than $(docv) seconds in a shard queue \
       (answered $(b,busy)). Default: no shedding by age."
    in
    Arg.(value & opt (some float) None & info [ "queue-grace" ] ~docv:"SEC" ~doc)
  in
  let run socket state_dir shards max_inflight retries chaos resume queue_grace tel =
    with_telemetry tel @@ fun () ->
    (match state_dir with
    | Some d when not (Sys.file_exists d) -> (
        try Unix.mkdir d 0o755
        with Unix.Unix_error (e, _, _) ->
          or_die (Error (Printf.sprintf "cannot create %s: %s" d (Unix.error_message e))))
    | _ -> ());
    let cfg =
      {
        Server.default with
        Server.socket;
        state_dir;
        shards;
        max_inflight;
        retries;
        chaos;
        resume;
        queue_grace;
      }
    in
    match
      Server.run
        ~ready:(fun () -> Printf.eprintf "flowtraced: listening on %s\n%!" socket)
        ~on_diags:render_diags
        cfg
    with
    | () -> ()
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
        or_die
          (Error
             (Printf.sprintf
                "cannot serve on %s: another daemon is already listening there (shut it down \
                 first, or use a different --socket)"
                socket))
    | exception Unix.Unix_error (e, _, arg) ->
        or_die
          (Error
             (Printf.sprintf "cannot serve on %s: %s%s" socket (Unix.error_message e)
                (if arg = "" then "" else " (" ^ arg ^ ")")))
  in
  let doc =
    "Run the trace-analysis daemon: a long-lived multi-tenant service over a Unix socket \
     speaking newline-delimited JSON (ops: open-session, select, localize, mine, status, \
     health, close, ping, shutdown)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ state_dir_arg $ shards_arg $ max_inflight_arg $ serve_retries_arg
      $ chaos_arg $ serve_resume_arg $ queue_grace_arg $ telemetry_arg)

let call_cmd =
  let socket_arg =
    let doc = "Unix-domain socket the daemon listens on." in
    Arg.(
      value
      & opt string Flowtrace_service.Server.default.Flowtrace_service.Server.socket
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let requests_arg =
    let doc =
      "Request lines (JSON objects) to send, one response printed per request. With no \
       REQUEST arguments, lines are read from standard input in lockstep."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let wait_arg =
    let doc = "Seconds to keep retrying the initial connect (covers daemon start-up races)." in
    Arg.(value & opt float 5.0 & info [ "wait" ] ~docv:"SEC" ~doc)
  in
  let run socket requests wait =
    let deadline = Unix.gettimeofday () +. wait in
    let rec connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
          Unix.close fd;
          Unix.sleepf 0.05;
          connect ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
          Unix.close fd;
          or_die
            (Error
               (Printf.sprintf
                  "no daemon is listening on %s (no socket file); start one with 'flowtrace \
                   serve --socket %s'"
                  socket socket))
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          Unix.close fd;
          or_die
            (Error
               (Printf.sprintf
                  "connection refused on %s: the socket file exists but no daemon is \
                   accepting — likely a stale socket left by a crashed daemon; restart \
                   'flowtrace serve' (it clears stale sockets on startup)"
                  socket))
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          or_die
            (Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e)))
    in
    let fd = connect () in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let saw_error = ref false and saw_degraded = ref false in
    let send line =
      output_string oc line;
      output_char oc '\n';
      flush oc;
      match input_line ic with
      | resp -> (
          print_endline resp;
          let module Json = Flowtrace_analysis.Json in
          match Json.parse resp with
          | Ok j -> (
              match Option.bind (Json.member "exit" j) Json.to_int_opt with
              | Some 0 | None -> ()
              | Some 3 -> saw_degraded := true
              | Some _ -> saw_error := true)
          | Error _ -> saw_error := true)
      | exception End_of_file -> or_die (Error "daemon closed the connection")
    in
    (match requests with
    | [] -> ( try
        while true do
          send (input_line stdin)
        done
      with End_of_file -> ())
    | requests -> List.iter send requests);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if !saw_error then exit 1 else if !saw_degraded then exit 3
  in
  let doc =
    "Send request lines to a running $(b,flowtrace serve) daemon and print each response \
     (exit 0 when all ok, 3 when any response was degraded/busy, 1 on any error)."
  in
  Cmd.v (Cmd.info "call" ~doc) Term.(const run $ socket_arg $ requests_arg $ wait_arg)

let fsck_cmd =
  let module Fsck = Flowtrace_service.Fsck in
  let state_dir_arg =
    let doc = "The daemon state directory to check (the $(b,serve --state-dir) value)." in
    Arg.(required & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let repair_arg =
    let doc =
      "Heal what can be proven safe: sweep stale $(b,*.tmp) files, compact sessions \
       recovered from a damaged tail back to sealed files, and quarantine corrupt files as \
       $(b,*.quarantine) (a rename — nothing that could carry evidence is deleted)."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the report as a single JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run dir repair json =
    let report = if repair then Fsck.repair dir else Fsck.scan dir in
    if json then print_endline (Flowtrace_analysis.Json.to_string (Fsck.to_json report))
    else print_string (Fsck.render report);
    exit (Fsck.exit_code report)
  in
  let doc =
    "Check (and with $(b,--repair), heal) a daemon state directory: classify every session \
     file as intact, recovered or corrupt, report stale temp files and quarantined damage \
     with RT diagnostics, exit 0 clean / 1 hard damage / 3 recovered-or-repaired."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ state_dir_arg $ repair_arg $ json_arg)

let scenarios_cmd =
  let run () =
    let open Flowtrace_soc in
    List.iter
      (fun sc ->
        let inter = Scenario.interleave sc in
        Format.printf "%s: flows %s@." sc.Scenario.name
          (String.concat ", " sc.Scenario.flow_names);
        Format.printf "  %a@." Interleave.pp inter;
        Format.printf "  messages: %s@."
          (String.concat ", " (List.map Message.to_string (Scenario.messages sc))))
      Scenario.all
  in
  let doc = "Show the built-in OpenSPARC T2 usage scenarios." in
  Cmd.v (Cmd.info "scenarios" ~doc) Term.(const run $ const ())

let () =
  let doc = "application-level hardware trace message selection" in
  let info = Cmd.info "flowtrace" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ select_cmd; interleave_cmd; localize_cmd; explain_cmd; lint_cmd; check_cmd; mine_cmd; simulate_cmd; debug_cmd; dot_cmd; tables_cmd; scenarios_cmd; stats_cmd; serve_cmd; call_cmd; fsck_cmd ]))
