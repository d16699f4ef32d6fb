(* The three usage scenarios of Table 1, at two scales:

   - analysis scale: a fixed small set of legally indexed instances whose
     interleaved flow is materialized for message selection, coverage and
     path localization (instance indices are globally unique so shared
     messages like [siincu] stay unambiguous);
   - simulation scale: many instances spread over time, for the debugging
     case studies where symptoms take hundreds of messages to manifest. *)

open Flowtrace_core
module Tel = Flowtrace_telemetry.Telemetry

type t = {
  id : int;
  name : string;
  flow_names : string list;
  paper_ips : string list;  (* the key IPs Table 1 lists *)
  analysis_counts : (string * int) list;  (* flow name -> #instances analyzed *)
}

let scenario1 =
  {
    id = 1;
    name = "Scenario 1";
    flow_names = [ "PIOR"; "PIOW"; "Mon" ];
    paper_ips = [ "NCU"; "DMU"; "SIU" ];
    analysis_counts = [ ("PIOR", 1); ("PIOW", 1); ("Mon", 2) ];
  }

let scenario2 =
  {
    id = 2;
    name = "Scenario 2";
    flow_names = [ "NCUU"; "NCUD"; "Mon" ];
    paper_ips = [ "NCU"; "MCU"; "CCX" ];
    analysis_counts = [ ("NCUU", 2); ("NCUD", 1); ("Mon", 1) ];
  }

let scenario3 =
  {
    id = 3;
    name = "Scenario 3";
    flow_names = [ "PIOR"; "PIOW"; "NCUU"; "NCUD" ];
    paper_ips = [ "NCU"; "MCU"; "DMU"; "SIU" ];
    analysis_counts = [ ("PIOR", 1); ("PIOW", 2); ("NCUU", 1); ("NCUD", 1) ];
  }

let all = [ scenario1; scenario2; scenario3 ]

let by_id id =
  match List.find_opt (fun s -> s.id = id) all with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Scenario.by_id: %d" id)

let flows t = List.map T2.flow_by_name t.flow_names

(* Deduplicated message pool of the scenario (Step 1 enumerates these). *)
let messages t =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun (f : Flow.t) ->
      List.filter_map
        (fun (m : Message.t) ->
          if Hashtbl.mem seen m.Message.name then None
          else begin
            Hashtbl.replace seen m.Message.name ();
            Some m
          end)
        f.Flow.messages)
    (flows t)

(* IPs actually touched by the scenario's messages. *)
let participating_ips t =
  List.sort_uniq String.compare
    (List.concat_map (fun (m : Message.t) -> [ m.Message.src; m.Message.dst ]) (messages t))

(* Analysis-scale instances with globally unique indices, in a stable
   order: the same instance set is used to build the interleaved flow and
   to drive analysis-scale simulations, so observed traces project
   directly onto the interleaving. *)
let analysis_instances t =
  match Interleave.instances (flows t) t.analysis_counts with
  | Ok instances -> instances
  | Error m -> invalid_arg m

let interleave ?(max_states = 2_000_000) t =
  Interleave.make ~max_states (analysis_instances t)

(* ------------------------------------------------------------------ *)
(* Simulation *)

type run_config = {
  seed : int;
  rounds : int;  (* one instance of each participating flow per round *)
  spacing : int;  (* cycles between round starts *)
}

let default_run = { seed = 1; rounds = 40; spacing = 120 }

let prepare ?(config = default_run) ?(mutators = []) t =
  let sim =
    Sim.create
      ~config:{ Sim.default_config with seed = config.seed }
      ()
  in
  T2.install sim;
  List.iter (Sim.add_mutator sim) mutators;
  let env_rng = Rng.create (config.seed + 7919) in
  let next = ref 0 in
  for round = 0 to config.rounds - 1 do
    List.iter
      (fun (f : Flow.t) ->
        incr next;
        let start = (round * config.spacing) + Rng.int env_rng 40 in
        let env = T2.fresh_env ~rng:env_rng ~slot:!next f in
        ignore (Sim.add_instance sim ~flow:f ~index:!next ~start ~env))
      (flows t)
  done;
  sim

(* Full-size run for the debugging case studies. *)
let run ?config ?mutators t =
  let cfg = Option.value ~default:default_run config in
  Tel.with_span "soc.scenario.run"
    ~args:(fun () ->
      Flowtrace_telemetry.Event.
        [ ("name", Str t.name); ("rounds", Int cfg.rounds); ("seed", Int cfg.seed) ])
  @@ fun () ->
  let sim = prepare ?config ?mutators t in
  Sim.run T2.semantics sim;
  Sim.outcome sim

(* Analysis-scale run: exactly the instances of [analysis_instances],
   overlapping in time, so the packet log is one execution of the
   materialized interleaving. *)
let run_analysis ?(seed = 1) ?(mutators = []) t =
  Tel.with_span "soc.scenario.run"
    ~args:(fun () ->
      Flowtrace_telemetry.Event.[ ("name", Str (t.name ^ " (analysis)")); ("seed", Int seed) ])
  @@ fun () ->
  let sim =
    Sim.create ~config:{ Sim.default_config with seed } ()
  in
  T2.install sim;
  List.iter (Sim.add_mutator sim) mutators;
  let env_rng = Rng.create (seed + 104729) in
  List.iter
    (fun (inst : Interleave.instance) ->
      let env = T2.fresh_env ~rng:env_rng ~slot:inst.Interleave.index inst.Interleave.flow in
      ignore
        (Sim.add_instance sim ~flow:inst.Interleave.flow ~index:inst.Interleave.index
           ~start:(Rng.int env_rng 30) ~env))
    (analysis_instances t);
  Sim.run T2.semantics sim;
  Sim.outcome sim

(* --- static admission gate --------------------------------------------- *)

(* The T2 interconnect as a flowcheck topology: the channels of Figure 3
   are exactly the places a trace monitor can sit. *)
let t2_topology =
  {
    Flowtrace_analysis.Scenario_model.topo_name = "t2";
    topo_ips = List.map fst T2.ips;
    topo_channels = List.map (fun (src, dst, _latency) -> (src, dst)) T2.channels;
  }

(* Whole-scenario debuggability analysis of the participating flows bound
   to the T2 topology — the gate a mined or hand-written candidate
   scenario passes before selection sees it. *)
let admission_flows ?budget ~name flows =
  Flowtrace_analysis.Check.run
    (Flowtrace_analysis.Scenario_model.of_flows ~topology:t2_topology ?budget ~file:name flows)

let admission ?budget t = admission_flows ?budget ~name:t.name (flows t)
