(* flowcheck: the whole-scenario static debuggability analysis.

   Three layers of coverage:
   - fixtures: each crafted counterexample spec in checks/ (plus string
     fixtures) triggers its FC rule, and shipped specs stay clean;
   - ground truth: every static verdict is confirmed by the dynamic
     machinery it predicts — Localize for the ambiguity rules, Select for
     budget infeasibility, enumerated executions for dead monitors;
   - property: on random bundle-of-chains flow pairs, the FC010/FC011/
     FC012 verdicts coincide exactly with brute-force Execution/Localize
     distinguishability. *)

open Flowtrace_core
open Flowtrace_analysis

let codes diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) diags

let has code diags = List.exists (String.equal code) (codes diags)

let checks_file name =
  let local = Filename.concat "checks" name in
  if Sys.file_exists local then local else Filename.concat (Filename.concat "test" "checks") name

let parse_checks name = Spec_parser.parse_file (checks_file name)

let t2_topo = Flowtrace_soc.Scenario.t2_topology

let all_selected = fun _ -> true

(* Indexed executions of a flow alone (instance index 1). *)
let solo_inter f = Interleave.of_flows [ f ]

let flow_named flows name = List.find (fun (f : Flow.t) -> String.equal f.Flow.name name) flows

(* Every execution of [f] is consistent (as a full observation) with some
   execution of [g] — dynamic language inclusion via Localize. *)
let dyn_subset ?semantics f g =
  let ig = solo_inter g in
  List.for_all
    (fun tr -> Localize.consistent_paths ?semantics ig ~selected:all_selected ~observed:tr > 0)
    (Execution.enumerate (solo_inter f))

(* --- crafted counterexamples: static verdict + dynamic confirmation --- *)

let test_ambiguous_static () =
  let diags = Check.check_file (checks_file "ambiguous.flow") in
  Alcotest.(check bool) "FC010 fires" true (has "FC010" diags);
  Alcotest.(check int) "no errors" 0 (Diagnostic.count_errors diags)

let test_ambiguous_dynamic () =
  match parse_checks "ambiguous.flow" with
  | [ f; g ] ->
      (* flagged ambiguity => any observation of F is also a legal
         execution of G, and vice versa: localization can never separate
         them, whatever the selection *)
      Alcotest.(check bool) "L(F) within L(G)" true (dyn_subset f g);
      Alcotest.(check bool) "L(G) within L(F)" true (dyn_subset g f)
  | _ -> Alcotest.fail "ambiguous.flow should hold two flows"

let test_infeasible_static () =
  let diags = Check.check_file ~budget:32 (checks_file "infeasible.flow") in
  Alcotest.(check bool) "FC020 fires" true (has "FC020" diags);
  Alcotest.(check int) "exit 1" 1 (Diagnostic.exit_code diags)

let test_infeasible_dynamic () =
  (* flagged infeasibility => Step 1 really cannot seed a candidate set *)
  let inter = Interleave.of_flows (parse_checks "infeasible.flow") in
  Alcotest.(check bool)
    "no message fits" false
    (Packing.fits (Interleave.messages inter) ~buffer_width:32);
  match Select.select inter ~buffer_width:32 with
  | _ -> Alcotest.fail "selection should reject an infeasible width"
  | exception Invalid_argument _ -> ()

let test_deadmon_static () =
  let diags = Check.check_file ~topology:t2_topo (checks_file "deadmon.flow") in
  let dead =
    List.filter (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code "FC022") diags
  in
  Alcotest.(check bool) "FC022 fires" true (dead <> []);
  Alcotest.(check bool)
    "SIU->NCU reported dead" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         let msg = d.Diagnostic.message in
         (* substring check: the SIU->NCU channel is among the dead ones *)
         let rec find i =
           i + 8 <= String.length msg && (String.equal (String.sub msg i 8) "SIU->NCU" || find (i + 1))
         in
         find 0)
       dead)

let test_deadmon_dynamic () =
  (* flagged dead monitor => no execution ever emits a message over the
     channel, so a monitor there really records nothing *)
  let inter = Interleave.of_flows (parse_checks "deadmon.flow") in
  let rides_dead (m : Message.t) =
    String.equal m.Message.src "SIU" && String.equal m.Message.dst "NCU"
  in
  List.iter
    (fun tr ->
      List.iter
        (fun (im : Indexed.t) ->
          let m = Interleave.message_exn inter im.Indexed.base in
          Alcotest.(check bool) "no message over SIU->NCU" false (rides_dead m))
        tr)
    (Execution.enumerate inter)

let test_lossfragile_static () =
  let diags = Check.check_file (checks_file "lossfragile.flow") in
  Alcotest.(check bool) "FC030 fires" true (has "FC030" diags);
  Alcotest.(check bool)
    "mark named as the fragile class" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         String.equal d.Diagnostic.code "FC030"
         &&
         let msg = d.Diagnostic.message in
         let pat = "class mark" in
         let rec find i =
           i + String.length pat <= String.length msg
           && (String.equal (String.sub msg i (String.length pat)) pat || find (i + 1))
         in
         find 0)
       diags)

let test_lossfragile_dynamic () =
  let flows = parse_checks "lossfragile.flow" in
  let f = flow_named flows "F" and g = flow_named flows "G" in
  (* distinguishable at full observation: F's trace is not an execution
     of G... *)
  Alcotest.(check bool) "distinguishable without loss" false (dyn_subset f g);
  (* ...but with the mark class dropped, every lossy observation of F is
     consistent with G and vice versa: the monitor for mark is a single
     point of failure *)
  let selected n = not (String.equal n "mark") in
  let ig = solo_inter g and i_f = solo_inter f in
  List.iter
    (fun tr ->
      let observed = Localize.project ~selected tr in
      Alcotest.(check bool)
        "lossy observation of F consistent with G" true
        (Localize.consistent_paths ig ~selected ~observed > 0))
    (Execution.enumerate i_f);
  List.iter
    (fun tr ->
      let observed = Localize.project ~selected tr in
      Alcotest.(check bool)
        "lossy observation of G consistent with F" true
        (Localize.consistent_paths i_f ~selected ~observed > 0))
    (Execution.enumerate ig)

let branch_spec =
  "flow B\n\
   state s init\n\
   state u\n\
   state v\n\
   state t stop\n\
   msg m 2\n\
   msg k 2\n\
   trans s m u\n\
   trans s m v\n\
   trans u k t\n\
   trans v k t\n"

let test_branch_static () =
  let diags = Check.check_string branch_spec in
  Alcotest.(check bool) "FC012 fires" true (has "FC012" diags)

let test_branch_dynamic () =
  (* flagged branch ambiguity => even the full trace leaves >= 2
     consistent paths: localization is degraded below the branch *)
  let inter = Interleave.of_flows (Spec_parser.parse_string branch_spec) in
  let tr = List.hd (Execution.enumerate inter) in
  Alcotest.(check bool)
    "full observation leaves 2 paths" true
    (Localize.consistent_paths inter ~selected:all_selected ~observed:tr >= 2)

(* --- driver codes ---------------------------------------------------- *)

let test_empty_scenario () =
  let diags = Check.check_string "" in
  Alcotest.(check (list string)) "FC002 only" [ "FC002" ] (codes diags);
  Alcotest.(check int) "exit 1" 1 (Diagnostic.exit_code diags)

let test_parse_error () =
  let diags = Check.check_string "flow X\nbogus\n" in
  Alcotest.(check (list string)) "FC000 only" [ "FC000" ] (codes diags)

let test_invalid_flow () =
  let diags = Check.check_string "flow X\nstate a init\nmsg m 2\n" in
  Alcotest.(check bool) "FC001 fires" true (has "FC001" diags)

(* A flow with 2^16 paths: path enumeration must degrade (FC090, exit
   3), not hang or die. *)
let wide_flow () =
  let n = 16 in
  let states = ref [ "s0" ] and transitions = ref [] and messages = ref [] in
  for i = 0 to n - 1 do
    let a = Printf.sprintf "a%d" (i + 1) and b = Printf.sprintf "b%d" (i + 1) in
    states := b :: a :: !states;
    let mx = Printf.sprintf "x%d" i and my = Printf.sprintf "y%d" i in
    messages := Message.make my 1 :: Message.make mx 1 :: !messages;
    let srcs = if i = 0 then [ "s0" ] else [ Printf.sprintf "a%d" i; Printf.sprintf "b%d" i ] in
    List.iter
      (fun src ->
        transitions := Flow.transition src my b :: Flow.transition src mx a :: !transitions)
      srcs
  done;
  let stop = "z" in
  states := stop :: !states;
  messages := Message.make "fin" 1 :: !messages;
  List.iter
    (fun src -> transitions := Flow.transition src "fin" stop :: !transitions)
    [ Printf.sprintf "a%d" n; Printf.sprintf "b%d" n ];
  Flow.make ~name:"WIDE" ~states:(List.rev !states) ~initial:[ "s0" ] ~stop:[ stop ]
    ~messages:(List.rev !messages) ~transitions:(List.rev !transitions) ()

let test_truncation_degrades () =
  let model = Scenario_model.of_flows ~path_limit:100 ~file:"wide" [ wide_flow () ] in
  Alcotest.(check bool) "model truncated" true (Scenario_model.truncated model);
  let diags = Check.run model in
  Alcotest.(check bool) "FC090 fires" true (has "FC090" diags);
  Alcotest.(check bool) "report degraded" true (Check.degraded diags);
  Alcotest.(check int) "exit 3" 3 (Diagnostic.exit_code ~degraded:(Check.degraded diags) diags)

(* --- shipped specs and the soc admission gate ------------------------ *)

let spec_dir =
  let rec find dir =
    if Sys.file_exists (Filename.concat dir "specs") then Filename.concat dir "specs"
    else find (Filename.concat dir Filename.parent_dir_name)
  in
  find (Sys.getcwd ())

let test_shipped_specs_clean () =
  List.iter
    (fun (name, topology) ->
      let diags = Check.check_file ?topology ~budget:32 (Filename.concat spec_dir name) in
      Alcotest.(check int) (name ^ " errors") 0 (Diagnostic.count_errors diags);
      Alcotest.(check int) (name ^ " warnings") 0 (Diagnostic.count_warnings diags))
    [
      ("cache_coherence.flow", None);
      ("usb.flow", None);
      ("t2.flow", Some t2_topo);
      ("t2_ext.flow", Some t2_topo);
    ]

let test_t2_dead_monitor_note () =
  (* the T2 spec's one expected note: the MCU->NCU return channel carries
     no message of the five flows *)
  let diags = Check.check_file ~topology:t2_topo (Filename.concat spec_dir "t2.flow") in
  Alcotest.(check (list string)) "only the dead-monitor note" [ "FC022" ] (codes diags)

let test_admission_gate () =
  List.iter
    (fun sc ->
      let diags = Flowtrace_soc.Scenario.admission ~budget:32 sc in
      Alcotest.(check int)
        (sc.Flowtrace_soc.Scenario.name ^ " admission errors")
        0 (Diagnostic.count_errors diags);
      Alcotest.(check int)
        (sc.Flowtrace_soc.Scenario.name ^ " admission warnings")
        0
        (Diagnostic.count_warnings diags))
    Flowtrace_soc.Scenario.all

(* --- unified diagnostics --------------------------------------------- *)

let test_sort_report_deterministic () =
  let diags = Check.check_file ~topology:t2_topo (Filename.concat spec_dir "t2_ext.flow") in
  Alcotest.(check bool) "idempotent" true (List.equal Diagnostic.equal (Diagnostic.sort_report diags) diags);
  Alcotest.(check bool)
    "order independent" true
    (List.equal Diagnostic.equal (Diagnostic.sort_report (List.rev diags)) diags)

let test_severity_orders_within_line () =
  let mk code severity =
    Diagnostic.make ~code ~severity (Srcspan.make ~file:"f" ~line:3 ~col:1) "x"
  in
  let sorted =
    Diagnostic.sort_report [ mk "A3" Diagnostic.Info; mk "A1" Diagnostic.Error; mk "A2" Diagnostic.Warning ]
  in
  Alcotest.(check (list string)) "most severe first" [ "A1"; "A2"; "A3" ] (codes sorted)

let test_exit_code_convention () =
  let err = Diagnostic.make ~code:"X" ~severity:Diagnostic.Error (Srcspan.none "f") "x" in
  let warn = Diagnostic.make ~code:"Y" ~severity:Diagnostic.Warning (Srcspan.none "f") "y" in
  Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
  Alcotest.(check int) "warnings alone pass" 0 (Diagnostic.exit_code [ warn ]);
  Alcotest.(check int) "errors fail" 1 (Diagnostic.exit_code [ err; warn ]);
  Alcotest.(check int) "werror promotes" 1
    (Diagnostic.exit_code (List.map Diagnostic.promote_warnings [ warn ]));
  Alcotest.(check int) "degraded without errors" 3 (Diagnostic.exit_code ~degraded:true [ warn ]);
  Alcotest.(check int) "errors beat degraded" 1 (Diagnostic.exit_code ~degraded:true [ err ])

let test_catalog_json () =
  match Json.parse (Check.catalog_json ()) with
  | Error m -> Alcotest.fail m
  | Ok j -> (
      match Option.bind (Json.member "rules" j) Json.to_list_opt with
      | None -> Alcotest.fail "no rules array"
      | Some items ->
          let field k item =
            match Option.bind (Json.member k item) Json.to_string_opt with
            | Some s -> s
            | None -> Alcotest.fail ("rule entry missing " ^ k)
          in
          let namespaces = List.sort_uniq String.compare (List.map (field "namespace") items) in
          Alcotest.(check (list string)) "all namespaces" [ "FC"; "FL"; "MN"; "RT" ] namespaces;
          let catalog_codes = List.map (field "code") items in
          List.iter
            (fun (r : Rule.Scenario.rule) ->
              Alcotest.(check bool)
                (r.Rule.Scenario.code ^ " listed")
                true
                (List.exists (String.equal r.Rule.Scenario.code) catalog_codes))
            Check.rules;
          List.iter
            (fun (r : Rule.t) ->
              Alcotest.(check bool)
                (r.Rule.code ^ " listed")
                true
                (List.exists (String.equal r.Rule.code) catalog_codes))
            Lint.rules)

(* every FC rule (and driver code) is exercised by some fixture above *)
let test_every_fc_rule_covered () =
  let exercised =
    [
      "FC000"; "FC001"; "FC002"; "FC010"; "FC011"; "FC012"; "FC013"; "FC020"; "FC021";
      "FC022"; "FC023"; "FC030"; "FC090";
    ]
  in
  List.iter
    (fun (r : Rule.Scenario.rule) ->
      Alcotest.(check bool)
        (r.Rule.Scenario.code ^ " exercised")
        true
        (List.exists (String.equal r.Rule.Scenario.code) exercised))
    Check.rules;
  List.iter
    (fun (c, _, _, _) ->
      Alcotest.(check bool) (c ^ " exercised") true (List.exists (String.equal c) exercised))
    Check.driver_codes

(* FC011/FC013/FC021/FC023 fixtures (string-based; the file fixtures
   above cover the other codes) *)
let test_prefix_subsumption () =
  let diags =
    Check.check_string
      "flow F\nstate a init\nstate b\nstate c stop\nmsg m 2\nmsg n 2\ntrans a m b\ntrans b n c\n\n\
       flow G\nstate p init\nstate q stop\nmsg m 2\ntrans p m q\n"
  in
  Alcotest.(check bool) "FC011 fires" true (has "FC011" diags);
  (* and the dynamic confirmation: G's observation is prefix-consistent
     with F, so mid-execution localization cannot exclude F *)
  match
    Spec_parser.parse_string
      "flow F\nstate a init\nstate b\nstate c stop\nmsg m 2\nmsg n 2\ntrans a m b\ntrans b n c\n\n\
       flow G\nstate p init\nstate q stop\nmsg m 2\ntrans p m q\n"
  with
  | [ f; g ] ->
      Alcotest.(check bool)
        "G prefix-consistent with F" true
        (dyn_subset ~semantics:Localize.Prefix g f)
  | _ -> Alcotest.fail "expected two flows"

let test_unobservable_and_unmonitorable () =
  let toy = { Scenario_model.topo_name = "toy"; topo_ips = [ "A"; "B" ]; topo_channels = [ ("A", "B") ] } in
  let diags =
    Check.check_string ~topology:toy
      "flow F\nstate a init\nstate b stop\nmsg m 2 from B to A\ntrans a m b\n"
  in
  Alcotest.(check bool) "FC013 fires" true (has "FC013" diags);
  Alcotest.(check bool) "FC023 fires" true (has "FC023" diags)

let test_trivial_budget () =
  let diags =
    Check.check_string ~budget:64 "flow F\nstate a init\nstate b stop\nmsg m 2\ntrans a m b\n"
  in
  Alcotest.(check bool) "FC021 fires" true (has "FC021" diags);
  Alcotest.(check int) "still clean" 0 (Diagnostic.exit_code diags)

(* --- property: static ambiguity = brute-force distinguishability ----- *)

(* Bundle-of-chains flows over a tiny shared alphabet, so random pairs
   actually collide: each flow is a set of chains from one initial state,
   its language exactly the chain traces. *)
let alphabet = [| "a"; "b"; "c" |]

let flow_of_traces ~name traces =
  let states = ref [ "s0" ] and transitions = ref [] and stops = ref [] in
  List.iteri
    (fun i tr ->
      let rec go j prev = function
        | [] -> stops := prev :: !stops
        | m :: rest ->
            let st = Printf.sprintf "c%d_%d" i j in
            states := st :: !states;
            transitions := Flow.transition prev m st :: !transitions;
            go (j + 1) st rest
      in
      go 0 "s0" tr)
    traces;
  let msgs = List.sort_uniq String.compare (List.concat traces) in
  Flow.make ~name ~states:(List.rev !states) ~initial:[ "s0" ]
    ~stop:(List.sort_uniq String.compare !stops)
    ~messages:(List.map (fun m -> Message.make m 2) msgs)
    ~transitions:(List.rev !transitions) ()

let chains_of_seed ~name seed =
  let rng = Rng.create seed in
  let n_chains = 1 + Rng.int rng 2 in
  let traces =
    List.init n_chains (fun _ ->
        let len = 1 + Rng.int rng 3 in
        List.init len (fun _ -> alphabet.(Rng.int rng (Array.length alphabet))))
  in
  flow_of_traces ~name traces

let pair_arb =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "seeds (%d, %d):\n%s\n%s" a b
        (Spec_parser.print_flow (chains_of_seed ~name:"F" a))
        (Spec_parser.print_flow (chains_of_seed ~name:"G" b)))
    QCheck.Gen.(pair (int_bound 20_000) (int_bound 20_000))

let ambiguity_matches_brute_force (sa, sb) =
  let f = chains_of_seed ~name:"F" sa and g = chains_of_seed ~name:"G" sb in
  let diags = Check.run (Scenario_model.of_flows ~file:"prop" [ f; g ]) in
  let static_identical = has "FC010" diags in
  let static_prefix = has "FC011" diags in
  let dyn_eq = dyn_subset f g && dyn_subset g f in
  let dyn_prefix =
    dyn_subset ~semantics:Localize.Prefix f g || dyn_subset ~semantics:Localize.Prefix g f
  in
  let branch_static flow =
    List.exists
      (fun (d : Diagnostic.t) ->
        String.equal d.Diagnostic.code "FC012"
        && Option.equal String.equal d.Diagnostic.flow (Some flow.Flow.name))
      diags
  in
  let branch_dyn flow =
    let inter = solo_inter flow in
    List.exists
      (fun tr ->
        Localize.consistent_paths inter ~selected:all_selected ~observed:tr >= 2)
      (Execution.enumerate inter)
  in
  Bool.equal static_identical dyn_eq
  && Bool.equal (static_identical || static_prefix) dyn_prefix
  && Bool.equal (branch_static f) (branch_dyn f)
  && Bool.equal (branch_static g) (branch_dyn g)

let prop_ambiguity_matches_brute_force =
  QCheck.Test.make ~count:200 ~name:"FC010/FC011/FC012 = Interleave/Localize brute force"
    pair_arb ambiguity_matches_brute_force

(* F is two [a] chains, G two [a b] chains: both flows raise FC012 at the
   same scenario span with the same message, and a report order blind to
   [flow] merged them, losing G's. *)
let test_fc012_per_flow_pinned () =
  Alcotest.(check bool) "seeds (3563, 3003) agree with brute force" true
    (ambiguity_matches_brute_force (3563, 3003))

let () =
  Alcotest.run "check"
    [
      ( "crafted counterexamples",
        [
          Alcotest.test_case "ambiguous pair: FC010" `Quick test_ambiguous_static;
          Alcotest.test_case "ambiguous pair: Localize confirms" `Quick test_ambiguous_dynamic;
          Alcotest.test_case "infeasible budget: FC020" `Quick test_infeasible_static;
          Alcotest.test_case "infeasible budget: Select confirms" `Quick test_infeasible_dynamic;
          Alcotest.test_case "dead monitor: FC022" `Quick test_deadmon_static;
          Alcotest.test_case "dead monitor: executions confirm" `Quick test_deadmon_dynamic;
          Alcotest.test_case "loss-fragile: FC030" `Quick test_lossfragile_static;
          Alcotest.test_case "loss-fragile: Localize confirms" `Quick test_lossfragile_dynamic;
          Alcotest.test_case "branch ambiguity: FC012" `Quick test_branch_static;
          Alcotest.test_case "branch ambiguity: Localize confirms" `Quick test_branch_dynamic;
          Alcotest.test_case "prefix subsumption: FC011 + Localize" `Quick test_prefix_subsumption;
          Alcotest.test_case "unobservable flow: FC013/FC023" `Quick test_unobservable_and_unmonitorable;
          Alcotest.test_case "trivial budget: FC021" `Quick test_trivial_budget;
        ] );
      ( "driver",
        [
          Alcotest.test_case "empty scenario: FC002" `Quick test_empty_scenario;
          Alcotest.test_case "parse error: FC000" `Quick test_parse_error;
          Alcotest.test_case "invalid flow: FC001" `Quick test_invalid_flow;
          Alcotest.test_case "truncation degrades: FC090, exit 3" `Quick test_truncation_degrades;
          Alcotest.test_case "every FC code exercised" `Quick test_every_fc_rule_covered;
        ] );
      ( "shipped specs",
        [
          Alcotest.test_case "check-clean under T2" `Quick test_shipped_specs_clean;
          Alcotest.test_case "t2 expected dead-monitor note" `Quick test_t2_dead_monitor_note;
          Alcotest.test_case "soc admission gate" `Quick test_admission_gate;
        ] );
      ( "unified diagnostics",
        [
          Alcotest.test_case "sort_report deterministic" `Quick test_sort_report_deterministic;
          Alcotest.test_case "severity orders within a line" `Quick test_severity_orders_within_line;
          Alcotest.test_case "exit-code convention" `Quick test_exit_code_convention;
          Alcotest.test_case "cross-namespace catalog JSON" `Quick test_catalog_json;
        ] );
      ( "properties",
        [
          Alcotest.test_case "FC012 kept per flow: seeds (3563, 3003)" `Quick
            test_fc012_per_flow_pinned;
          QCheck_alcotest.to_alcotest prop_ambiguity_matches_brute_force;
        ] );
    ]
