(* Tests for the interleaving product (Definition 5). *)

open Flowtrace_core

(* Two independent linear chains with no atomic states: the product is the
   full grid and path counts are binomial coefficients. *)
let chain ~name ~len =
  let state i = Printf.sprintf "%s%d" name i in
  let msg i = Printf.sprintf "%s_m%d" name i in
  Flow.make ~name
    ~states:(List.init (len + 1) state)
    ~initial:[ state 0 ]
    ~stop:[ state len ]
    ~messages:(List.init len (fun i -> Message.make (msg i) 1))
    ~transitions:(List.init len (fun i -> Flow.transition (state i) (msg i) (state (i + 1))))
    ()

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

let test_grid_states () =
  let inter = Interleave.of_flows [ chain ~name:"a" ~len:3; chain ~name:"b" ~len:2 ] in
  Alcotest.(check int) "states" (4 * 3) (Interleave.n_states inter);
  Alcotest.(check int) "edges" ((3 * 3) + (4 * 2)) (Interleave.n_edges inter)

let test_grid_paths () =
  let inter = Interleave.of_flows [ chain ~name:"a" ~len:3; chain ~name:"b" ~len:4 ] in
  Alcotest.(check int) "C(7,3) interleavings" (binomial 7 3) (Interleave.total_paths inter)

let test_three_way_paths () =
  let inter =
    Interleave.of_flows [ chain ~name:"a" ~len:2; chain ~name:"b" ~len:2; chain ~name:"c" ~len:2 ]
  in
  (* multinomial 6!/(2!2!2!) = 90 *)
  Alcotest.(check int) "multinomial" 90 (Interleave.total_paths inter)

let test_single_instance_is_flow () =
  let f = Toy.cache_coherence in
  let inter = Interleave.of_flows [ f ] in
  Alcotest.(check int) "states" (Flow.n_states f) (Interleave.n_states inter);
  Alcotest.(check int) "edges" (List.length f.Flow.transitions) (Interleave.n_edges inter);
  Alcotest.(check int) "paths" 1 (Interleave.total_paths inter)

let test_not_legally_indexed () =
  match
    Interleave.make
      [
        { Interleave.flow = Toy.cache_coherence; index = 1 };
        { Interleave.flow = Toy.cache_coherence; index = 1 };
      ]
  with
  | exception Interleave.Not_legally_indexed _ -> ()
  | _ -> Alcotest.fail "expected Not_legally_indexed"

let test_message_clash () =
  let f = chain ~name:"x" ~len:1 in
  let g =
    Flow.make ~name:"y" ~states:[ "a"; "b" ] ~initial:[ "a" ] ~stop:[ "b" ]
      ~messages:[ Message.make "x_m0" 7 ]
      ~transitions:[ Flow.transition "a" "x_m0" "b" ]
      ()
  in
  match Interleave.of_flows [ f; g ] with
  | exception Interleave.Message_clash _ -> ()
  | _ -> Alcotest.fail "expected Message_clash"

let test_shared_message_same_width_ok () =
  let f = chain ~name:"x" ~len:1 in
  let g =
    Flow.make ~name:"y" ~states:[ "a"; "b" ] ~initial:[ "a" ] ~stop:[ "b" ]
      ~messages:[ Message.make "x_m0" 1 ]
      ~transitions:[ Flow.transition "a" "x_m0" "b" ]
      ()
  in
  let inter = Interleave.of_flows [ f; g ] in
  (* deduplicated pool *)
  Alcotest.(check int) "one pooled message" 1 (List.length (Interleave.messages inter))

let test_too_large () =
  let big = chain ~name:"a" ~len:30 and big2 = chain ~name:"b" ~len:30 in
  match Interleave.make ~max_states:100 [ { Interleave.flow = big; index = 1 }; { Interleave.flow = big2; index = 2 } ] with
  | exception Interleave.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_indexed_instances_of () =
  let inter = Toy.two_instances () in
  let insts = Interleave.indexed_instances_of inter "ReqE" in
  Alcotest.(check (list string)) "both instances" [ "1:ReqE"; "2:ReqE" ]
    (List.map Indexed.to_string insts)

let test_atomic_blocks_other_flows () =
  (* While one instance sits in its atomic state, the other cannot move:
     from (c1,n2) the only outgoing edge is 1:Ack. *)
  let inter = Toy.two_instances () in
  let found = ref false in
  for s = 0 to Interleave.n_states inter - 1 do
    if String.equal (Interleave.state_name inter s) "(c1,n2)" then begin
      found := true;
      match Interleave.out_edges inter s with
      | [ (msg, _) ] -> Alcotest.(check string) "only ack" "1:Ack" (Indexed.to_string msg)
      | outs -> Alcotest.failf "expected 1 edge, got %d" (List.length outs)
    end
  done;
  Alcotest.(check bool) "state (c1,n2) exists" true !found

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_toy () =
  let st = Stats.compute (Toy.two_instances ()) in
  Alcotest.(check int) "states" 15 st.Stats.st_states;
  Alcotest.(check int) "edges" 18 st.Stats.st_edges;
  Alcotest.(check int) "paths" 6 st.Stats.st_paths;
  Alcotest.(check int) "longest" 6 st.Stats.st_longest;
  Alcotest.(check int) "six indexed messages" 6 (List.length st.Stats.st_occurrences);
  Alcotest.(check (float 1e-9)) "entropy ceiling" (log 15.0) st.Stats.st_entropy_bound

let test_stats_occurrences_sum_to_edges () =
  let st = Stats.compute (Toy.two_instances ()) in
  Alcotest.(check int) "sum = edges" st.Stats.st_edges
    (List.fold_left (fun a (_, c) -> a + c) 0 st.Stats.st_occurrences)

let prop_stats_consistent =
  QCheck.Test.make ~name:"stats agree with the interleaving" ~count:50
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let st = Stats.compute inter in
      st.Stats.st_states = Interleave.n_states inter
      && st.Stats.st_edges = Interleave.n_edges inter
      && st.Stats.st_paths = Interleave.total_paths inter
      && List.fold_left (fun a (_, c) -> a + c) 0 st.Stats.st_occurrences = st.Stats.st_edges)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_state_bound =
  QCheck.Test.make ~name:"product size bounded by component product" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let f = Gen.layered_flow ~rng ~name:"f" ~layers:3 ~max_per_layer:2 ~max_width:3 ~atomic_prob:0.2 in
      let g = Gen.layered_flow ~rng ~name:"g" ~layers:3 ~max_per_layer:2 ~max_width:3 ~atomic_prob:0.2 in
      let inter = Interleave.of_flows [ f; g ] in
      Interleave.n_states inter <= Flow.n_states f * Flow.n_states g)

let prop_no_two_atomic =
  QCheck.Test.make ~name:"no reachable state has two atomic components" ~count:60
    Gen.interleaving_arb (fun inter ->
      (* we cannot inspect components directly through the abstract type;
         instead check the behavioural consequence: every state reached
         right after entering an atomic component blocks the other one.
         Equivalent structural check: state names never pair two atomic
         names. Atomic states in Gen are unknown by name here, so use the
         semantic property instead: from any state, the set of instances
         able to move is never empty unless the state is stop. *)
      let ok = ref true in
      for s = 0 to Interleave.n_states inter - 1 do
        if (not (Interleave.is_stop inter s)) && Interleave.out_edges inter s = [] then ok := false
      done;
      !ok)

let prop_executions_end_in_stop =
  QCheck.Test.make ~name:"sampled executions end in stop states" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      match List.rev path.Execution.states with
      | last :: _ -> Interleave.is_stop inter last
      | [] -> false)

let prop_trace_length_matches_states =
  QCheck.Test.make ~name:"trace has one message per state transition" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      List.length path.Execution.trace = List.length path.Execution.states - 1)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the array-based builder against the list-based
   one it replaced (Interleave_ref) — numbering, edge orders, labels, the
   evaluator's gain bits and kernel coverage must all agree exactly. *)

module Scenario = Flowtrace_soc.Scenario
module Stress = Flowtrace_soc.Stress

let bits f = Int64.bits_of_float f

(* [None] when the two interleavings agree on everything, else the first
   disagreement. *)
let disagreement instances =
  let inter = Interleave.make instances and r = Interleave_ref.make instances in
  let n = Interleave.n_states inter in
  let first_state what f =
    let rec go s = if s = n then None else if f s then go (s + 1) else Some (Printf.sprintf "%s at state %d" what s) in
    go 0
  in
  let checks =
    [
      (fun () -> if n = r.Interleave_ref.n_states then None else Some "n_states");
      (fun () -> if Interleave.n_edges inter = r.n_edges then None else Some "n_edges");
      (fun () -> if Interleave.initials inter = r.initials then None else Some "initials");
      (fun () -> if Interleave.stops inter = r.stops then None else Some "stops");
      (fun () -> first_state "is_stop" (fun s -> Interleave.is_stop inter s = r.is_stop.(s)));
      (fun () ->
        first_state "state_name" (fun s ->
            String.equal (Interleave.state_name inter s) (Interleave_ref.state_name r s)));
      (fun () -> first_state "out_edges" (fun s -> Interleave.out_edges inter s = r.out_edges.(s)));
      (fun () -> first_state "in_edges" (fun s -> Interleave.in_edges inter s = r.in_edges.(s)));
      (fun () -> if Interleave.edges inter = r.edges then None else Some "edge sequence");
      (fun () -> if Interleave.messages inter = r.messages then None else Some "messages");
      (fun () ->
        let pool = Array.of_list (Combination.canonical_pool (Interleave.messages inter)) in
        let ev = Infogain.evaluator inter in
        let ref_terms = Interleave_ref.base_terms r in
        let ref_term name = Option.value ~default:0.0 (List.assoc_opt name ref_terms) in
        let weight name = float_of_int (1 + (String.length name mod 3)) in
        let ref_weighted =
          List.fold_left (fun acc (name, v) -> acc +. (weight name *. v)) 0.0 ref_terms
        in
        if
          Array.for_all2
            (fun (m : Message.t) v -> bits v = bits (ref_term m.Message.name))
            pool (Infogain.terms ev pool)
          && bits (Infogain.eval_weighted ev ~weight) = bits ref_weighted
        then None
        else Some "gain bits");
      (fun () ->
        let k = Kernel.make inter in
        let pool = Kernel.pool k in
        let agree selected =
          bits (Kernel.coverage k ~selected) = bits (Interleave_ref.coverage r ~selected)
        in
        let rec go i =
          if i = Array.length pool then None
          else
            let name = pool.(i).Message.name in
            let prefix b =
              let rec mem j = j <= i && (String.equal pool.(j).Message.name b || mem (j + 1)) in
              mem 0
            in
            if agree (String.equal name) && agree prefix then go (i + 1)
            else Some (Printf.sprintf "coverage at slot %d" i)
        in
        go 0);
    ]
  in
  List.find_map (fun check -> check ()) checks

let check_same name instances =
  match disagreement instances with
  | None -> ()
  | Some what -> Alcotest.failf "%s: interleavings disagree on %s" name what

let test_differential_paper () =
  check_same "paper example"
    [
      { Interleave.flow = Toy.cache_coherence; index = 1 };
      { Interleave.flow = Toy.cache_coherence; index = 2 };
    ]

let test_differential_t2 () =
  List.iter
    (fun k ->
      check_same (Printf.sprintf "T2 scenario %d" k)
        (Scenario.analysis_instances (Scenario.by_id k)))
    [ 1; 2; 3 ]

(* The stress mixes the select-spread benchmark opens: (2,1,2) four
   times, (2,2,1) and (1,2,2) twice, each in a different flow order, which
   renumbers the instances. *)
let stress_mixes =
  let perms = [ [ 0; 1; 2 ]; [ 2; 0; 1 ]; [ 1; 2; 0 ]; [ 2; 1; 0 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 0; 1; 2 ]; [ 2; 1; 0 ] ] in
  List.map2
    (fun (a, b, c) perm ->
      let counts = [| ("STA", a); ("STB", b); ("STC", c) |] in
      List.map (Array.get counts) perm)
    [ (2, 1, 2); (2, 1, 2); (2, 1, 2); (2, 1, 2); (2, 2, 1); (2, 2, 1); (1, 2, 2); (1, 2, 2) ]
    perms

let test_differential_stress () =
  List.iter
    (fun mix ->
      check_same
        (String.concat "," (List.map (fun (f, c) -> Printf.sprintf "%s=%d" f c) mix))
        (Result.get_ok (Interleave.instances Stress.flows mix)))
    stress_mixes

let prop_differential_random =
  QCheck.Test.make ~name:"array and list builders agree on random flows" ~count:100
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      match disagreement (Result.get_ok (Interleave.instances (Gen.flows_of_seed seed) [])) with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "seed %d: disagree on %s" seed what)

(* The state bound is checked while exploring: a bound one below the
   product size fails, the exact size builds. *)
let test_too_large_boundary () =
  let instances = Result.get_ok (Interleave.instances Stress.flows [ ("STA", 2); ("STB", 1); ("STC", 2) ]) in
  let n = Interleave.n_states (Interleave.make instances) in
  (match Interleave.make ~max_states:(n - 1) instances with
  | exception Interleave.Too_large m -> Alcotest.(check int) "reported bound" (n - 1) m
  | _ -> Alcotest.failf "max_states %d built a %d-state product" (n - 1) n);
  Alcotest.(check int) "max_states = n builds" n
    (Interleave.n_states (Interleave.make ~max_states:n instances))

(* Instance counts index 1..n in count order; an unknown flow name is an
   error naming it and the declared flows, never a silent drop. *)
let test_instances_from_counts () =
  let a = chain ~name:"a" ~len:1 and b = chain ~name:"b" ~len:1 in
  let described = function
    | Ok is -> List.map (fun i -> (i.Interleave.flow.Flow.name, i.Interleave.index)) is
    | Error m -> Alcotest.failf "unexpected error: %s" m
  in
  Alcotest.(check (list (pair string int)))
    "counts" [ ("b", 1); ("a", 2); ("a", 3) ]
    (described (Interleave.instances [ a; b ] [ ("b", 1); ("a", 2) ]));
  Alcotest.(check (list (pair string int)))
    "default: one of each" [ ("a", 1); ("b", 2) ]
    (described (Interleave.instances [ a; b ] []));
  match Interleave.instances [ a; b ] [ ("a", 1); ("zz", 1) ] with
  | Ok _ -> Alcotest.fail "unknown flow accepted"
  | Error m ->
      Alcotest.(check string)
        "names the flow and the declared ones"
        {|unknown flow "zz" in the instance counts (declared: a, b)|} m

let () =
  Alcotest.run "interleave"
    [
      ( "product",
        [
          Alcotest.test_case "grid states/edges" `Quick test_grid_states;
          Alcotest.test_case "instances from counts" `Quick test_instances_from_counts;
          Alcotest.test_case "binomial paths" `Quick test_grid_paths;
          Alcotest.test_case "three-way multinomial" `Quick test_three_way_paths;
          Alcotest.test_case "single instance" `Quick test_single_instance_is_flow;
          Alcotest.test_case "atomic blocks others" `Quick test_atomic_blocks_other_flows;
        ] );
      ( "errors",
        [
          Alcotest.test_case "not legally indexed" `Quick test_not_legally_indexed;
          Alcotest.test_case "message width clash" `Quick test_message_clash;
          Alcotest.test_case "shared message ok" `Quick test_shared_message_same_width_ok;
          Alcotest.test_case "too large" `Quick test_too_large;
          Alcotest.test_case "indexed instances" `Quick test_indexed_instances_of;
          Alcotest.test_case "too large boundary" `Quick test_too_large_boundary;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "paper example" `Quick test_differential_paper;
          Alcotest.test_case "T2 scenarios 1-3" `Quick test_differential_t2;
          Alcotest.test_case "select-spread stress mixes" `Quick test_differential_stress;
          QCheck_alcotest.to_alcotest prop_differential_random;
        ] );
      ( "stats",
        [
          Alcotest.test_case "toy" `Quick test_stats_toy;
          Alcotest.test_case "occurrences sum" `Quick test_stats_occurrences_sum_to_edges;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stats_consistent;
            prop_state_bound;
            prop_no_two_atomic;
            prop_executions_end_in_stop;
            prop_trace_length_matches_states;
          ] );
    ]
