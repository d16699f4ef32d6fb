(* Unit and property tests for the base formalism: messages, flows and
   their validation, the deterministic RNG, and DAG algorithms. *)

open Flowtrace_core

(* ------------------------------------------------------------------ *)
(* Message *)

let test_message_make () =
  let m = Message.make ~src:"a" ~dst:"b" "req" 4 in
  Alcotest.(check int) "width" 4 (Message.width m);
  Alcotest.(check string) "src" "a" m.Message.src;
  Alcotest.(check string) "dst" "b" m.Message.dst

let raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let test_total_width () =
  let ms = [ Message.make "a" 3; Message.make "b" 5; Message.make "c" 1 ] in
  Alcotest.(check int) "total" 9 (Message.total_width ms)

let test_subgroup_lookup () =
  let m = Message.make ~subgroups:[ Message.subgroup "id" 6 ] "data" 20 in
  (match Message.find_subgroup m "id" with
  | Some sg ->
      Alcotest.(check int) "sub width" 6 sg.Message.sg_width;
      Alcotest.(check string) "qualified" "data.id" (Message.qualified_subgroup_name m sg)
  | None -> Alcotest.fail "subgroup not found");
  Alcotest.(check bool) "missing" true (Message.find_subgroup m "nope" = None)

(* ------------------------------------------------------------------ *)
(* Flow validation *)

let mk_flow ?(states = [ "a"; "b" ]) ?(initial = [ "a" ]) ?(stop = [ "b" ]) ?(atomic = [])
    ?(messages = [ Message.make "m" 1 ]) ?(transitions = [ Flow.transition "a" "m" "b" ]) () =
  Flow.make ~name:"t" ~states ~initial ~stop ~atomic ~messages ~transitions ()

let invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Flow.Invalid _ -> ()
      | _ -> Alcotest.fail "expected Flow.Invalid")

let test_valid_flow () =
  let f = mk_flow () in
  Alcotest.(check int) "states" 2 (Flow.n_states f)

let test_executions_toy () =
  Alcotest.(check (list (list string)))
    "single path"
    [ [ "ReqE"; "GntE"; "Ack" ] ]
    (Flow.executions Toy.cache_coherence)

let test_successors () =
  let f = Toy.cache_coherence in
  Alcotest.(check int) "n at n" 1 (List.length (Flow.successors f "n"));
  Alcotest.(check int) "none at d" 0 (List.length (Flow.successors f "d"));
  Alcotest.(check int) "pred of d" 1 (List.length (Flow.predecessors f "d"))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Dag *)

let diamond_succ s f = List.iter f (match s with 0 -> [ 1; 2 ] | 1 | 2 -> [ 3 ] | _ -> [])

let test_dag_topo () =
  let order = Dag.topo_order ~n:4 ~succ:diamond_succ in
  let pos = Array.make 4 0 in
  List.iteri (fun i s -> pos.(s) <- i) order;
  Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
  Alcotest.(check bool) "2 before 3" true (pos.(2) < pos.(3))

let test_dag_count_paths () =
  Alcotest.(check int) "diamond" 2
    (Dag.count_paths ~n:4 ~succ:diamond_succ ~sources:[ 0 ] ~is_sink:(fun s -> s = 3))

let test_dag_cycle () =
  match Dag.topo_order ~n:2 ~succ:(fun s f -> f (if s = 0 then 1 else 0)) with
  | exception Dag.Cycle -> ()
  | _ -> Alcotest.fail "expected Cycle"

let test_sat_add () =
  Alcotest.(check int) "saturates" max_int (Dag.sat_add max_int 1);
  Alcotest.(check int) "normal" 5 (Dag.sat_add 2 3)

let test_longest_path () =
  Alcotest.(check int) "diamond longest" 2 (Dag.longest_path ~n:4 ~succ:diamond_succ ~sources:[ 0 ])

(* ------------------------------------------------------------------ *)
(* Indexed *)

let test_indexed () =
  let a = Indexed.make "ReqE" 1 in
  Alcotest.(check string) "render" "1:ReqE" (Indexed.to_string a);
  Alcotest.(check bool) "equal" true (Indexed.equal a (Indexed.make "ReqE" 1));
  Alcotest.(check bool) "not equal" false (Indexed.equal a (Indexed.make "ReqE" 2))

(* ------------------------------------------------------------------ *)
(* Properties over random flows *)

let prop_random_flows_valid =
  QCheck.Test.make ~name:"generated flows satisfy validate" ~count:200 Gen.flow_arb (fun f ->
      match Flow.validate f with Ok () -> true | Error _ -> false)

let prop_executions_end_in_stop =
  QCheck.Test.make ~name:"every execution reaches a stop state" ~count:100 Gen.flow_arb (fun f ->
      let paths = Flow.executions ~limit:100_000 f in
      paths <> [] && List.for_all (fun p -> p <> []) paths)

let prop_flow_roundtrip_message_count =
  QCheck.Test.make ~name:"executions only use declared messages" ~count:100 Gen.flow_arb
    (fun f ->
      let declared = List.map (fun m -> m.Message.name) f.Flow.messages in
      List.for_all
        (List.for_all (fun m -> List.exists (String.equal m) declared))
        (Flow.executions ~limit:100_000 f))

let () =
  Alcotest.run "core_formalism"
    [
      ( "message",
        [
          Alcotest.test_case "make" `Quick test_message_make;
          Alcotest.test_case "total_width" `Quick test_total_width;
          Alcotest.test_case "subgroups" `Quick test_subgroup_lookup;
          raises_invalid "empty name" (fun () -> Message.make "" 1);
          raises_invalid "zero width" (fun () -> Message.make "m" 0);
          raises_invalid "subgroup too wide" (fun () ->
              Message.make ~subgroups:[ Message.subgroup "s" 4 ] "m" 4);
          raises_invalid "duplicate subgroups" (fun () ->
              Message.make ~subgroups:[ Message.subgroup "s" 1; Message.subgroup "s" 2 ] "m" 4);
        ] );
      ( "flow",
        [
          Alcotest.test_case "valid" `Quick test_valid_flow;
          Alcotest.test_case "executions toy" `Quick test_executions_toy;
          Alcotest.test_case "successors" `Quick test_successors;
          invalid "no initial" (fun () -> mk_flow ~initial:[] ());
          invalid "no stop" (fun () -> mk_flow ~stop:[] ());
          invalid "stop and atomic overlap" (fun () -> mk_flow ~atomic:[ "b" ] ());
          invalid "undeclared state in transition" (fun () ->
              mk_flow ~transitions:[ Flow.transition "a" "m" "z" ] ());
          invalid "undeclared message" (fun () ->
              mk_flow ~transitions:[ Flow.transition "a" "nope" "b" ] ());
          invalid "cycle" (fun () ->
              mk_flow
                ~states:[ "a"; "b"; "c" ]
                ~messages:[ Message.make "m" 1; Message.make "n" 1; Message.make "o" 1 ]
                ~transitions:
                  [
                    Flow.transition "a" "m" "b";
                    Flow.transition "b" "n" "c";
                    Flow.transition "c" "o" "b";
                  ]
                ());
          invalid "unreachable state" (fun () -> mk_flow ~states:[ "a"; "b"; "orphan" ] ());
          invalid "state cannot reach stop" (fun () ->
              mk_flow
                ~states:[ "a"; "b"; "trap" ]
                ~messages:[ Message.make "m" 1; Message.make "n" 1 ]
                ~transitions:[ Flow.transition "a" "m" "b"; Flow.transition "a" "n" "trap" ]
                ());
          invalid "stop with outgoing edge" (fun () ->
              mk_flow
                ~states:[ "a"; "b"; "c" ]
                ~stop:[ "b" ]
                ~messages:[ Message.make "m" 1; Message.make "n" 1 ]
                ~transitions:[ Flow.transition "a" "m" "b"; Flow.transition "b" "n" "c" ]
                ());
          invalid "duplicate states" (fun () -> mk_flow ~states:[ "a"; "b"; "a" ] ());
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ] );
      ( "dag",
        [
          Alcotest.test_case "topo" `Quick test_dag_topo;
          Alcotest.test_case "count paths" `Quick test_dag_count_paths;
          Alcotest.test_case "cycle detected" `Quick test_dag_cycle;
          Alcotest.test_case "saturating add" `Quick test_sat_add;
          Alcotest.test_case "longest path" `Quick test_longest_path;
        ] );
      ("indexed", [ Alcotest.test_case "render/equal" `Quick test_indexed ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_flows_valid; prop_executions_end_in_stop; prop_flow_roundtrip_message_count ]
      );
    ]
