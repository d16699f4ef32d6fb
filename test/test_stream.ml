(* Tests for the candidate oracles, the multicore Step-1/2 selection and
   the hardened SoC data structures.

   The list oracle (Combination.enumerate, maximal_only) and the plan's
   task split are checked against an independent power-set reference;
   the parallel selector is checked for bit-identical results across job
   counts and against the materialize-then-score path
   (Combination.enumerate + Select.step2); the trace-buffer ring and the
   event queue are checked against simple reference models. *)

open Flowtrace_core
open Flowtrace_soc

let key c = List.sort compare (List.map (fun (m : Message.t) -> m.Message.name) c)
let keyset cs = List.sort compare (List.map key cs)

(* A small deterministic pool drawn from a random interleaving's message
   set, capped so the 2^n reference enumeration stays tiny. *)
let pool_of_seed seed =
  let inter = Gen.interleaving_of_seed seed in
  let msgs = Interleave.messages inter in
  List.filteri (fun i _ -> i < 10) msgs

(* Independent reference: every non-empty subset (bitmask enumeration)
   whose summed trace width fits. *)
let subsets_ref msgs ~width =
  let arr = Array.of_list msgs in
  let n = Array.length arr in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let combo = ref [] and w = ref 0 in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then begin
        combo := arr.(i) :: !combo;
        w := !w + Message.trace_width arr.(i)
      end
    done;
    if !w <= width then out := !combo :: !out
  done;
  !out

(* Reference maximality filter: no fitting strict superset exists. *)
let maximal_ref msgs ~width =
  let all = subsets_ref msgs ~width in
  let keys = List.map key all in
  List.filter
    (fun c ->
      let kc = key c in
      not
        (List.exists
           (fun k ->
             List.length k > List.length kc
             && List.for_all (fun n -> List.mem n k) kc)
           keys))
    all

let width_of_seed seed msgs =
  let ws = List.map Message.trace_width msgs in
  let minw = List.fold_left min max_int ws in
  minw + (seed mod 7)

(* ------------------------------------------------------------------ *)
(* The list oracle vs reference *)

let seed_arb = QCheck.make (QCheck.Gen.int_bound 100_000)

let prop_enumerate_equals_powerset =
  QCheck.Test.make ~name:"enumerate = power-set reference" ~count:60 seed_arb (fun seed ->
      let msgs = pool_of_seed seed in
      let width = width_of_seed seed msgs in
      keyset (Combination.enumerate msgs ~width) = keyset (subsets_ref msgs ~width))

let prop_maximal_filter =
  QCheck.Test.make ~name:"maximal_only = reference" ~count:60 seed_arb (fun seed ->
      let msgs = pool_of_seed seed in
      let width = width_of_seed seed msgs in
      keyset (Combination.maximal_only (Combination.enumerate msgs ~width))
      = keyset (maximal_ref msgs ~width))

let prop_plan_partitions_candidates =
  QCheck.Test.make ~name:"plan tasks partition the candidate set" ~count:60 seed_arb
    (fun seed ->
      let msgs = pool_of_seed seed in
      let width = width_of_seed seed msgs in
      (* depth 3 forces several tasks even on these small pools *)
      let plan = Combination.plan ~depth:3 msgs ~width in
      let per_task =
        List.concat_map (Gen.task_candidates plan msgs) (List.init (Combination.n_tasks plan) Fun.id)
      in
      (* multiset equality: completeness and no duplicates across tasks *)
      keyset per_task = keyset (Combination.enumerate msgs ~width))

(* ------------------------------------------------------------------ *)
(* Parallel selection determinism *)

let check_jobs_identical name inter ~buffer_width =
  let run jobs = Select.select ~jobs ~pack:false inter ~buffer_width in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  Alcotest.(check (list string))
    (name ^ ": jobs 2 = jobs 1")
    (Select.selected_names r1) (Select.selected_names r2);
  Alcotest.(check (list string))
    (name ^ ": jobs 4 = jobs 1")
    (Select.selected_names r1) (Select.selected_names r4);
  Alcotest.(check (float 0.0)) (name ^ ": gain bit-identical (jobs 2)") r1.Select.gain
    r2.Select.gain;
  Alcotest.(check (float 0.0)) (name ^ ": gain bit-identical (jobs 4)") r1.Select.gain
    r4.Select.gain;
  (* the pre-PR materialize-then-score path picks the same selection *)
  let ref_msgs, ref_gain =
    Select.step2 inter (Combination.enumerate (Interleave.messages inter) ~width:buffer_width)
  in
  Alcotest.(check (list string))
    (name ^ ": kernel = list path")
    (List.map (fun (m : Message.t) -> m.Message.name) ref_msgs)
    (Select.selected_names r1);
  Alcotest.(check (float 1e-9)) (name ^ ": gain = list path") ref_gain r1.Select.gain

let test_scenarios_jobs_identical () =
  List.iter
    (fun sc ->
      let inter = Scenario.interleave sc in
      check_jobs_identical sc.Scenario.name inter ~buffer_width:32)
    Scenario.all

let test_stress_jobs_identical () =
  let inter = Stress.interleave () in
  check_jobs_identical "stress" inter ~buffer_width:Stress.default_buffer_width

let prop_random_jobs_identical =
  QCheck.Test.make ~name:"parallel select deterministic on random interleavings" ~count:25
    seed_arb
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let widths = List.map (fun (m : Message.t) -> m.Message.width) (Interleave.messages inter) in
      let minw = List.fold_left min max_int widths in
      let buffer_width = minw + 4 in
      let run jobs = Select.select ~jobs ~pack:false inter ~buffer_width in
      let r1 = run 1 and r4 = run 4 in
      Select.selected_names r1 = Select.selected_names r4
      && r1.Select.gain = r4.Select.gain)

(* ------------------------------------------------------------------ *)
(* Trace-buffer ring vs the old list semantics *)

let toy_selection () =
  Select.select ~pack:false (Toy.two_instances ()) ~buffer_width:3

let packet_of ~cycle ~inst msg =
  { Packet.cycle; flow = "CC"; inst; msg; src = "L2"; dst = "C"; fields = [] }

(* Reference model of the old behavior: keep the last [depth] observable
   packets, count every observable packet as recorded, the overwritten
   ones as dropped. *)
let prop_ring_matches_list_semantics =
  QCheck.Test.make ~name:"ring buffer = last-depth-entries list semantics" ~count:100
    seed_arb
    (fun seed ->
      let sel = toy_selection () in
      let selected = Select.selected_names sel in
      let pool =
        List.map (fun (m : Message.t) -> m.Message.name) (Interleave.messages (Toy.two_instances ()))
        @ [ "unobserved" ]
      in
      let pool = Array.of_list pool in
      let n_packets = 1 + (Hashtbl.hash (seed, `n) mod 40) in
      let depth = 1 + (Hashtbl.hash (seed, `d) mod 8) in
      let packets =
        List.init n_packets (fun i ->
            let msg = pool.(Hashtbl.hash (seed, `m, i) mod Array.length pool) in
            packet_of ~cycle:i ~inst:(1 + (i mod 2)) msg)
      in
      let buf = Trace_buffer.create ~depth sel in
      Trace_buffer.record_all buf packets;
      let observable =
        List.filter (fun (p : Packet.t) -> List.mem p.Packet.msg selected) packets
      in
      let total = List.length observable in
      let expect_kept =
        let drop = max 0 (total - depth) in
        List.filteri (fun i _ -> i >= drop) observable
      in
      let kept = Trace_buffer.entries buf in
      Trace_buffer.stats buf = (total, max 0 (total - depth))
      && Trace_buffer.wrapped buf = (total > depth)
      && List.length kept = List.length expect_kept
      && List.for_all2
           (fun (e : Trace_buffer.entry) (p : Packet.t) ->
             e.Trace_buffer.e_cycle = p.Packet.cycle
             && Indexed.equal e.Trace_buffer.e_imsg (Packet.indexed p))
           kept expect_kept
      && List.map (fun (e : Trace_buffer.entry) -> e.Trace_buffer.e_imsg) kept
         = Trace_buffer.observed buf)

(* ------------------------------------------------------------------ *)
(* Event queue vs a stable-sort reference *)

let prop_event_queue_matches_reference =
  QCheck.Test.make ~name:"event queue pops = stable priority reference" ~count:100
    seed_arb
    (fun seed ->
      let q = Event_queue.create () in
      let pending = ref [] (* (at, seq) in insertion order *) in
      let seq = ref 0 in
      let ok = ref true in
      let pop_reference () =
        match !pending with
        | [] -> None
        | l ->
            let best =
              List.fold_left
                (fun best e ->
                  match best with
                  | None -> Some e
                  | Some (bat, bseq) ->
                      let at, s = e in
                      if at < bat || (at = bat && s < bseq) then Some e else best)
                None l
            in
            let b = Option.get best in
            pending := List.filter (fun e -> e <> b) l;
            Some b
      in
      let check_pop () =
        let expect = pop_reference () in
        (match expect with
        | Some (at, _) ->
            if Event_queue.peek_time q <> Some at then ok := false
        | None -> if Event_queue.peek_time q <> None then ok := false);
        let got = Event_queue.pop q in
        let got = Option.map (fun (t, payload) -> (t, payload)) got in
        if got <> expect then ok := false
      in
      for i = 0 to 79 do
        let h = Hashtbl.hash (seed, i) in
        if h mod 3 = 0 then check_pop ()
        else begin
          let at = h / 3 mod 20 in
          Event_queue.push q ~at !seq;
          pending := !pending @ [ (at, !seq) ];
          incr seq
        end
      done;
      while not (Event_queue.is_empty q) || !pending <> [] do
        check_pop ()
      done;
      !ok && Event_queue.length q = 0)

(* The pop fix: a popped payload must become collectable — the old heap
   left the entry in the vacated slot, pinning it until overwritten. *)
let test_pop_releases_payload () =
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  let () =
    let payload = ref 42 in
    Weak.set w 0 (Some payload);
    Event_queue.push q ~at:1 payload
  in
  (match Event_queue.pop q with
  | Some (1, p) -> assert (!p = 42)
  | _ -> Alcotest.fail "expected the pushed event");
  Gc.full_major ();
  Alcotest.(check bool) "payload collected after pop" false (Weak.check w 0)

let () =
  Alcotest.run "stream"
    [
      (* the group keeps the name of the streaming fold that used to
         produce these candidate lists, so its test ids stay stable *)
      ( "streaming fold",
        List.map QCheck_alcotest.to_alcotest
          [ prop_enumerate_equals_powerset; prop_maximal_filter; prop_plan_partitions_candidates ]
      );
      ( "parallel select",
        [
          Alcotest.test_case "scenarios: jobs 1/2/4 identical" `Quick
            test_scenarios_jobs_identical;
          Alcotest.test_case "stress: jobs 1/2/4 identical" `Slow test_stress_jobs_identical;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_random_jobs_identical ] );
      ( "trace buffer ring",
        List.map QCheck_alcotest.to_alcotest [ prop_ring_matches_list_semantics ] );
      ( "event queue",
        [ Alcotest.test_case "pop releases payload" `Quick test_pop_releases_payload ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_event_queue_matches_reference ] );
    ]
