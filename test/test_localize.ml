(* Tests for path localization (Section 5.2). *)

open Flowtrace_core

let test_empty_observation_nothing_selected () =
  (* Nothing traced: every path is consistent with the empty observation. *)
  let inter = Toy.two_instances () in
  Alcotest.(check int) "all paths" (Interleave.total_paths inter)
    (Localize.consistent_paths inter ~selected:(fun _ -> false) ~observed:[])

let test_full_trace_unique () =
  (* Tracing everything and observing a complete trace pins one path when
     edge labels are unambiguous. *)
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 5) inter in
  Alcotest.(check int) "unique" 1
    (Localize.consistent_paths inter ~selected:(fun _ -> true) ~observed:path.Execution.trace)

let test_impossible_observation () =
  let inter = Toy.two_instances () in
  let obs = [ Indexed.make "Ack" 1; Indexed.make "ReqE" 1 ] in
  (* Ack before ReqE for the same instance cannot happen *)
  Alcotest.(check int) "impossible" 0
    (Localize.consistent_paths inter ~selected:(fun _ -> true) ~observed:obs)

let test_fraction_bounds () =
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 11) inter in
  let sel b = b = "ReqE" in
  let obs = Execution.project ~selected:sel path.Execution.trace in
  let f = Localize.fraction inter ~selected:sel ~observed:obs in
  Alcotest.(check bool) "0 < f <= 1" true (f > 0.0 && f <= 1.0)

let test_prefix_at_least_exact () =
  let inter = Toy.two_instances () in
  let sel b = b = "ReqE" || b = "GntE" in
  let obs = [ Indexed.make "ReqE" 1; Indexed.make "GntE" 1 ] in
  let exact = Localize.consistent_paths ~semantics:Localize.Exact inter ~selected:sel ~observed:obs in
  let prefix = Localize.consistent_paths ~semantics:Localize.Prefix inter ~selected:sel ~observed:obs in
  Alcotest.(check bool) "prefix >= exact" true (prefix >= exact)

let test_more_messages_localize_better () =
  (* Observing through a larger selected set can only reduce (or keep) the
     number of consistent paths, given observations projected from the same
     ground-truth execution. *)
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 23) inter in
  let small b = b = "ReqE" in
  let big b = b = "ReqE" || b = "GntE" in
  let c sel = Localize.consistent_paths inter ~selected:sel
      ~observed:(Execution.project ~selected:sel path.Execution.trace)
  in
  Alcotest.(check bool) "finer observation" true (c big <= c small)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_projected_trace_is_consistent =
  QCheck.Test.make ~name:"projection of a real execution is always consistent" ~count:80
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let rng = Rng.create (seed + 3) in
      let names =
        List.filter_map
          (fun (m : Message.t) -> if Rng.bool rng then Some m.Message.name else None)
          (Interleave.messages inter)
      in
      let sel b = List.mem b names in
      let obs = Execution.project ~selected:sel path.Execution.trace in
      Localize.consistent_paths inter ~selected:sel ~observed:obs >= 1)

let prop_fraction_never_exceeds_one =
  QCheck.Test.make ~name:"localization fraction is in [0,1]" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel _ = true in
      let f = Localize.fraction inter ~selected:sel ~observed:path.Execution.trace in
      f >= 0.0 && f <= 1.0)

let prop_exact_consistent_counts_paths =
  QCheck.Test.make ~name:"sum of exact counts over enumerated projections = total paths" ~count:25
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      (* Partition property: every execution projects to exactly one
         observation, so summing consistent path counts over the distinct
         projections of all executions recovers the total path count. *)
      let inter = Gen.interleaving_of_seed seed in
      if Interleave.total_paths inter > 2000 then true
      else begin
        let sel b = String.length b mod 2 = 0 in
        let traces = Execution.enumerate ~limit:5000 inter in
        let projections =
          List.sort_uniq compare (List.map (Execution.project ~selected:sel) traces)
        in
        let total =
          List.fold_left
            (fun acc obs -> acc + Localize.consistent_paths inter ~selected:sel ~observed:obs)
            0 projections
        in
        total = Interleave.total_paths inter
      end)


(* ------------------------------------------------------------------ *)
(* Suffix semantics: the wrapped trace buffer *)

let test_suffix_full_observation () =
  (* a complete observation is its own suffix: counts match Exact *)
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 9) inter in
  let sel _ = true in
  Alcotest.(check int) "suffix = exact on full trace"
    (Localize.consistent_paths ~semantics:Localize.Exact inter ~selected:sel
       ~observed:path.Execution.trace)
    (Localize.consistent_paths ~semantics:Localize.Suffix inter ~selected:sel
       ~observed:path.Execution.trace)

let test_suffix_empty_observation () =
  (* a buffer that wrapped away everything carries no information *)
  let inter = Toy.two_instances () in
  Alcotest.(check int) "all paths" (Interleave.total_paths inter)
    (Localize.consistent_paths ~semantics:Localize.Suffix inter ~selected:(fun _ -> true)
       ~observed:[])

let test_suffix_tail_of_projection () =
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 31) inter in
  let sel b = b = "ReqE" || b = "Ack" in
  let proj = Execution.project ~selected:sel path.Execution.trace in
  (* drop the first entries, as wrap-around would *)
  let tail = match proj with _ :: _ :: rest -> rest | l -> l in
  let n = Localize.consistent_paths ~semantics:Localize.Suffix inter ~selected:sel ~observed:tail in
  Alcotest.(check bool) "ground truth consistent" true (n >= 1)

let prop_suffix_at_least_exact =
  QCheck.Test.make ~name:"suffix count >= exact count" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel b = String.length b mod 2 = 1 in
      let obs = Execution.project ~selected:sel path.Execution.trace in
      let c s = Localize.consistent_paths ~semantics:s inter ~selected:sel ~observed:obs in
      c Localize.Suffix >= c Localize.Exact)

let prop_suffix_tail_consistent =
  QCheck.Test.make ~name:"wrapped observation keeps ground truth consistent" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel _ = true in
      let proj = Execution.project ~selected:sel path.Execution.trace in
      let tail = match proj with _ :: rest -> rest | [] -> [] in
      Localize.consistent_paths ~semantics:Localize.Suffix inter ~selected:sel ~observed:tail >= 1)

(* ------------------------------------------------------------------ *)
(* Lossy (gap-tolerant) localization *)

(* drop [d] observation entries at seeded positions *)
let drop_some ~seed ~d obs =
  let rng = Rng.create seed in
  let n = List.length obs in
  let victims = ref [] in
  let remaining = ref d in
  while !remaining > 0 && List.length !victims < n do
    let i = Rng.int rng (max 1 n) in
    if not (List.mem i !victims) then begin
      victims := i :: !victims;
      decr remaining
    end
  done;
  List.filteri (fun i _ -> not (List.mem i !victims)) obs

let test_lossy_budget_zero_is_exact () =
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 5) inter in
  let sel b = b = "ReqE" || b = "Ack" in
  let obs = Execution.project ~selected:sel path.Execution.trace in
  let r = Localize.lossy ~skip_budget:0 inter ~selected:sel ~observed:obs in
  Alcotest.(check int) "consistent = exact"
    (Localize.consistent_paths ~semantics:Localize.Exact inter ~selected:sel ~observed:obs)
    r.Localize.lr_consistent;
  Alcotest.(check int) "no discards" 0 r.Localize.lr_discarded;
  Alcotest.(check int) "no skips" 0 r.Localize.lr_skips;
  Alcotest.(check (float 1e-9)) "full confidence" 1.0 r.Localize.lr_confidence

let test_lossy_recovers_from_bogus_entry () =
  (* an entry no execution can ever emit forces a resync discard *)
  let inter = Toy.two_instances () in
  let path = Execution.random ~rng:(Rng.create 7) inter in
  let sel _ = true in
  let obs = Execution.project ~selected:sel path.Execution.trace in
  let poisoned = Indexed.make "NoSuchMsg" 9 :: obs in
  let r0 = Localize.lossy ~skip_budget:0 inter ~selected:sel ~observed:poisoned in
  Alcotest.(check int) "budget 0 cannot explain it" 0 r0.Localize.lr_consistent;
  let r = Localize.lossy ~skip_budget:2 inter ~selected:sel ~observed:poisoned in
  Alcotest.(check int) "exactly one resync discard" 1 r.Localize.lr_discarded;
  Alcotest.(check bool) "ground truth recovered" true (r.Localize.lr_consistent >= 1);
  Alcotest.(check bool) "confidence reduced" true (r.Localize.lr_confidence < 1.0)

let test_lossy_rejects_suffix_and_negative_budget () =
  let inter = Toy.two_instances () in
  (match Localize.lossy ~semantics:Localize.Suffix inter ~selected:(fun _ -> true) ~observed:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for Suffix");
  match Localize.lossy ~skip_budget:(-1) inter ~selected:(fun _ -> true) ~observed:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for negative budget"

let prop_lossy_budget_zero_matches_strict =
  QCheck.Test.make ~name:"lossy with budget 0 = strict count (Exact and Prefix)" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel b = String.length b mod 2 = 0 in
      let obs = Execution.project ~selected:sel path.Execution.trace in
      List.for_all
        (fun sem ->
          let r = Localize.lossy ~semantics:sem ~skip_budget:0 inter ~selected:sel ~observed:obs in
          r.Localize.lr_consistent
          = Localize.consistent_paths ~semantics:sem inter ~selected:sel ~observed:obs)
        [ Localize.Exact; Localize.Prefix ])

let prop_lossy_survives_drops =
  QCheck.Test.make ~name:"budget >= losses keeps the true path consistent" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel _ = true in
      let obs = Execution.project ~selected:sel path.Execution.trace in
      let d = min 3 (List.length obs) in
      let lossy_obs = drop_some ~seed:(seed + 1) ~d obs in
      let r = Localize.lossy ~skip_budget:d inter ~selected:sel ~observed:lossy_obs in
      r.Localize.lr_consistent >= 1)

let prop_lossy_monotone_in_budget =
  QCheck.Test.make ~name:"consistent count is monotone in the skip budget" ~count:40
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel b = String.length b mod 2 = 1 in
      let obs = drop_some ~seed:(seed + 2) ~d:2 (Execution.project ~selected:sel path.Execution.trace) in
      let c k =
        (Localize.lossy ~skip_budget:k inter ~selected:sel ~observed:obs).Localize.lr_consistent
      in
      c 0 <= c 1 && c 1 <= c 2 && c 2 <= c 4)

let prop_lossy_report_bounds =
  QCheck.Test.make ~name:"lossy fraction and confidence stay in [0,1]" ~count:60
    (QCheck.make (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let path = Execution.random ~rng:(Rng.create seed) inter in
      let sel _ = true in
      let obs = drop_some ~seed:(seed + 3) ~d:2 (Execution.project ~selected:sel path.Execution.trace) in
      let r = Localize.lossy ~skip_budget:3 inter ~selected:sel ~observed:obs in
      let f = Localize.lossy_fraction r in
      f >= 0.0 && f <= 1.0 && r.Localize.lr_confidence >= 0.0 && r.Localize.lr_confidence <= 1.0
      && r.Localize.lr_discarded + r.Localize.lr_skips <= r.Localize.lr_budget + List.length obs)

(* Execution.enumerate allows exactly [limit] executions: on the paper's
   two-instance interleaving, [~limit:n] (n = total paths) returns all n
   traces, and one fewer raises. *)
let test_enumerate_limit_boundary () =
  let inter = Toy.two_instances () in
  let n = Interleave.total_paths inter in
  Alcotest.(check bool) "more than one execution" true (n > 1);
  let traces = Execution.enumerate ~limit:n inter in
  Alcotest.(check int) "limit n returns all n" n (List.length traces);
  Alcotest.(check int) "all distinct" n (List.length (List.sort_uniq compare traces));
  Alcotest.check_raises "limit n-1 raises"
    (Failure "Execution.enumerate: limit exceeded") (fun () ->
      ignore (Execution.enumerate ~limit:(n - 1) inter))

let () =
  Alcotest.run "localize"
    [
      ( "unit",
        [
          Alcotest.test_case "empty observation" `Quick test_empty_observation_nothing_selected;
          Alcotest.test_case "full trace unique" `Quick test_full_trace_unique;
          Alcotest.test_case "impossible observation" `Quick test_impossible_observation;
          Alcotest.test_case "fraction bounds" `Quick test_fraction_bounds;
          Alcotest.test_case "prefix >= exact" `Quick test_prefix_at_least_exact;
          Alcotest.test_case "finer observation localizes better" `Quick
            test_more_messages_localize_better;
        ] );
      ( "execution",
        [ Alcotest.test_case "enumerate limit boundary" `Quick test_enumerate_limit_boundary ] );
      ( "suffix",
        [
          Alcotest.test_case "full observation" `Quick test_suffix_full_observation;
          Alcotest.test_case "empty observation" `Quick test_suffix_empty_observation;
          Alcotest.test_case "tail of projection" `Quick test_suffix_tail_of_projection;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "budget 0 = exact" `Quick test_lossy_budget_zero_is_exact;
          Alcotest.test_case "resync past bogus entry" `Quick test_lossy_recovers_from_bogus_entry;
          Alcotest.test_case "rejects Suffix and negative budget" `Quick
            test_lossy_rejects_suffix_and_negative_budget;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_projected_trace_is_consistent;
            prop_fraction_never_exceeds_one;
            prop_exact_consistent_counts_paths;
            prop_suffix_at_least_exact;
            prop_suffix_tail_consistent;
            prop_lossy_budget_zero_matches_strict;
            prop_lossy_survives_drops;
            prop_lossy_monotone_in_budget;
            prop_lossy_report_bounds;
          ] );
    ]
