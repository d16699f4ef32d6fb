(* Tests for the word-parallel selection kernel and the determinism
   bugfix sweep.

   The Bitset substrate is checked against a bool-array reference; the
   kernel is checked bit-identical to the brute-force list oracle
   (Combination.enumerate + Select.step2) on the built-in scenarios, the
   stress workload, random interleavings and a pool wider than one
   machine word, at jobs 1/2/4; Indexed.hash is pinned to explicit
   vectors (it must not drift, and must separate names differing only
   deep in the string); and the kernel's candidate comparator is checked
   to be a strict total order — the epsilon tie-break it replaced was not
   transitive. *)

open Flowtrace_core
open Flowtrace_soc

let seed_arb = QCheck.make (QCheck.Gen.int_bound 100_000)

(* ------------------------------------------------------------------ *)
(* Bitset vs a bool-array reference *)

let prop_bitset_matches_reference =
  QCheck.Test.make ~name:"bitset = bool-array reference" ~count:200 seed_arb (fun seed ->
      let h k = Hashtbl.hash (seed, k) in
      let n = 1 + (h `n mod 200) in
      let b = Bitset.create n and r = Array.make n false in
      for i = 0 to 2 * n do
        let j = h (`set i) mod n in
        Bitset.set b j;
        r.(j) <- true
      done;
      let members_agree = ref true in
      for j = 0 to n - 1 do
        if Bitset.mem b j <> r.(j) then members_agree := false
      done;
      let ref_count = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 r in
      !members_agree && Bitset.length b = n && Bitset.popcount b = ref_count)

let prop_popcount_union_matches_reference =
  QCheck.Test.make ~name:"popcount_union = materialized union" ~count:200 seed_arb
    (fun seed ->
      let h k = Hashtbl.hash (seed, k) in
      let n = 1 + (h `n mod 150) in
      let k = h `k mod 5 in
      let sets =
        List.init k (fun s ->
            let b = Bitset.create n in
            for i = 0 to h (`fill s) mod (n + 1) do
              Bitset.set b (h (`bit (s, i)) mod n)
            done;
            b)
      in
      let into = Bitset.create n in
      List.iter (fun s -> Bitset.union_into ~into s) sets;
      Bitset.popcount_union sets = Bitset.popcount into)

let prop_popcount_word =
  QCheck.Test.make ~name:"popcount_word = naive bit count" ~count:500
    (QCheck.make (QCheck.Gen.int_bound max_int))
    (fun w ->
      let naive = ref 0 in
      for i = 0 to 62 do
        if w land (1 lsl i) <> 0 then incr naive
      done;
      Bitset.popcount_word w = !naive)

let test_bitset_range_checks () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set past the universe"
    (Invalid_argument "Bitset.set: index 10 out of [0, 10)") (fun () -> Bitset.set b 10);
  Alcotest.check_raises "mem below the universe"
    (Invalid_argument "Bitset.mem: index -1 out of [0, 10)") (fun () ->
      ignore (Bitset.mem b (-1)));
  Bitset.set b 9;
  Bitset.clear b;
  Alcotest.(check int) "clear empties" 0 (Bitset.popcount b)

(* ------------------------------------------------------------------ *)
(* Indexed.hash: pinned vectors and deep-name separation *)

(* Pinned outputs of the explicit FNV-1a mix. The previous implementation
   was the polymorphic [Hashtbl.hash], whose traversal budget stops
   reading long values; these vectors also freeze the 30-bit masking that
   keeps the value identical across word sizes. *)
let hash_vectors =
  [
    ("ReqE", 1, 0x34dd991b);
    ("GntE", 2, 0xd2e70f9);
    ("piordack", 1, 0x42f6ff);
    ("", 0, 0x117697cd);
    ("a", 65535, 0x2792c5e2);
    ("mondoacknack", 3, 0x18b83a11);
    ("token_pid_sel", 2, 0x3d86d79);
  ]

let test_hash_pinned_vectors () =
  List.iter
    (fun (base, inst, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "hash %S/%d" base inst)
        expect
        (Indexed.hash (Indexed.make base inst)))
    hash_vectors

let test_hash_separates_deep_suffixes () =
  (* names sharing a long prefix and differing only in the final char:
     the polymorphic hash collapsed whole families of these to one
     bucket; the explicit mix must keep them apart *)
  let prefix = String.make 120 'x' in
  let hashes =
    List.init 64 (fun i -> Indexed.hash (Indexed.make (prefix ^ string_of_int i) 1))
  in
  let distinct = List.sort_uniq compare hashes in
  Alcotest.(check int) "64 deep-suffix names, 64 hash values" 64 (List.length distinct)

let prop_hash_consistent_with_equal =
  QCheck.Test.make ~name:"hash consistent with equal" ~count:200 seed_arb (fun seed ->
      let h k = Hashtbl.hash (seed, k) in
      let a = Indexed.make (Printf.sprintf "m%d" (h `a mod 20)) (h `i mod 4) in
      let b = Indexed.make (Printf.sprintf "m%d" (h `b mod 20)) (h `j mod 4) in
      (not (Indexed.equal a b)) || Indexed.hash a = Indexed.hash b)

(* ------------------------------------------------------------------ *)
(* The candidate comparator is a strict total order *)

(* Score every candidate of a small random pool on the kernel. The
   comparator must order any two distinct candidates one way (totality),
   never both ways (antisymmetry), and chains must compose
   (transitivity) — the epsilon tie-break this replaced broke
   transitivity whenever two gains sat within 1e-12 of each other but a
   third straddled the band. *)
let candidates_of_seed seed =
  let inter = Gen.interleaving_of_seed seed in
  let k = Kernel.make inter in
  let msgs = List.filteri (fun i _ -> i < 8) (Interleave.messages inter) in
  let widths = List.map Message.trace_width msgs in
  let minw = List.fold_left min max_int widths in
  let cands =
    List.map
      (fun c ->
        Option.get (Kernel.candidate_of_names k (List.map (fun (m : Message.t) -> m.Message.name) c)))
      (Combination.enumerate msgs ~width:(minw + (seed mod 5)))
  in
  (k, Array.of_list cands)

let prop_better_strict_total =
  QCheck.Test.make ~name:"Kernel.better is irreflexive, antisymmetric, total" ~count:40
    seed_arb
    (fun seed ->
      let k, cands = candidates_of_seed seed in
      let n = Array.length cands in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Kernel.better k cands.(i) cands.(i) then ok := false;
        for j = i + 1 to n - 1 do
          let ab = Kernel.better k cands.(i) cands.(j)
          and ba = Kernel.better k cands.(j) cands.(i) in
          (* distinct candidates (distinct keys) must compare one way *)
          if Kernel.key k cands.(i) <> Kernel.key k cands.(j) && ab = ba then ok := false
        done
      done;
      !ok)

let prop_better_transitive =
  QCheck.Test.make ~name:"Kernel.better is transitive" ~count:25 seed_arb (fun seed ->
      let k, cands = candidates_of_seed seed in
      let n = min 18 (Array.length cands) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for l = 0 to n - 1 do
            if
              Kernel.better k cands.(i) cands.(j)
              && Kernel.better k cands.(j) cands.(l)
              && not (Kernel.better k cands.(i) cands.(l))
            then ok := false
          done
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The kernel = the brute-force list oracle, bit for bit *)

(* Materialize every fitting candidate, score the list with Step 2, and
   take coverage from the edge-list scan — no kernel involved. *)
let list_oracle ~strategy inter ~buffer_width =
  let combos = Combination.enumerate (Interleave.messages inter) ~width:buffer_width in
  let combos = if strategy = Select.Exact_maximal then Combination.maximal_only combos else combos in
  let combo, gain = Select.step2 inter combos in
  Select.finalize ~pack:false inter ~combo ~gain ~buffer_width

let same_result (a : Select.result) (b : Select.result) =
  Select.selected_names a = Select.selected_names b
  && Int64.bits_of_float a.Select.gain = Int64.bits_of_float b.Select.gain
  && Int64.bits_of_float a.Select.coverage = Int64.bits_of_float b.Select.coverage
  && a.Select.bits_used = b.Select.bits_used

let check_kernel_equals_oracle name ?(strategy = Select.Exact) inter ~buffer_width =
  let o = list_oracle ~strategy inter ~buffer_width in
  List.iter
    (fun jobs ->
      let b = Select.select ~strategy ~jobs ~pack:false inter ~buffer_width in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: kernel j%d = list oracle" name jobs)
        (Select.selected_names o) (Select.selected_names b);
      Alcotest.(check int64)
        (Printf.sprintf "%s: gain bits identical j%d" name jobs)
        (Int64.bits_of_float o.Select.gain)
        (Int64.bits_of_float b.Select.gain);
      Alcotest.(check int64)
        (Printf.sprintf "%s: coverage bits identical j%d" name jobs)
        (Int64.bits_of_float o.Select.coverage)
        (Int64.bits_of_float b.Select.coverage);
      Alcotest.(check int)
        (Printf.sprintf "%s: bits_used identical j%d" name jobs)
        o.Select.bits_used b.Select.bits_used)
    [ 1; 2; 4 ]

let test_scenarios_engines_identical () =
  List.iter
    (fun sc ->
      let inter = Scenario.interleave sc in
      check_kernel_equals_oracle sc.Scenario.name inter ~buffer_width:32;
      check_kernel_equals_oracle
        (sc.Scenario.name ^ "/maximal")
        ~strategy:Select.Exact_maximal inter ~buffer_width:32)
    Scenario.all

let test_stress_engines_identical () =
  let inter = Stress.interleave () in
  check_kernel_equals_oracle "stress" inter ~buffer_width:Stress.default_buffer_width

let prop_random_engines_identical =
  QCheck.Test.make ~name:"bitset = list oracle on random interleavings" ~count:25 seed_arb
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let widths = List.map (fun (m : Message.t) -> m.Message.width) (Interleave.messages inter) in
      let minw = List.fold_left min max_int widths in
      let buffer_width = minw + 4 in
      let strategy = if seed mod 2 = 0 then Select.Exact else Select.Exact_maximal in
      let o = list_oracle ~strategy inter ~buffer_width in
      List.for_all
        (fun jobs -> same_result o (Select.select ~strategy ~jobs ~pack:false inter ~buffer_width))
        [ 1; 2; 4 ])

let prop_kernel_coverage_matches_compute =
  QCheck.Test.make ~name:"Kernel.coverage = Coverage.compute" ~count:50 seed_arb
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let k = Kernel.make inter in
      let selected n = Hashtbl.hash (seed, n) mod 3 <> 0 in
      Kernel.coverage k ~selected = Coverage.compute inter ~selected)

let test_too_many_parity () =
  let inter = Stress.interleave () in
  let w = Stress.default_buffer_width in
  let oracle =
    match Combination.enumerate ~limit:1000 (Interleave.messages inter) ~width:w with
    | exception Combination.Too_many n -> n
    | _ -> Alcotest.fail "list oracle: expected Too_many"
  in
  List.iter
    (fun jobs ->
      match Select.select ~jobs ~limit:1000 ~pack:false inter ~buffer_width:w with
      | exception Combination.Too_many n ->
          Alcotest.(check int) (Printf.sprintf "kernel limit = oracle limit j%d" jobs) oracle n
      | _ -> Alcotest.fail "kernel: expected Too_many")
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* A pool wider than one machine word *)

(* 64 one-bit chain messages plus one two-bit message, [hot], that labels
   four edges into the stop state — four times the information of any
   chain message. [hot] is the widest message, so it sits in the last
   pool slot (64), and at width 2 it wins alone: a kernel that kept
   candidates in one int mask would lose or alias that slot. *)
let big_pool_interleave () =
  let n = 64 in
  let state i = Printf.sprintf "s%d" i in
  let states = List.init (n + 1) state in
  let chain = List.init n (fun i -> Message.make (Printf.sprintf "bm%02d" i) 1) in
  let transitions =
    List.init n (fun i -> Flow.transition (state i) (Printf.sprintf "bm%02d" i) (state (i + 1)))
    @ List.init 4 (fun i -> Flow.transition (state (10 * i)) "hot" (state n))
  in
  let f =
    Flow.make ~name:"big" ~states ~initial:[ state 0 ] ~stop:[ state n ] ~atomic:[]
      ~messages:(chain @ [ Message.make "hot" 2 ])
      ~transitions ()
  in
  Interleave.make [ { Interleave.flow = f; index = 1 } ]

let test_oversized_pool () =
  let inter = big_pool_interleave () in
  let k = Kernel.make inter in
  Alcotest.(check int) "65 pool slots" 65 (Kernel.n_messages k);
  Alcotest.(check string) "hot is the last slot" "hot" (Kernel.pool k).(64).Message.name;
  let o = list_oracle ~strategy:Select.Exact inter ~buffer_width:2 in
  Alcotest.(check bool) "the oracle's winner uses slot 64" true
    (List.mem "hot" (Select.selected_names o));
  check_kernel_equals_oracle "wide pool" inter ~buffer_width:2;
  check_kernel_equals_oracle "wide pool/maximal" ~strategy:Select.Exact_maximal inter
    ~buffer_width:2;
  (* the ticked walk too: budgeted-but-unexpired and seeded runs *)
  let far = Unix.gettimeofday () +. 3600.0 in
  Alcotest.(check bool) "budgeted = oracle" true
    (same_result o (Select.select ~deadline:far ~pack:false inter ~buffer_width:2));
  let r, _ = Select.reselect ~seeds:[ [ "bm00" ] ] ~pack:false inter ~buffer_width:2 in
  Alcotest.(check bool) "reselect = oracle" true (same_result o r)

let () =
  Alcotest.run "kernel"
    [
      ( "bitset",
        [ Alcotest.test_case "range checks" `Quick test_bitset_range_checks ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_bitset_matches_reference;
              prop_popcount_union_matches_reference;
              prop_popcount_word;
            ] );
      ( "indexed hash",
        [
          Alcotest.test_case "pinned vectors" `Quick test_hash_pinned_vectors;
          Alcotest.test_case "deep suffixes separate" `Quick test_hash_separates_deep_suffixes;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_hash_consistent_with_equal ] );
      ( "comparator",
        List.map QCheck_alcotest.to_alcotest
          [ prop_better_strict_total; prop_better_transitive ] );
      ( "engine identity",
        [
          Alcotest.test_case "scenarios: bitset = list oracle" `Quick
            test_scenarios_engines_identical;
          Alcotest.test_case "stress: bitset = list oracle" `Slow test_stress_engines_identical;
          Alcotest.test_case "Too_many parity" `Slow test_too_many_parity;
          Alcotest.test_case "oversized pool" `Quick test_oversized_pool;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_random_engines_identical; prop_kernel_coverage_matches_compute ] );
    ]
