(* Tests for the word-parallel selection kernel and the determinism
   bugfix sweep.

   The Bitset substrate is checked against a bool-array reference and
   its popcount against a per-bit count over all 63 bits of an int (the
   first-use race and set-level counts are in test/test_bitset.ml); the
   kernel is checked bit-identical to the brute-force list oracle
   (Combination.enumerate + Select.step2) on the built-in scenarios, the
   stress workload, random interleavings and a pool wider than one
   machine word, at jobs 1/2/4; Indexed.hash is pinned to explicit
   vectors (it must not drift, and must separate names differing only
   deep in the string); the kernel's candidate comparator is checked
   to be a strict total order — the epsilon tie-break it replaced was not
   transitive; and the width-aware bound table every walk prunes on is
   checked against a brute-force knapsack on small pools, with two
   deliberately wrong tables that the same check must catch; and the
   work counters of the seeded, budgeted and exact-maximal search are
   checked to be the same at every job count. *)

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

let naive_popcount w =
  let n = ref 0 in
  for i = 0 to Bitset.bits_per_word - 1 do
    if w land (1 lsl i) <> 0 then incr n
  done;
  !n

(* Arbitrary ints, negative ones included, and the extremes. *)
let word_arb =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(frequency [ (6, int); (1, oneofl [ 0; -1; max_int; min_int ]) ])

let prop_popcount_word =
  QCheck.Test.make ~name:"popcount_word = naive bit count" ~count:2000 word_arb (fun w ->
      Bitset.popcount_word w = naive_popcount w)

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

(* ------------------------------------------------------------------ *)
(* The width-aware bound *)

(* Small pools shaped to stress the bound: widths drawn from {1, 2, 3},
   so equal widths are common; messages declared but never used, whose
   gain terms are zero; and fan branches whose fresh messages each label
   one edge into a state of their own — equal occurrence and target
   counts, hence bit-identical terms and exact gain ties. A message is
   now and then reused on a second edge, so not every term ties. *)
let small_pool_of_seed seed =
  let rng = Rng.create seed in
  let states = ref [ "init"; "done" ] and messages = ref [] and transitions = ref [] in
  let fresh () =
    let name = Printf.sprintf "m%d" (List.length !messages) in
    messages := Message.make name (1 + Rng.int rng 3) :: !messages;
    name
  in
  for b = 0 to Rng.int rng 3 do
    let last =
      List.fold_left
        (fun prev j ->
          let s = Printf.sprintf "b%d_%d" b j in
          states := s :: !states;
          let m =
            if !messages <> [] && Rng.int rng 4 = 0 then (Rng.pick rng !messages).Message.name
            else fresh ()
          in
          transitions := Flow.transition prev m s :: !transitions;
          s)
        "init"
        (List.init (1 + Rng.int rng 2) Fun.id)
    in
    transitions := Flow.transition last (fresh ()) "done" :: !transitions
  done;
  for _ = 1 to Rng.int rng 3 do
    ignore (fresh ())
  done;
  let f =
    Flow.make ~name:"p" ~states:(List.rev !states) ~initial:[ "init" ] ~stop:[ "done" ]
      ~messages:(List.rev !messages) ~transitions:(List.rev !transitions) ()
  in
  let inter = Interleave.make [ { Interleave.flow = f; index = 1 } ] in
  let widths = List.map Message.trace_width (Interleave.messages inter) in
  let minw = List.fold_left min max_int widths and total = List.fold_left ( + ) 0 widths in
  (inter, minw + (seed mod (total - minw + 1)))

let pool_widths_terms k =
  let pool = Kernel.pool k in
  (Array.map Message.trace_width pool, Infogain.terms (Kernel.evaluator k) pool)

(* The best term sum over slots ≥ i within width c, by enumerating every
   subset of those slots and summing in ascending slot order — the walk's
   own leaf association. *)
let brute_best ~widths ~terms i c =
  let n = Array.length widths in
  let rec go j width gain =
    if j = n then gain
    else
      let skip = go (j + 1) width gain in
      if width + widths.(j) > c then skip
      else Float.max skip (go (j + 1) (width + widths.(j)) (gain +. terms.(j)))
  in
  go i 0 0.0

let inflation = 1.0 +. 1e-9

(* [ub] agrees with the brute-force knapsack at every slot and every width
   up to the buffer: never below it once inflated (the walks' soundness)
   and never above its inflation (exact, so pruning is as tight as it
   can be). *)
let table_agrees ~widths ~terms ~buffer_width ub =
  let ok = ref true in
  for i = 0 to Array.length widths do
    for c = 0 to buffer_width do
      let b = brute_best ~widths ~terms i c and u = ub i c in
      if not (u *. inflation >= b && b *. inflation >= u) then ok := false
    done
  done;
  !ok

let prop_bound_table_is_knapsack_optimum =
  QCheck.Test.make ~name:"bound table = brute-force best fitting term sum" ~count:100 seed_arb
    (fun seed ->
      let inter, buffer_width = small_pool_of_seed seed in
      let k = Kernel.make inter in
      let a = Kernel.admit k ~limit:Combination.default_limit ~max_candidates:None ~buffer_width in
      let widths, terms = pool_widths_terms k in
      table_agrees ~widths ~terms ~buffer_width (fun slot width ->
          Kernel.upper_bound a ~slot ~width))

(* Two plausible ways to get the DP wrong, on the same pool arrays. *)
let wrong_table ~skip_branch ~row_offset ~widths ~terms =
  let n = Array.length widths in
  let memo = Hashtbl.create 64 in
  let rec ub i c =
    if i >= n then 0.0
    else
      match Hashtbl.find_opt memo (i, c) with
      | Some v -> v
      | None ->
          let skip = ub (i + 1) c in
          let v =
            if widths.(i) > c then skip
            else
              let take = terms.(i) +. ub (i + 1) (c - widths.(i)) in
              if skip_branch then Float.max skip take else take
          in
          Hashtbl.replace memo (i, c) v;
          v
  in
  fun i c -> ub (i + row_offset) c

let test_wrong_tables_caught () =
  List.iter
    (fun (what, skip_branch, row_offset) ->
      let caught =
        List.exists
          (fun seed ->
            let inter, buffer_width = small_pool_of_seed seed in
            let widths, terms = pool_widths_terms (Kernel.make inter) in
            not
              (table_agrees ~widths ~terms ~buffer_width
                 (wrong_table ~skip_branch ~row_offset ~widths ~terms)))
          (List.init 50 Fun.id)
      in
      Alcotest.(check bool) (what ^ " fails the bound check") true caught)
    [ ("a table without the skip branch", false, 0); ("a table reading row i+1 for slot i", true, 1) ];
  (* and the check's reference DP itself, used correctly, passes *)
  let inter, buffer_width = small_pool_of_seed 7 in
  let widths, terms = pool_widths_terms (Kernel.make inter) in
  Alcotest.(check bool) "the correct DP passes" true
    (table_agrees ~widths ~terms ~buffer_width
       (wrong_table ~skip_branch:true ~row_offset:0 ~widths ~terms))

(* Six messages hundreds of thousands of bits wide under a one-megabit
   buffer: the exact table would need millions of cells, so [admit]
   coarsens widths by a power of two. The coarse table must still bound
   every fitting term sum from above, and the walks that prune on it
   must still return the list oracle's answer. *)
let test_coarse_table_still_bounds () =
  let widths = [| 300_001; 250_003; 200_000; 350_017; 400_009; 210_011 |] in
  let msg i = Printf.sprintf "w%d" i and state i = Printf.sprintf "s%d" i in
  let n = Array.length widths in
  let f =
    Flow.make ~name:"wide" ~states:("init" :: "done" :: List.init n state) ~initial:[ "init" ]
      ~stop:[ "done" ]
      ~messages:(Array.to_list (Array.mapi (fun i w -> Message.make (msg i) w) widths))
      ~transitions:
        (List.init n (fun i -> Flow.transition "init" (msg i) (state i))
        @ List.init n (fun i -> Flow.transition (state i) (msg ((i + 1) mod n)) "done"))
      ()
  in
  let inter = Interleave.make [ { Interleave.flow = f; index = 1 } ] in
  let buffer_width = 1_000_000 in
  let k = Kernel.make inter in
  let a = Kernel.admit k ~limit:Combination.default_limit ~max_candidates:None ~buffer_width in
  let widths, terms = pool_widths_terms k in
  for i = 0 to n do
    List.iter
      (fun c ->
        Alcotest.(check bool)
          (Printf.sprintf "coarse ub(%d, %d) bounds the brute force" i c)
          true
          (Kernel.upper_bound a ~slot:i ~width:c *. inflation >= brute_best ~widths ~terms i c))
      [ 0; 199_999; 200_000; 450_002; 650_003; buffer_width ]
  done;
  check_kernel_equals_oracle "coarse table" inter ~buffer_width;
  check_kernel_equals_oracle "coarse table/maximal" ~strategy:Select.Exact_maximal inter
    ~buffer_width

(* Seed lists for a seeded search: the optimum itself, random name
   subsets of the pool (some too wide to fit), a list naming a message
   the pool lacks, and an empty list — every kind [Kernel.search] must
   either use as an incumbent or drop. *)
let seeds_of ~rng ~optimum inter =
  let names = List.map (fun (m : Message.t) -> m.Message.name) (Interleave.messages inter) in
  let random () = List.filter (fun _ -> Rng.bool rng) names in
  [ optimum; random (); random (); names; "no_such_message" :: random (); [] ]

(* Every strategy against brute force on the same pools: exact and
   exact-maximal equal the list oracle on names, gain bits, coverage bits
   and bits_used at jobs 1/2/4, plain, under budgets that never expire
   and seeded ([Select.reselect], i.e. [Kernel.search] with an incumbent);
   greedy never beats exact — a plain float compare, since both sum their
   terms in ascending slot order. *)
let prop_strategies_match_brute_force =
  QCheck.Test.make ~name:"exact, exact-maximal and greedy vs brute force on small pools"
    ~count:60 seed_arb (fun seed ->
      let inter, buffer_width = small_pool_of_seed seed in
      let far = Unix.gettimeofday () +. 3600.0 in
      let exact_ok strategy =
        let o = list_oracle ~strategy inter ~buffer_width in
        let seeds = seeds_of ~rng:(Rng.create seed) ~optimum:(Select.selected_names o) inter in
        List.for_all
          (fun jobs ->
            List.for_all
              (fun run -> same_result o (run ~strategy ~jobs))
              [
                (fun ~strategy ~jobs -> Select.select ~strategy ~jobs ~pack:false inter ~buffer_width);
                (fun ~strategy ~jobs ->
                  Select.select ~strategy ~jobs ~deadline:far ~pack:false inter ~buffer_width);
                (fun ~strategy ~jobs ->
                  Select.select ~strategy ~jobs ~max_candidates:Combination.default_limit
                    ~pack:false inter ~buffer_width);
                (fun ~strategy ~jobs ->
                  fst (Select.reselect ~strategy ~jobs ~seeds ~pack:false inter ~buffer_width));
              ])
          [ 1; 2; 4 ]
      in
      let gain strategy = (Select.select ~strategy ~pack:false inter ~buffer_width).Select.gain in
      exact_ok Select.Exact && exact_ok Select.Exact_maximal
      && gain Select.Greedy <= gain Select.Exact)

(* The work counters of [Kernel.search] — leaves ticked, leaves scored,
   subtrees pruned — are the same at jobs 1, 2 and 4 for every kind of
   run it serves: exact-maximal, budgeted but unexpired, and seeded.
   Every task starts from the seed incumbent on the fixed-depth plan, so
   nothing a domain saw in an earlier task may leak into a later one's
   pruning. *)
let search_counters_invariant k ~buffer_width ~seeds =
  let a = Kernel.admit k ~limit:Combination.default_limit ~max_candidates:None ~buffer_width in
  let far = Unix.gettimeofday () +. 3600.0 in
  let runs =
    [
      (true, [], fun () -> Budget.make ());
      (false, [], fun () -> Budget.make ~deadline:far ());
      (false, [], fun () -> Budget.make ~max_candidates:Combination.default_limit ());
      (false, seeds, fun () -> Budget.make ());
      (true, seeds, fun () -> Budget.make ~deadline:far ());
    ]
  in
  List.for_all
    (fun (only_maximal, seeds, budget) ->
      let counters jobs =
        let s = Kernel.search ~only_maximal ~jobs ~seeds ~budget:(budget ()) a in
        (s.Kernel.s_complete, s.Kernel.s_explored, s.Kernel.s_scored, s.Kernel.s_pruned)
      in
      let c1 = counters 1 in
      let complete, _, _, _ = c1 in
      complete && counters 2 = c1 && counters 4 = c1)
    runs

let prop_search_counters_jobs_invariant =
  QCheck.Test.make ~name:"search counters identical at jobs 1/2/4" ~count:40 seed_arb
    (fun seed ->
      let inter, buffer_width =
        if seed mod 2 = 0 then small_pool_of_seed seed
        else
          let inter = Gen.interleaving_of_seed seed in
          let widths = List.map Message.trace_width (Interleave.messages inter) in
          (inter, List.fold_left min max_int widths + 4)
      in
      let k = Kernel.make inter in
      let optimum =
        Select.selected_names (Select.select ~pack:false ~kernel:k inter ~buffer_width)
      in
      search_counters_invariant k ~buffer_width
        ~seeds:(seeds_of ~rng:(Rng.create seed) ~optimum inter))

let test_stress_search_counters () =
  let inter = Stress.interleave () in
  let k = Kernel.make inter in
  List.iter
    (fun buffer_width ->
      let optimum =
        Select.selected_names (Select.select ~pack:false ~kernel:k inter ~buffer_width)
      in
      Alcotest.(check bool)
        (Printf.sprintf "stress w%d: counters identical at jobs 1/2/4" buffer_width)
        true
        (search_counters_invariant k ~buffer_width
           ~seeds:(seeds_of ~rng:(Rng.create buffer_width) ~optimum inter)))
    [ 16; Stress.default_buffer_width ]

(* ------------------------------------------------------------------ *)
(* A prebuilt kernel *)

module Tel = Flowtrace_telemetry.Telemetry
module Sink = Flowtrace_telemetry.Sink

let test_prebuilt_kernel () =
  let inter = Scenario.interleave Scenario.scenario1 in
  let k = Kernel.make inter in
  Alcotest.(check bool) "the kernel keeps its interleaving" true (Kernel.interleave k == inter);
  let far = Unix.gettimeofday () +. 3600.0 in
  let runs =
    [
      ("exact", fun kernel w -> Select.select ?kernel inter ~buffer_width:w);
      ( "maximal",
        fun kernel w ->
          Select.select ~strategy:Select.Exact_maximal ?kernel inter ~buffer_width:w );
      ( "greedy",
        fun kernel w -> Select.select ~strategy:Select.Greedy ?kernel inter ~buffer_width:w );
      ("budgeted", fun kernel w -> Select.select ~deadline:far ?kernel inter ~buffer_width:w);
    ]
  in
  let widths = [ 16; 32; 40 ] in
  let plain = List.map (fun (name, run) -> (name, List.map (fun w -> run None w) widths)) runs in
  (* the global one-slot cache now holds another interleaving's evaluator:
     a held kernel must not need it *)
  ignore (Infogain.evaluator (Scenario.interleave Scenario.scenario2));
  Tel.install Sink.null;
  let held =
    Fun.protect ~finally:Tel.shutdown (fun () ->
        let held =
          List.map (fun (name, run) -> (name, List.map (fun w -> run (Some k) w) widths)) runs
        in
        Alcotest.(check int) "no evaluator build with a kernel" 0
          (Tel.Counter.value (Tel.Counter.v "infogain.evaluator_builds"));
        held)
  in
  List.iter2
    (fun (name, ps) (_, hs) ->
      List.iter2
        (fun (p : Select.result) (h : Select.result) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s w%d: held kernel = fresh run" name p.Select.buffer_width)
            true (same_result p h))
        ps hs)
    plain held

let test_foreign_kernel_refused () =
  let inter = Scenario.interleave Scenario.scenario1 in
  (* same flows and counts, another interleaving value *)
  let foreign = Kernel.make (Scenario.interleave Scenario.scenario1) in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: a foreign kernel was accepted" what
  in
  refused "select" (fun () -> ignore (Select.select ~kernel:foreign inter ~buffer_width:32));
  refused "greedy select" (fun () ->
      ignore (Select.select ~strategy:Select.Greedy ~kernel:foreign inter ~buffer_width:32));
  refused "finalize" (fun () ->
      ignore (Select.finalize ~kernel:foreign inter ~combo:[] ~gain:0.0 ~buffer_width:32))

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
      ( "knapsack bound",
        [
          Alcotest.test_case "wrong tables are caught" `Quick test_wrong_tables_caught;
          Alcotest.test_case "a coarsened table still bounds" `Quick test_coarse_table_still_bounds;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_bound_table_is_knapsack_optimum; prop_strategies_match_brute_force ] );
      ( "search counters",
        [ Alcotest.test_case "stress: jobs 1/2/4 identical" `Slow test_stress_search_counters ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_search_counters_jobs_invariant ] );
      ( "prebuilt kernel",
        [
          Alcotest.test_case "held kernel = fresh run, no evaluator build" `Quick
            test_prebuilt_kernel;
          Alcotest.test_case "a foreign kernel raises Invalid_argument" `Quick
            test_foreign_kernel_refused;
        ] );
    ]
