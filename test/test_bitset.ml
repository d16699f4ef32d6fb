(* Tests for Bitset, the word-parallel substrate of the selection kernel.

   This executable runs in a fresh process, and its first test is the
   one that needs that: two domains released by one atomic barrier both
   compute their first coverage of the process at the same moment. A
   popcount built on first use (a lazily forced table) fails it, since
   OCaml 5 raises CamlinternalLazy.Undefined in one of two domains that
   force the same lazy value concurrently. Nothing before it may touch
   a popcount.

   The rest pins the SWAR popcount to a per-bit count over all 63 bits
   of an OCaml int (bit 62 is the sign bit and a data bit here), on
   every single-bit and all-but-one-bit word and at set level, with sets
   dense enough to set bit 62 of every word. The bool-array reference
   and the word-level property run in test/test_kernel.ml. *)

open Flowtrace_core

(* ------------------------------------------------------------------ *)
(* First use from two domains at once *)

let test_first_use_race () =
  let inter = Toy.two_instances () in
  let k = Kernel.make inter in
  let ready = Atomic.make 0 in
  let racer () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    match Kernel.coverage k ~selected:(fun _ -> true) with
    | c -> Ok c
    | exception e -> Error (Printexc.to_string e)
  in
  let d1 = Domain.spawn racer and d2 = Domain.spawn racer in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let show = function Ok c -> Printf.sprintf "Ok %h" c | Error e -> "Error " ^ e in
  (match (r1, r2) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.failf "a domain raised: %s / %s" (show r1) (show r2));
  Alcotest.(check string) "both domains count the same" (show r1) (show r2);
  Alcotest.(check string)
    "and agree with the list path" (show r1)
    (show (Ok (Coverage.compute inter ~selected:(fun _ -> true))))

(* ------------------------------------------------------------------ *)
(* The popcount against a per-bit count *)

let test_popcount_word_edges () =
  Alcotest.(check int) "0" 0 (Bitset.popcount_word 0);
  Alcotest.(check int) "-1 has 63 bits" 63 (Bitset.popcount_word (-1));
  Alcotest.(check int) "max_int has 62 bits" 62 (Bitset.popcount_word max_int);
  Alcotest.(check int) "min_int has 1 bit" 1 (Bitset.popcount_word min_int);
  for i = 0 to Bitset.bits_per_word - 1 do
    Alcotest.(check int) (Printf.sprintf "bit %d alone" i) 1 (Bitset.popcount_word (1 lsl i));
    Alcotest.(check int)
      (Printf.sprintf "all but bit %d" i)
      62
      (Bitset.popcount_word (-1 lxor (1 lsl i)))
  done

(* Up to four sets over one universe of up to five words. Each set draws
   its own density, so empty, sparse, dense and full sets (bit 62 of
   every word set) all occur. *)
let sets_arb =
  let open QCheck.Gen in
  let set n =
    oneofl [ 0.0; 0.05; 0.5; 0.95; 1.0 ] >>= fun p ->
    list_repeat n (float_bound_inclusive 1.0) >|= fun coins ->
    List.filter_map Fun.id (List.mapi (fun i c -> if c < p || p = 1.0 then Some i else None) coins)
  in
  let gen =
    int_range 1 (5 * Bitset.bits_per_word) >>= fun n ->
    int_range 0 4 >>= fun k ->
    list_repeat k (set n) >|= fun members -> (n, members)
  in
  QCheck.make
    ~print:(fun (n, members) ->
      Printf.sprintf "n=%d sets=[%s]" n
        (String.concat "; " (List.map (fun m -> String.concat "," (List.map string_of_int m)) members)))
    gen

let count_mem n sets =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if List.exists (fun b -> Bitset.mem b i) sets then incr c
  done;
  !c

let prop_popcounts_count_mem =
  QCheck.Test.make ~name:"popcount, popcount_union = count of mem" ~count:300 sets_arb
    (fun (n, members) ->
      let sets =
        List.map
          (fun m ->
            let b = Bitset.create n in
            List.iter (Bitset.set b) m;
            b)
          members
      in
      List.for_all (fun b -> Bitset.popcount b = count_mem n [ b ]) sets
      && Bitset.popcount_union sets = count_mem n sets)

let () =
  Alcotest.run "bitset"
    [
      ( "first use",
        [ Alcotest.test_case "two domains, one barrier, same count" `Quick test_first_use_race ] );
      ( "popcount",
        Alcotest.test_case "edge words" `Quick test_popcount_word_edges
        :: List.map QCheck_alcotest.to_alcotest [ prop_popcounts_count_mem ] );
    ]
