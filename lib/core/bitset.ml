(* Dense bit vectors over int words, the word-parallel substrate of the
   selection kernel (Kernel): per-message destination-state sets become
   one cache-friendly int array each, and set union / cardinality become
   word-OR folds and SWAR popcounts instead of per-element walks.

   Words hold [bits_per_word] = 63 bits (the full OCaml int payload);
   [lsr] is a logical shift, so the sign bit is just one more data bit. *)

let bits_per_word = 63

type t = { n : int; words : int array }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { n; words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0 }

let length t = t.n

let check t i op =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0, %d)" op i t.n)

let set t i =
  check t i "set";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let mem t i =
  check t i "mem";
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

(* SWAR popcount over the 63-bit word: no table, no allocation, nothing
   built at module initialisation. Bit 62 (the sign bit) is counted on its
   own; bits 0-61 are summed in 2-, 4- and 8-bit fields and the eight byte
   sums are folded into the top byte by one multiply. Every mask is a
   legal OCaml int literal (below 2^62). *)
let popcount_word x =
  let hi = x lsr 62 in
  let x = x land max_int in
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  hi + ((x * 0x0101_0101_0101_0101) lsr 56)

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let union_into ~into src =
  if into.n <> src.n then invalid_arg "Bitset.union_into: size mismatch";
  let d = into.words and s = src.words in
  for w = 0 to Array.length d - 1 do
    d.(w) <- d.(w) lor s.(w)
  done

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Cardinality of the union of [sets] without materializing it: fold the
   OR word by word. [sets] must share one size. *)
let popcount_union sets =
  match sets with
  | [] -> 0
  | first :: rest ->
      List.iter
        (fun s -> if s.n <> first.n then invalid_arg "Bitset.popcount_union: size mismatch")
        rest;
      let acc = ref 0 in
      for w = 0 to Array.length first.words - 1 do
        let u = List.fold_left (fun u s -> u lor s.words.(w)) first.words.(w) rest in
        acc := !acc + popcount_word u
      done;
      !acc
