(* Step 1: enumerate candidate message combinations under the trace-buffer
   width constraint (Section 3.1).

   The search sorts messages by ascending width and prunes branches whose
   remaining minimum width cannot fit, so it only visits feasible subsets.
   [Too_many] guards against combinatorial blow-up; large scenarios should
   use the greedy strategy in {!Select}.

   {!enumerate} and {!count} walk the width-pruned subset tree as plain
   recursions; with {!maximal_only} and [Select.step2] they are the
   brute-force reference the selection kernel is tested against. {!plan}
   splits the same tree at a fixed prefix depth into independent
   subtrees, which the kernel's walk fans out across OCaml 5 domains.
   Every root-to-leaf path passes through exactly one prefix, hence the
   tasks partition the candidate set. *)

exception Too_many of int

let default_limit = 1_000_000

(* Width-ascending pool; List.sort is stable, so equal-width messages keep
   their pool order and the walk visits candidates in a reproducible order. *)
let sorted_pool messages =
  Array.of_list
    (List.sort
       (fun a b -> compare (Message.trace_width a) (Message.trace_width b))
       messages)

let canonical_pool messages = Array.to_list (sorted_pool messages)

(* Per-slot trace widths of a sorted pool, precomputed once so the
   recursions below read an int array instead of re-deriving width/beats
   arithmetic at every node. *)
let pool_widths arr = Array.map Message.trace_width arr

(* ------------------------------------------------------------------ *)
(* Parallel decomposition *)

type task = {
  t_start : int;  (* next undecided pool index *)
  t_remaining : int;
  t_taken : int list;  (* prefix takes as pool indices, ascending *)
  t_min_skipped : int;
}

type plan = { p_tasks : task array }

let plan ?(depth = 10) messages ~width =
  if width <= 0 then invalid_arg "Combination.plan: width must be positive";
  let arr = sorted_pool messages in
  let warr = pool_widths arr in
  let d = min (max depth 0) (Array.length arr) in
  let tasks = ref [] in
  let rec go i remaining taken min_skipped =
    if i = d then
      tasks :=
        { t_start = i; t_remaining = remaining; t_taken = List.rev taken; t_min_skipped = min_skipped }
        :: !tasks
    else begin
      let w = warr.(i) in
      go (i + 1) remaining taken (Int.min min_skipped w);
      if w <= remaining then go (i + 1) (remaining - w) (i :: taken) min_skipped
    end
  in
  go 0 width [] max_int;
  { p_tasks = Array.of_list (List.rev !tasks) }

let n_tasks plan = Array.length plan.p_tasks

(* Plan internals for the word-parallel kernel (Kernel), which drives
   this task decomposition with its own walk. *)
let task_start plan idx = plan.p_tasks.(idx).t_start
let task_remaining plan idx = plan.p_tasks.(idx).t_remaining
let task_min_skipped plan idx = plan.p_tasks.(idx).t_min_skipped
let task_taken plan idx = plan.p_tasks.(idx).t_taken

(* ------------------------------------------------------------------ *)
(* Reference oracles: explicit candidate lists and counts *)

(* The width-pruned subset tree, skip before take at every node: [rev]
   holds the current path's takes newest first, and each leaf with at
   least one take is prepended to [acc] as a width-ascending list. *)
let enumerate ?(limit = default_limit) messages ~width =
  if width <= 0 then invalid_arg "Combination.enumerate: width must be positive";
  let arr = sorted_pool messages in
  let warr = pool_widths arr in
  let n = Array.length arr in
  let found = ref 0 in
  let rec go i remaining rev acc =
    if i = n then
      if rev = [] then acc
      else begin
        incr found;
        if !found > limit then raise (Too_many limit);
        List.rev rev :: acc
      end
    else
      let acc = go (i + 1) remaining rev acc in
      if warr.(i) <= remaining then go (i + 1) (remaining - warr.(i)) (arr.(i) :: rev) acc
      else acc
  in
  go 0 width [] []

(* Keep only combinations that are maximal under inclusion among those that
   fit. Because information gain is monotone in the message set, a maximal
   combination always scores at least as high as any of its subsets; the
   kernel's walk applies the equivalent O(1) test per leaf. *)
let maximal_only combos =
  let name_set combo =
    List.sort_uniq String.compare (List.map (fun m -> m.Message.name) combo)
  in
  let with_sets = List.map (fun c -> (c, name_set c)) combos in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  List.filter_map
    (fun (c, s) ->
      let dominated =
        List.exists (fun (_, s') -> List.length s' > List.length s && subset s s') with_sets
      in
      if dominated then None else Some c)
    with_sets

let count messages ~width =
  if width <= 0 then invalid_arg "Combination.count: width must be positive";
  let arr = sorted_pool messages in
  let warr = pool_widths arr in
  let n = Array.length arr in
  let rec go i remaining taken =
    if i = n then if taken then 1 else 0
    else
      go (i + 1) remaining taken
      + if warr.(i) <= remaining then go (i + 1) (remaining - warr.(i)) true else 0
  in
  go 0 width false

let fits messages ~width = Message.total_width messages <= width
