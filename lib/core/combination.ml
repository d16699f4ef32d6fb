(* Step 1: enumerate candidate message combinations under the trace-buffer
   width constraint (Section 3.1).

   The search sorts messages by ascending width and prunes branches whose
   remaining minimum width cannot fit, so it only visits feasible subsets.
   [Too_many] guards against combinatorial blow-up; large scenarios should
   use the greedy strategy in {!Select}.

   {!fold_candidates} streams every candidate of the width-pruned
   subset-tree walk through a fold in constant memory; it backs the
   materializing {!enumerate}, the brute-force reference the selection
   kernel is tested against. {!plan} splits the same tree at a fixed
   prefix depth into independent subtrees, which the kernel's walks fan
   out across OCaml 5 domains. Every root-to-leaf path passes through
   exactly one prefix, hence the tasks partition the candidate set. *)

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

(* Per-slot trace widths of a sorted pool, precomputed once so the walk's
   hot recursion reads an int array instead of re-deriving width/beats
   arithmetic at every node. *)
let pool_widths arr = Array.map Message.trace_width arr

(* The core walk. [path] is caller state threaded along the current branch
   (extended by [take] whenever a message is added); [leaf] folds over
   emitted candidates; [tick] fires once per non-empty candidate *before*
   the maximality filter, so a candidate budget counts exactly what
   materializing enumeration used to count (it may raise to abort).

   With [only_maximal], a candidate is emitted only when no fitting strict
   superset exists. Every pool message is either taken or skipped along a
   root-to-leaf path, so that holds exactly when the narrowest skipped
   message no longer fits the remaining width — an O(1) streaming test,
   tracked as [min_skipped]. *)
let walk arr warr ~start ~remaining ~taken ~min_skipped ~only_maximal ~tick ~take ~path ~leaf
    ~init =
  let n = Array.length arr in
  let rec go i remaining taken min_skipped path acc =
    if i = n then
      if taken = 0 then acc
      else begin
        tick ();
        if only_maximal && min_skipped <= remaining then acc else leaf acc path
      end
    else begin
      let w = warr.(i) in
      (* skip arr.(i) *)
      let acc = go (i + 1) remaining taken (Int.min min_skipped w) path acc in
      (* take arr.(i) if it fits; messages are width-sorted so if this one
         does not fit, none of the rest do either *)
      if w <= remaining then
        go (i + 1) (remaining - w) (taken + 1) min_skipped (take path arr.(i)) acc
      else acc
    end
  in
  go start remaining taken min_skipped path init

let fold_candidates ?(limit = default_limit) ?(only_maximal = false) messages ~width ~init ~f =
  if width <= 0 then invalid_arg "Combination.fold_candidates: width must be positive";
  let arr = sorted_pool messages in
  let count = ref 0 in
  let tick () =
    incr count;
    if !count > limit then raise (Too_many limit)
  in
  walk arr (pool_widths arr) ~start:0 ~remaining:width ~taken:0 ~min_skipped:max_int
    ~only_maximal ~tick
    ~take:(fun acc m -> m :: acc)
    ~path:[]
    ~leaf:(fun acc rev -> f acc (List.rev rev))
    ~init

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
   this task decomposition with its own walks. *)
let task_start plan idx = plan.p_tasks.(idx).t_start
let task_remaining plan idx = plan.p_tasks.(idx).t_remaining
let task_min_skipped plan idx = plan.p_tasks.(idx).t_min_skipped
let task_taken plan idx = plan.p_tasks.(idx).t_taken

(* ------------------------------------------------------------------ *)
(* Materializing conveniences, kept for callers that want explicit lists *)

let enumerate ?(limit = default_limit) messages ~width =
  if width <= 0 then invalid_arg "Combination.enumerate: width must be positive";
  fold_candidates ~limit messages ~width ~init:[] ~f:(fun acc c -> c :: acc)

(* Keep only combinations that are maximal under inclusion among those that
   fit. Because information gain is monotone in the message set, a maximal
   combination always scores at least as high as any of its subsets; the
   exact-maximal strategy uses the equivalent streaming filter above. *)
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
  walk arr (pool_widths arr) ~start:0 ~remaining:width ~taken:0 ~min_skipped:max_int
    ~only_maximal:false
    ~tick:(fun () -> ())
    ~take:(fun () _ -> ())
    ~path:()
    ~leaf:(fun acc () -> acc + 1)
    ~init:0

let fits messages ~width = Message.total_width messages <= width
