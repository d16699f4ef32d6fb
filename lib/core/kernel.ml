(* The word-parallel selection kernel: the one Step-1/2 engine.

   Step-1/2 selection spends its whole life in the subset-tree walk. This
   kernel precomputes everything the walk reads into flat arrays over the
   canonical (width-ascending) pool — per-slot trace widths, per-slot gain
   terms, suffix term sums, and per-slot destination-state bitsets
   ({!Bitset}) — so the walk runs on ints and floats only: a take is one
   slot store plus one array-indexed float add into the depth-indexed
   prefix-gain array (so it allocates nothing), a leaf is a couple of
   register compares, and coverage is a word-OR / popcount fold.

   A candidate on the walk is the depth-indexed stack of its taken slots;
   it is copied out (as an ascending slot array) only when it improves the
   best-so-far, so the pool size is unbounded and the hot path does no
   mask arithmetic at all.

   Bit-identity contract: along any root-to-leaf path, takes happen in
   ascending slot order, so accumulating [terms.(i)] in that order
   reproduces the float association of the brute-force list path
   ([Combination.enumerate] scored by [Infogain.eval]) exactly — gains are
   bit-for-bit equal, and the unique best under the deterministic
   comparator ({!better}) is the same at any job count. The candidate
   count, and with it the [Too_many] decision, is settled arithmetically by
   a knapsack-counting DP ({!count_candidates}) before any walk starts,
   which frees every walk to skip subtrees that provably cannot beat the
   best-so-far.

   Two walks share the task decomposition of {!Combination.plan}:
   - the fast walk answers plain exact selections: no tick, bound-pruned
     against the best-so-far;
   - the ticked walk answers everything else — budgeted (anytime) runs,
     exact-maximal runs, delta re-selection and the supervised task loop
     of lib/runtime. It ticks a {!Budget} once per visited leaf and runs
     as an exact branch-and-bound: seed candidates (typically journalled
     bests of a previous run of a slightly different scenario) are
     re-scored under the new terms to form an incumbent, and any subtree
     whose inflated upper bound (prefix gain + remaining suffix term sum)
     falls strictly below it is pruned. Terms are non-negative and the
     bound over-approximates every float leaf sum below the node, so no
     leaf that could beat or tie the final best is ever skipped. Pruning
     decisions use task-local incumbents only, so a task's best and its
     work counters do not depend on which domain ran which task. *)

type t = {
  k_inter : Interleave.t;  (* the interleaving the kernel was built from *)
  k_ev : Infogain.evaluator;  (* the evaluator the terms came from *)
  k_pool : Message.t array;  (* canonical width-ascending pool *)
  k_widths : int array;  (* per-slot trace width *)
  k_terms : float array;  (* per-slot gain term *)
  k_suffix : float array;  (* k_suffix.(i) = Σ_{j ≥ i} k_terms.(j); length n+1 *)
  k_states : Bitset.t array;  (* per-slot destination-state set *)
  k_n_states : int;
  k_index : (string, int) Hashtbl.t;  (* base name -> pool slot *)
}

let n_messages t = Array.length t.k_pool
let pool t = t.k_pool
let interleave t = t.k_inter
let evaluator t = t.k_ev

let make inter =
  let pool = Array.of_list (Combination.canonical_pool (Interleave.messages inter)) in
  let n = Array.length pool in
  let ev = Infogain.evaluator inter in
  let widths = Array.map Message.trace_width pool in
  let terms = Infogain.terms ev pool in
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- terms.(i) +. suffix.(i + 1)
  done;
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i (m : Message.t) -> Hashtbl.replace index m.Message.name i) pool;
  let n_states = Interleave.n_states inter in
  let states = Array.init n (fun _ -> Bitset.create n_states) in
  List.iter
    (fun (e : Interleave.edge) ->
      match Hashtbl.find_opt index e.Interleave.e_msg.Indexed.base with
      | Some i -> Bitset.set states.(i) e.Interleave.e_dst
      | None -> ())
    (Interleave.edges inter);
  {
    k_inter = inter;
    k_ev = ev;
    k_pool = pool;
    k_widths = widths;
    k_terms = terms;
    k_suffix = suffix;
    k_states = states;
    k_n_states = n_states;
    k_index = index;
  }

let plan t ~buffer_width = Combination.plan (Array.to_list t.k_pool) ~width:buffer_width

(* ------------------------------------------------------------------ *)
(* Candidates *)

type candidate = { c_slots : int array; c_gain : float; c_bits : int }

(* Sorted names of the first [len] slots — the deterministic tie-break key. *)
let key_of_slots t slots len =
  List.sort String.compare (List.init len (fun d -> t.k_pool.(slots.(d)).Message.name))

let key t c = key_of_slots t c.c_slots (Array.length c.c_slots)
let messages t c = Array.to_list (Array.map (fun i -> t.k_pool.(i)) c.c_slots)

(* Ascending-slot term sum: the float association every walk leaf uses,
   so a re-scored candidate is bit-identical to its live walk gain. *)
let candidate_of_names t names =
  let rec slots acc = function
    | [] -> Some (Array.of_list (List.sort_uniq compare acc))
    | name :: rest -> (
        match Hashtbl.find_opt t.k_index name with
        | Some i -> slots (i :: acc) rest
        | None -> None)
  in
  Option.map
    (fun s ->
      {
        c_slots = s;
        c_gain = Array.fold_left (fun g i -> g +. t.k_terms.(i)) 0.0 s;
        c_bits = Array.fold_left (fun b i -> b + t.k_widths.(i)) 0 s;
      })
    (slots [] names)

(* Higher gain first (exact float compare), then more bits, then the
   lexicographically smaller sorted name key. Distinct candidates have
   distinct keys, so this is a strict total order and the best is unique. *)
let better t a b =
  if a.c_gain <> b.c_gain then a.c_gain > b.c_gain
  else if a.c_bits <> b.c_bits then a.c_bits > b.c_bits
  else key t a < key t b

let merge t a b =
  match (a, b) with
  | None, c | c, None -> c
  | Some x, Some y -> if better t y x then b else a

(* ------------------------------------------------------------------ *)
(* Per-task best-so-far. [consider] is {!better} against the walk's
   stack: the key is only materialized on exact (gain, bits) ties, which
   are rare, and the stack is copied out only on improvement. *)

type cell = {
  mutable bg : float;
  mutable bb : int;
  mutable bslots : int array;  (* [||] until the first candidate *)
  mutable bkey : string list;  (* lazily built tie-break key of bslots *)
  mutable scored : int;  (* leaves scored (ticked walk) *)
  mutable pruned : int;  (* subtrees cut by the bound (ticked walk) *)
  stack : int array;  (* walk scratch: the taken slots of the current path *)
  gains : float array;  (* walk scratch: gains.(d) is the prefix gain at depth d *)
}

let cell t =
  {
    bg = neg_infinity;
    bb = 0;
    bslots = [||];
    bkey = [];
    scored = 0;
    pruned = 0;
    stack = Array.make (Array.length t.k_pool) 0;
    gains = Array.make (Array.length t.k_pool + 1) 0.0;
  }

let best c =
  if Array.length c.bslots = 0 then None
  else Some { c_slots = c.bslots; c_gain = c.bg; c_bits = c.bb }

let consider t c gain bits stack depth =
  if Array.length c.bslots = 0 || gain > c.bg || (gain = c.bg && bits > c.bb) then begin
    c.bg <- gain;
    c.bb <- bits;
    c.bslots <- Array.sub stack 0 depth;
    c.bkey <- []
  end
  else if gain = c.bg && bits = c.bb then begin
    if c.bkey = [] then c.bkey <- key_of_slots t c.bslots (Array.length c.bslots);
    let k = key_of_slots t stack depth in
    if k < c.bkey then begin
      c.bslots <- Array.sub stack 0 depth;
      c.bkey <- k
    end
  end

(* Push a task's prefix takes onto the cell's stack and prefix gains:
   same take order, same float association as a root-to-leaf walk
   through that prefix (plan indices are kernel slots — both index the
   canonical pool). Returns the prefix depth and bits. *)
let prefix_of_task t plan idx c =
  c.gains.(0) <- 0.0;
  List.fold_left
    (fun (depth, bits) i ->
      c.stack.(depth) <- i;
      c.gains.(depth + 1) <- c.gains.(depth) +. t.k_terms.(i);
      (depth + 1, bits + t.k_widths.(i)))
    (0, 0)
    (Combination.task_taken plan idx)

(* ------------------------------------------------------------------ *)
(* Counting and the limit *)

(* How many candidates would a full walk visit? Every non-empty subset of
   the pool whose total trace width fits the buffer, exactly once — so
   the count is a knapsack-counting DP over widths, O(n·width), no tree
   walk at all. Counts saturate at [count_cap] so a huge pool cannot
   wrap; a saturated count still compares correctly against any
   practical limit. *)
let count_cap = max_int / 4

let count_candidates t ~buffer_width =
  if buffer_width <= 0 then 0
  else begin
    let cap_w = min buffer_width (Array.fold_left ( + ) 0 t.k_widths) in
    let sat a b =
      let s = a + b in
      if s < 0 || s > count_cap then count_cap else s
    in
    let dp = Array.make (cap_w + 1) 0 in
    dp.(0) <- 1;
    Array.iter
      (fun w ->
        if w <= cap_w then
          for r = cap_w downto w do
            dp.(r) <- sat dp.(r) dp.(r - w)
          done)
      t.k_widths;
    Array.fold_left sat 0 dp - 1 (* minus the empty selection *)
  end

(* The one place [Too_many] is decided. A candidate cap below the limit
   expires before the limit could be reached, so such a run degrades to
   anytime instead of refusing. *)
let admit t ~limit ~max_candidates ~buffer_width =
  let total = count_candidates t ~buffer_width in
  (match max_candidates with
  | Some m when m < limit -> ()
  | _ -> if total > limit then raise (Combination.Too_many limit));
  total

(* ------------------------------------------------------------------ *)
(* The walks *)

(* Covers the float rounding slack of re-associated non-negative sums
   (≤ ~n·2⁻⁵² relative for n terms — far below this for any pool a
   buffer could hold) with orders of magnitude to spare, so an inflated
   upper bound never prunes a leaf that could win or tie. *)
let bound_inflation = 1.0 +. 1e-9

(* The fast walk, for plain exact selections: every leaf is scored, so
   with no tick (see [admit]) a leaf is just one float compare — and
   whole subtrees whose inflated upper bound cannot reach the best-so-far
   are skipped without visiting them. Surviving leaves are emitted in
   skip-before-take order with the ascending-slot float association. The
   pool is width-ascending, so the moment [widths.(i) > remaining] the
   subtree collapses to its single skip-only leaf. *)
let walk_task_fast t plan idx c =
  let widths = t.k_widths and terms = t.k_terms and suffix = t.k_suffix in
  let n = Array.length t.k_pool in
  let stack = c.stack and gains = c.gains in
  let depth0, bits0 = prefix_of_task t plan idx c in
  let rec go i remaining depth bits =
    let gain = Array.unsafe_get gains depth in
    if i = n then begin
      if depth > 0 && gain >= c.bg then consider t c gain bits stack depth
    end
    else if (gain +. Array.unsafe_get suffix i) *. bound_inflation < c.bg then ()
    else begin
      let w = Array.unsafe_get widths i in
      if w > remaining then begin
        if depth > 0 && gain >= c.bg then consider t c gain bits stack depth
      end
      else begin
        go (i + 1) remaining depth bits;
        Array.unsafe_set stack depth i;
        Array.unsafe_set gains (depth + 1) (gain +. Array.unsafe_get terms i);
        go (i + 1) (remaining - w) (depth + 1) (bits + w)
      end
    end
  in
  go (Combination.task_start plan idx) (Combination.task_remaining plan idx) depth0 bits0

(* The ticked walk. With [only_maximal], a leaf is scored only when no
   fitting strict superset exists: every pool message is taken or skipped
   along the path, so that holds exactly when the narrowest skipped
   message no longer fits the remaining width. *)
let walk_task t plan idx ~only_maximal ~incumbent ~budget c =
  let widths = t.k_widths and terms = t.k_terms and suffix = t.k_suffix in
  let n = Array.length t.k_pool in
  let stack = c.stack and gains = c.gains in
  let depth0, bits0 = prefix_of_task t plan idx c in
  let inc = ref incumbent in
  let rec go i remaining min_skipped depth bits =
    let gain = Array.unsafe_get gains depth in
    if i = n then leaf remaining min_skipped depth bits
    else if (gain +. Array.unsafe_get suffix i) *. bound_inflation < !inc then
      c.pruned <- c.pruned + 1
    else begin
      let w = Array.unsafe_get widths i in
      if w > remaining then leaf remaining (Int.min min_skipped w) depth bits
      else begin
        go (i + 1) remaining (Int.min min_skipped w) depth bits;
        Array.unsafe_set stack depth i;
        Array.unsafe_set gains (depth + 1) (gain +. Array.unsafe_get terms i);
        go (i + 1) (remaining - w) min_skipped (depth + 1) (bits + w)
      end
    end
  and leaf remaining min_skipped depth bits =
    if depth > 0 then begin
      let gain = Array.unsafe_get gains depth in
      Budget.tick budget;
      if gain > !inc then inc := gain;
      if not (only_maximal && min_skipped <= remaining) then begin
        c.scored <- c.scored + 1;
        if gain >= c.bg then consider t c gain bits stack depth
      end
    end
  in
  go
    (Combination.task_start plan idx)
    (Combination.task_remaining plan idx)
    (Combination.task_min_skipped plan idx)
    depth0 bits0

(* Run [body idx cell] over every plan task across [jobs] domains; tasks
   are claimed in plan order from a shared counter, and claiming stops
   once [stop ()] holds. Each domain folds its tasks into a cell of its
   own, so a walk's bound can prune against everything that domain has
   seen; the best is unique, so how tasks landed on domains never shows
   in the merged result. Returns the per-domain cells. *)
let fan_out t ~jobs ~stop plan body =
  let ntasks = Combination.n_tasks plan in
  let cells = Array.init (max 1 jobs) (fun _ -> cell t) in
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  let work c () =
    try
      let continue = ref true in
      while !continue do
        if stop () || Atomic.get failed <> None then continue := false
        else begin
          let idx = Atomic.fetch_and_add next 1 in
          if idx >= ntasks then continue := false else body idx c
        end
      done
    with e -> Atomic.set failed (Some e)
  in
  let domains = Array.init (Array.length cells - 1) (fun w -> Domain.spawn (work cells.(w + 1))) in
  work cells.(0) ();
  Array.iter Domain.join domains;
  (match Atomic.get failed with Some e -> raise e | None -> ());
  cells

let best_of_cells t cells = Array.fold_left (fun acc c -> merge t acc (best c)) None cells
let sum_cells f cells = Array.fold_left (fun acc c -> acc + f c) 0 cells

(* ------------------------------------------------------------------ *)
(* Drivers *)

type search = {
  s_best : candidate option;
  s_seeds : int;
  s_explored : int;
  s_scored : int;
  s_pruned : int;
  s_complete : bool;
}

let search ?(only_maximal = false) ~jobs ~seeds ~budget t ~buffer_width =
  (* a usable seed names only pool messages, is non-empty, and fits the
     buffer — i.e. it is a candidate of this run, so its exact re-scored
     gain lower-bounds the best achievable gain *)
  let seeds =
    List.filter_map (candidate_of_names t) seeds
    |> List.filter (fun c -> Array.length c.c_slots > 0 && c.c_bits <= buffer_width)
    |> List.sort_uniq (fun a b -> compare a.c_slots b.c_slots)
  in
  let incumbent = List.fold_left (fun acc c -> Float.max acc c.c_gain) neg_infinity seeds in
  (* a fixed-depth plan whatever the job count: task-local pruning then
     depends only on the task decomposition, not on the schedule *)
  let plan = plan t ~buffer_width in
  let cells =
    fan_out t ~jobs ~stop:(fun () -> Budget.expired budget) plan (fun idx c ->
        try walk_task t plan idx ~only_maximal ~incumbent ~budget c with Budget.Expired -> ())
  in
  {
    s_best = best_of_cells t cells;
    s_seeds = List.length seeds;
    s_explored = Budget.explored budget;
    s_scored = sum_cells (fun c -> c.scored) cells;
    s_pruned = sum_cells (fun c -> c.pruned) cells;
    s_complete = not (Budget.expired budget);
  }

type selection = {
  sel_messages : Message.t list;
  sel_gain : float;
  sel_streamed : int;  (* fitting candidates: the exact count *)
  sel_scored : int;  (* candidates scored *)
}

let select_exact ?(only_maximal = false) ~limit ~jobs t ~buffer_width =
  let streamed = admit t ~limit ~max_candidates:None ~buffer_width in
  let found, scored =
    if only_maximal then
      let s = search ~only_maximal ~jobs ~seeds:[] ~budget:(Budget.make ()) t ~buffer_width in
      (s.s_best, s.s_scored)
    else
      (* a sequential run walks the whole tree as one task: no plan to
         build, no prefixes to replay *)
      let plan =
        if jobs <= 1 then Combination.plan ~depth:0 (Array.to_list t.k_pool) ~width:buffer_width
        else plan t ~buffer_width
      in
      let cells = fan_out t ~jobs ~stop:(fun () -> false) plan (walk_task_fast t plan) in
      (best_of_cells t cells, streamed)
  in
  Option.map
    (fun c ->
      { sel_messages = messages t c; sel_gain = c.c_gain; sel_streamed = streamed; sel_scored = scored })
    found

(* ------------------------------------------------------------------ *)
(* Coverage: Definition 7 as a word-parallel union/popcount. Identical to
   Coverage.compute because each slot's bitset marks exactly the
   destination states of that base's edges. *)

let coverage t ~selected =
  if t.k_n_states = 0 then 0.0
  else begin
    let sets = ref [] in
    Array.iteri
      (fun i (m : Message.t) -> if selected m.Message.name then sets := t.k_states.(i) :: !sets)
      t.k_pool;
    float_of_int (Bitset.popcount_union !sets) /. float_of_int t.k_n_states
  end
