(* The word-parallel selection kernel: the one Step-1/2 engine.

   Step-1/2 selection spends its whole life in the subset-tree walk. This
   kernel precomputes everything the walk reads into flat arrays over the
   canonical (width-ascending) pool — per-slot trace widths, per-slot gain
   terms and per-slot destination-state bitsets ({!Bitset}) — so the walk
   runs on ints and floats only: a take is one slot store plus one
   array-indexed float add into the depth-indexed prefix-gain array (so it
   allocates nothing), a leaf is a budget tick and a couple of register
   compares, and coverage is a word-OR / popcount fold.

   A candidate on the walk is the depth-indexed stack of its taken slots;
   it is copied out (as an ascending slot array) only when it improves the
   best-so-far, so the pool size is unbounded and the hot path does no
   mask arithmetic at all.

   Bit-identity contract: along any root-to-leaf path, takes happen in
   ascending slot order, so accumulating [terms.(i)] in that order
   reproduces the float association of the brute-force list path
   ([Combination.enumerate] scored by [Infogain.eval]) exactly — gains are
   bit-for-bit equal, and the unique best under the deterministic
   comparator ({!better}) is the same at any job count.

   The walk runs on an admitted run ({!admit}): the candidate count, and
   with it the [Too_many] decision, is settled arithmetically by a
   knapsack-counting DP ({!count_candidates}); only then is the run's
   bound table built — a knapsack-optimum DP over the same pool and
   widths: [ub(i, c)] is the best term sum over slots ≥ i whose widths
   total at most [c]. Steps 1–2 together are a 0/1 knapsack (the gain is
   a sum of per-message terms), so [prefix gain + ub(i, remaining)] is
   the best any leaf below a node can reach, and a node whose inflated
   bound falls strictly below the best-so-far is skipped. Terms are
   non-negative and the bound over-approximates every float leaf sum
   below the node, so no leaf that could beat or tie the final best is
   ever skipped.

   One walk ({!walk_task}) runs every exact run, over the task
   decomposition of {!Combination.plan}. It ticks a {!Budget} once per
   visited leaf, tracks the narrowest skipped message for exact-maximal
   runs, descends first into the branch with the higher bound, and prunes
   against an incumbent its caller passes in. The callers differ only in
   plan and incumbent:
   - {!select_exact} answers plain exact selections: a single task at one
     job, a budget that never expires, and the domain's best-so-far as
     each task's incumbent;
   - {!search} answers everything else — budgeted (anytime) runs,
     exact-maximal runs and delta re-selection; the supervised task loop
     of lib/runtime calls the walk directly. It runs as an exact
     branch-and-bound: seed candidates (typically journalled bests of a
     previous run of a slightly different scenario) are re-scored under
     the new terms to form the incumbent every task starts from, on the
     fixed-depth plan whatever the job count, so a task's best and its
     work counters do not depend on which domain ran which task. *)

type t = {
  k_inter : Interleave.t;  (* the interleaving the kernel was built from *)
  k_ev : Infogain.evaluator;  (* the evaluator the terms came from *)
  k_pool : Message.t array;  (* canonical width-ascending pool *)
  k_widths : int array;  (* per-slot trace width *)
  k_terms : float array;  (* per-slot gain term *)
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
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i (m : Message.t) -> Hashtbl.replace index m.Message.name i) pool;
  let n_states = Interleave.n_states inter in
  let states = Array.init n (fun _ -> Bitset.create n_states) in
  (* each interleave label resolved to its pool slot once, not per edge *)
  let slot =
    Array.init (Interleave.n_labels inter) (fun l ->
        Option.value ~default:(-1) (Hashtbl.find_opt index (Interleave.label inter l).Indexed.base))
  in
  Interleave.iter_edges inter (fun _ l dst -> if slot.(l) >= 0 then Bitset.set states.(slot.(l)) dst);
  {
    k_inter = inter;
    k_ev = ev;
    k_pool = pool;
    k_widths = widths;
    k_terms = terms;
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
  mutable scored : int;  (* leaves scored *)
  mutable pruned : int;  (* subtrees cut by the bound *)
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
(* Counting, the limit and the bound table *)

(* Slots [0, fit) are the ones no wider than the buffer — a prefix, since
   the pool is width-ascending — and [cap] is the widest total a candidate
   can reach: the buffer, or less when every fitting slot together is
   narrower. Both DPs below run over columns [0, cap]. *)
let fitting t ~buffer_width =
  let n = Array.length t.k_widths in
  let fit = ref 0 and total = ref 0 in
  while !fit < n && t.k_widths.(!fit) <= buffer_width do
    total := Int.min buffer_width (!total + t.k_widths.(!fit));
    incr fit
  done;
  (!fit, Int.max 0 !total)

(* How many candidates would a full walk visit? Every non-empty subset of
   the pool whose total trace width fits the buffer, exactly once — so
   the count is a knapsack-counting DP over widths, O(n·width), no tree
   walk at all. Counts saturate at [count_cap] so a huge pool cannot
   wrap; a saturated count still compares correctly against any
   practical limit. *)
let count_cap = max_int / 4

let count_fitting t ~fit ~cap =
  let sat a b =
    let s = a + b in
    if s < 0 || s > count_cap then count_cap else s
  in
  let dp = Array.make (cap + 1) 0 in
  dp.(0) <- 1;
  for i = 0 to fit - 1 do
    let w = t.k_widths.(i) in
    for r = cap downto w do
      dp.(r) <- sat dp.(r) dp.(r - w)
    done
  done;
  Array.fold_left sat 0 dp - 1 (* minus the empty selection *)

let count_candidates t ~buffer_width =
  let fit, cap = fitting t ~buffer_width in
  count_fitting t ~fit ~cap

(* An admitted run: the limit is settled, and the bound table is built
   for this run's width only. [a_ub.(i).(min c a_cap lsr a_shift)] is
   ub(i, c) — exactly when [a_shift = 0], an upper bound otherwise.
   Remaining widths past [a_cap] read the last column, which already
   admits every fitting slot. Rows of the slots past the fitting ones
   share one all-zero row, as no such slot fits. Rows are separate arrays
   so that, at any buffer width under 256 bits, each is a short-lived
   minor-heap block rather than one large block allocated straight into
   the major heap on every run. *)
type admitted = {
  a_kernel : t;
  a_width : int;
  a_count : int;
  a_cap : int;
  a_shift : int;
  a_ub : float array array;
}

(* The table holds at most this many floats (8 MiB). A wider pool or
   buffer coarsens the widths instead: with every width and column
   shifted right by [shift], a subset whose widths fit [c] has shifted
   widths that fit [c lsr shift] (floor(a/s) + floor(b/s) ≤
   floor((a+b)/s)), so the coarse optimum still bounds the exact one from
   above — only less tightly. Any practical run has [shift = 0], where
   the table is the exact knapsack optimum. *)
let max_bound_cells = 1 lsl 20

(* ub(i, c) = max(ub(i+1, c), term(i) + ub(i+1, c - width(i))) — the
   best term sum over slots ≥ i within width c. *)
let bound_table t ~fit ~cap =
  let shift = ref 0 in
  while cap lsr !shift > 0 && (fit + 1) * ((cap lsr !shift) + 1) > max_bound_cells do
    incr shift
  done;
  let shift = !shift in
  let ub = Array.make (Array.length t.k_pool + 1) (Array.make ((cap lsr shift) + 1) 0.0) in
  for i = fit - 1 downto 0 do
    let w = t.k_widths.(i) lsr shift and term = t.k_terms.(i) in
    let next = ub.(i + 1) in
    let row = Array.copy next in
    for c = w to Array.length row - 1 do
      let take = term +. Array.unsafe_get next (c - w) in
      if take > Array.unsafe_get row c then Array.unsafe_set row c take
    done;
    ub.(i) <- row
  done;
  (shift, ub)

(* The one place [Too_many] is decided, and the only way to a walk. A
   candidate cap below the limit expires before the limit could be
   reached, so such a run degrades to anytime instead of refusing. The
   bound table is built only once the count is accepted. *)
let admit t ~limit ~max_candidates ~buffer_width =
  let fit, cap = fitting t ~buffer_width in
  let count = count_fitting t ~fit ~cap in
  (match max_candidates with
  | Some m when m < limit -> ()
  | _ -> if count > limit then raise (Combination.Too_many limit));
  let shift, ub = bound_table t ~fit ~cap in
  { a_kernel = t; a_width = buffer_width; a_count = count; a_cap = cap; a_shift = shift; a_ub = ub }

let count a = a.a_count

let upper_bound a ~slot ~width =
  if slot < 0 || slot > Array.length a.a_kernel.k_pool || width < 0 then
    invalid_arg "Kernel.upper_bound: slot or width out of range";
  a.a_ub.(slot).(Int.min width a.a_cap lsr a.a_shift)

(* ------------------------------------------------------------------ *)
(* The walk *)

(* Covers the float rounding slack of re-associated non-negative sums
   (≤ ~n·2⁻⁵² relative for n terms — far below this for any pool a
   buffer could hold) with orders of magnitude to spare, so an inflated
   upper bound never prunes a leaf that could win or tie. *)
let bound_inflation = 1.0 +. 1e-9

(* The one walk. Every leaf ticks [budget] (which raises [Budget.Expired]
   mid-walk once a deadline or cap trips), and a subtree whose inflated
   upper bound falls strictly below the incumbent is skipped without
   visiting it. The incumbent starts at the caller's [incumbent] and
   rises with every visited leaf's gain. It is held in a one-cell float
   array, not a ref: raising it then stores an unboxed float instead of
   allocating one. The pool is width-ascending, so the moment
   [widths.(i) > remaining] the subtree collapses to its single skip-only
   leaf. At every other node the walk descends first into the branch with
   the higher bound (take on a tie), so its first leaf is the knapsack
   optimum up to float association and the rest of the walk prunes
   against it. The order decides only which leaves are visited, never the
   answer: the best under {!better} is unique, and a leaf that could win
   or tie is never pruned.

   With [only_maximal], a leaf is scored only when no fitting strict
   superset exists: every pool message is taken or skipped along the
   path, so that holds exactly when the narrowest skipped message no
   longer fits the remaining width. *)
let walk_task a plan idx ~only_maximal ~incumbent ~budget c =
  let t = a.a_kernel in
  let widths = t.k_widths and terms = t.k_terms in
  let ub = a.a_ub and cap = a.a_cap and shift = a.a_shift in
  let n = Array.length t.k_pool in
  let stack = c.stack and gains = c.gains in
  let depth0, bits0 = prefix_of_task t plan idx c in
  let inc = Array.make 1 incumbent in
  let rec go i remaining min_skipped depth bits =
    let gain = Array.unsafe_get gains depth in
    if i = n then leaf remaining min_skipped depth bits
    else if
      (gain +. Array.unsafe_get (Array.unsafe_get ub i) (Int.min remaining cap lsr shift))
      *. bound_inflation
      < Array.unsafe_get inc 0
    then c.pruned <- c.pruned + 1
    else begin
      let w = Array.unsafe_get widths i in
      if w > remaining then leaf remaining (Int.min min_skipped w) depth bits
      else begin
        let next = Array.unsafe_get ub (i + 1) and term = Array.unsafe_get terms i in
        if
          term +. Array.unsafe_get next (Int.min (remaining - w) cap lsr shift)
          >= Array.unsafe_get next (Int.min remaining cap lsr shift)
        then begin
          Array.unsafe_set stack depth i;
          Array.unsafe_set gains (depth + 1) (gain +. term);
          go (i + 1) (remaining - w) min_skipped (depth + 1) (bits + w);
          go (i + 1) remaining (Int.min min_skipped w) depth bits
        end
        else begin
          go (i + 1) remaining (Int.min min_skipped w) depth bits;
          Array.unsafe_set stack depth i;
          Array.unsafe_set gains (depth + 1) (gain +. term);
          go (i + 1) (remaining - w) min_skipped (depth + 1) (bits + w)
        end
      end
    end
  and leaf remaining min_skipped depth bits =
    if depth > 0 then begin
      let gain = Array.unsafe_get gains depth in
      Budget.tick budget;
      if gain > Array.unsafe_get inc 0 then Array.unsafe_set inc 0 gain;
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
   own, so a caller may hand a walk everything that domain has seen as
   its incumbent; the best is unique, so how tasks landed on domains never shows
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

let search ?(only_maximal = false) ~jobs ~seeds ~budget a =
  let t = a.a_kernel and buffer_width = a.a_width in
  (* a usable seed names only pool messages, is non-empty, and fits the
     buffer — i.e. it is a candidate of this run, so its exact re-scored
     gain lower-bounds the best achievable gain *)
  let seeds =
    List.filter_map (candidate_of_names t) seeds
    |> List.filter (fun c -> Array.length c.c_slots > 0 && c.c_bits <= buffer_width)
    |> List.sort_uniq (fun a b -> compare a.c_slots b.c_slots)
  in
  let incumbent = List.fold_left (fun acc c -> Float.max acc c.c_gain) neg_infinity seeds in
  (* a fixed-depth plan whatever the job count, and every task starts
     from the seed incumbent: pruning then depends only on the task
     decomposition, not on the schedule *)
  let plan = plan t ~buffer_width in
  let cells =
    fan_out t ~jobs ~stop:(fun () -> Budget.expired budget) plan (fun idx c ->
        try walk_task a plan idx ~only_maximal ~incumbent ~budget c with Budget.Expired -> ())
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
  let a = admit t ~limit ~max_candidates:None ~buffer_width in
  let found, scored =
    if only_maximal then
      let s = search ~only_maximal ~jobs ~seeds:[] ~budget:(Budget.make ()) a in
      (s.s_best, s.s_scored)
    else
      (* a sequential run walks the whole tree as one task: no plan to
         build, no prefixes to replay. Nothing here depends on the work
         counters, so each task prunes against everything its domain has
         seen, and each has a budget of its own that never expires (a
         shared one would put every leaf's tick on one contended atomic). *)
      let plan =
        if jobs <= 1 then Combination.plan ~depth:0 (Array.to_list t.k_pool) ~width:buffer_width
        else plan t ~buffer_width
      in
      let cells =
        fan_out t ~jobs ~stop:(fun () -> false) plan (fun idx c ->
            walk_task a plan idx ~only_maximal:false ~incumbent:c.bg ~budget:(Budget.make ()) c)
      in
      (best_of_cells t cells, a.a_count)
  in
  Option.map
    (fun c ->
      { sel_messages = messages t c; sel_gain = c.c_gain; sel_streamed = a.a_count; sel_scored = scored })
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
