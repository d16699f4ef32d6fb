(** The word-parallel selection kernel — the one Step-1/2 engine.

    Precomputes per-message statistics of an interleaved flow into flat
    arrays over the canonical (width-ascending) pool — trace widths, gain
    terms, suffix term sums, and per-message destination-state bitsets
    ({!Bitset}) — and walks the width-pruned subset tree on ints and
    floats only; coverage becomes a word-OR/popcount fold. A candidate on
    the walk is a depth-indexed stack of taken pool slots, so any pool
    size works.

    Bit-identity contract: takes along any root-to-leaf walk path happen
    in ascending slot order, so every candidate's gain equals, bit for
    bit, the gain the brute-force list path ([Combination.enumerate]
    scored by [Select.step2]) computes for it; the unique best under
    {!better} is therefore the list oracle's answer — same names, same
    gain bits, same [bits_used] — at any job count. Counts and the
    [Combination.Too_many] decision come from {!count_candidates} before
    any walk starts. *)

type t

(** [make inter] precomputes the kernel: builds the evaluator, the term
    and width arrays, the suffix sums and the per-message state bitsets.
    One O(pool + edges) pass; the result is immutable and safe to share
    read-only across domains. *)
val make : Interleave.t -> t

val n_messages : t -> int

(** The canonical width-ascending pool; candidate slots index into it. *)
val pool : t -> Message.t array

(** [plan k ~buffer_width] is {!Combination.plan}'s default decomposition
    of this pool — the task split every ticked walk, and the supervised
    engine's journal, is expressed in. *)
val plan : t -> buffer_width:int -> Combination.plan

(** {1 Candidates} *)

(** A scored candidate: its pool slots in ascending order, its
    ascending-slot gain sum and its summed trace width. *)
type candidate = { c_slots : int array; c_gain : float; c_bits : int }

(** [candidate_of_names k names] re-scores a candidate given by message
    names (duplicates ignored) — bit-identical to the gain a live walk
    computes for it — or [None] if a name is not in the pool. *)
val candidate_of_names : t -> string list -> candidate option

(** Pool messages of a candidate in ascending slot (take) order — the
    order selection results list messages in. *)
val messages : t -> candidate -> Message.t list

(** Sorted name list — the deterministic tie-break key. *)
val key : t -> candidate -> string list

(** The strict "better candidate" order: higher gain (exact float
    compare), then more bits, then lexicographically smaller {!key}.
    Irreflexive, transitive and total on distinct candidates, so the best
    is unique. *)
val better : t -> candidate -> candidate -> bool

(** [merge k a b] keeps the better of two optional bests. *)
val merge : t -> candidate option -> candidate option -> candidate option

(** {1 Counting and the limit} *)

(** [count_candidates k ~buffer_width] is the number of non-empty pool
    subsets that fit the buffer — exactly the leaves a full walk visits —
    by a knapsack-counting DP in O(pool · width); saturates far above any
    practical limit. *)
val count_candidates : t -> buffer_width:int -> int

(** [admit k ~limit ~max_candidates ~buffer_width] is the single
    enumeration guard of every exact run: it returns the candidate count,
    and raises [Combination.Too_many limit] when that count exceeds
    [limit] — unless a [max_candidates] cap below [limit] would stop the
    run first, in which case the run degrades to anytime instead. *)
val admit : t -> limit:int -> max_candidates:int option -> buffer_width:int -> int

(** {1 The ticked walk} *)

(** A walk's best-so-far, work counters and scratch stack. One cell may
    fold several tasks; a domain walks with one cell at a time. *)
type cell

val cell : t -> cell

(** The cell's best candidate so far. *)
val best : cell -> candidate option

(** [walk_task k plan i ~only_maximal ~incumbent ~budget c] walks task
    [i] of [plan] (built by {!plan}), ticking [budget] once per visited
    leaf and folding scored leaves into [c]. [only_maximal] scores only
    inclusion-maximal candidates. Subtrees whose inflated upper bound is
    strictly below the task-local incumbent (initially [incumbent], then
    the best gain this task has seen) are pruned, so the task's best is
    exact whenever it beats or ties [incumbent]. Raises {!Budget.Expired}
    mid-walk; [c] then holds the best of the leaves visited so far. *)
val walk_task :
  t ->
  Combination.plan ->
  int ->
  only_maximal:bool ->
  incumbent:float ->
  budget:Budget.t ->
  cell ->
  unit

(** Outcome of {!search}: the best candidate found; the distinct feasible
    seeds re-scored; the leaves ticked ([Budget.explored]); leaves scored
    and subtrees pruned; and whether the walk finished before any budget
    expired. Counters are identical at any job count when complete. *)
type search = {
  s_best : candidate option;
  s_seeds : int;
  s_explored : int;
  s_scored : int;
  s_pruned : int;
  s_complete : bool;
}

(** [search ~jobs ~seeds ~budget k ~buffer_width] runs the ticked walk
    over every task of {!plan} across [jobs] domains. Each seed (a
    candidate as message names, typically a journalled best of a prior
    run) is re-scored under this kernel; seeds naming unknown messages,
    empty ones and ones that no longer fit are dropped, and the best seed
    gain becomes the pruning incumbent — which can never exclude a leaf
    that would win or tie, so a complete search returns the exact best.
    On budget expiry the search stops and returns the best of the leaves
    visited. Does not check the limit: call {!admit} first. *)
val search :
  ?only_maximal:bool ->
  jobs:int ->
  seeds:string list list ->
  budget:Budget.t ->
  t ->
  buffer_width:int ->
  search

(** {1 Exact selection} *)

(** Outcome of an exact kernel run. [sel_streamed] is the fitting
    candidate count ({!count_candidates}); [sel_scored] the candidates
    scored — all of them, or with [only_maximal] the inclusion-maximal
    leaves the bound-pruned walk visited. Both are identical at any job
    count. *)
type selection = {
  sel_messages : Message.t list;
  sel_gain : float;
  sel_streamed : int;
  sel_scored : int;
}

(** [select_exact ~limit ~jobs k ~buffer_width] is the exact Step-1/2
    selection: {!admit}, then the tick-free fast walk (bound-pruned against
    the best-so-far) across [jobs] domains — or, with [only_maximal], an
    unbudgeted {!search}. [None] when no message fits. Raises
    [Combination.Too_many] past [limit] candidates. *)
val select_exact :
  ?only_maximal:bool -> limit:int -> jobs:int -> t -> buffer_width:int -> selection option

(** [coverage k ~selected] is Definition 7 computed as a word-parallel
    union/popcount over the per-message state bitsets — identical to
    [Coverage.compute] on the same predicate. *)
val coverage : t -> selected:(string -> bool) -> float
