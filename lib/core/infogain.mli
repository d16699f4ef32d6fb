(** Mutual information gain of message combinations (Section 3.2).

    For an interleaved flow with reachable state set [S] and edge multiset
    [E]: [p(x) = 1/|S|]; for an indexed message [y], [p(y) = occ(y)/|E|]
    and [p(x|y)] is the fraction of [y]-labeled edges entering [x]. The
    gain of a candidate combination [Y'] is
    [Σ_{y ∈ indexed(Y'), x} p(x,y) · ln(p(x,y)/(p(x)p(y)))]
    — natural logarithm, as pinned by the paper's worked example
    [I(X;Y1) = 1.073].

    The gain decomposes into a non-negative term per indexed message
    ([p(y) · KL(p(·|y) ‖ uniform)]), hence it is monotone under adding
    messages; {!evaluator} exploits the decomposition to score many
    candidate combinations cheaply. *)

(** [compute inter ~selected] is the gain of the combination containing
    every base message name accepted by [selected]. *)
val compute : Interleave.t -> selected:(string -> bool) -> float

(** [compute_weighted inter ~weight] generalizes {!compute}: each base
    message contributes its term scaled by [weight name] (0 excludes it).
    Used by Step-3 packing with partial-width scaling. *)
val compute_weighted : Interleave.t -> weight:(string -> float) -> float

(** [of_combination inter combo] is the gain of an explicit message list. *)
val of_combination : Interleave.t -> Message.t list -> float

(** The paper's prior: [p(x) = 1/|S|]. *)
val uniform_prior : Interleave.t -> int -> float

(** Ablation prior: [p(x)] proportional to the executions passing through
    [x]. *)
val visit_prior : Interleave.t -> int -> float

(** [compute_with_prior inter ~selected ~prior] generalizes {!compute} to
    an arbitrary state prior. With a non-uniform prior individual terms
    can be negative, so monotonicity is no longer guaranteed. *)
val compute_with_prior :
  Interleave.t -> selected:(string -> bool) -> prior:(int -> float) -> float

(** Precomputed per-message terms for fast candidate scoring. *)
type evaluator

(** [evaluator inter] precomputes each base message's gain contribution.
    The most recent build is cached keyed by [inter]'s physical identity
    — evaluators are pure in the interleave and immutable, so repeated
    scoring of one interleave (greedy then exact, select then reselect,
    packing sweeps) pays for one build. *)
val evaluator : Interleave.t -> evaluator

(** [eval_base ev name] is the contribution of one base message. *)
val eval_base : evaluator -> string -> float

(** [eval ev combo] is the gain of [combo] in O(|combo|). *)
val eval : evaluator -> Message.t list -> float

(** [terms ev pool] is [eval_base] per pool slot as a float array — the
    per-message gain terms the word-parallel kernel ({!Kernel}) indexes
    directly during its walk. *)
val terms : evaluator -> Message.t array -> float array

(** [eval_weighted ev ~weight] is {!compute_weighted} against the
    precomputed terms: O(|bases|) per call instead of an edge-list rescan.
    Exact because each base's term is linear in its weight. *)
val eval_weighted : evaluator -> weight:(string -> float) -> float
