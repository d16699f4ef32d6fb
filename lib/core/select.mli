(** The full message-selection pipeline (Section 3): Step 1 candidate
    enumeration under the buffer-width constraint, Step 2 mutual-information
    maximization, Step 3 packing of leftover bits with message subgroups. *)

(** Candidate search strategy for Steps 1-2:
    - [Exact]: enumerate every fitting combination and score each (the
      paper's formulation);
    - [Exact_maximal]: enumerate, then keep only inclusion-maximal fitting
      combinations — sound because gain is monotone, and cheaper to score;
    - [Greedy]: iteratively add the message with the best precomputed gain
      term that still fits; O(n) gain evaluations, for large scenarios. *)
type strategy = Exact | Exact_maximal | Greedy

(** How complete the search behind a result was — the degradation tier of
    an anytime run. *)
module Tier : sig
  type t =
    | Exact  (** the requested strategy ran to completion *)
    | Anytime of { explored : int; total : int }
        (** a budget ([deadline] / [max_candidates]) expired mid-walk;
            the result is the best of the [explored] candidates visited
            before expiry, out of the [total] fitting candidates
            ([Kernel.count_candidates]) *)
    | Greedy_fallback
        (** the budget expired before any candidate completed (or was
            already expired on entry); the result is the greedy baseline *)

  (** [is_degraded t] is [false] only for [Exact]. *)
  val is_degraded : t -> bool

  (** One-line rendering for CLI output and reports. *)
  val to_string : t -> string
end

(** Outcome of a selection run. [bits_used / buffer_width] is the
    trace-buffer utilization reported in Table 3. *)
type result = {
  messages : Message.t list;  (** fully selected messages (Step 2) *)
  packed : Packing.packed list;  (** packed subgroups (Step 3) *)
  gain : float;  (** information gain of the final selection *)
  coverage : float;  (** flow specification coverage, Definition 7 *)
  bits_used : int;
  buffer_width : int;
  tier : Tier.t;  (** [Tier.Exact] unless a budget degraded the run *)
}

(** [utilization r] is [bits_used / buffer_width] in [0, 1]. *)
val utilization : result -> float

(** Display names of everything selected, subgroups qualified as
    ["parent.sub"]. *)
val selected_names : result -> string list

(** Base message names whose transitions are observable under [r] —
    fully selected messages plus parents of packed subgroups. *)
val observable_bases : result -> string list

(** [is_observable r base] tests membership in {!observable_bases}. *)
val is_observable : result -> string -> bool

(** [step2 inter candidates] scores every candidate and returns the best
    with its gain. Ties break deterministically: more bits (utilization is
    the paper's secondary objective), then lexicographic. Raises
    [Invalid_argument] on an empty candidate list. *)
val step2 : Interleave.t -> Message.t list list -> Message.t list * float

(** [select inter ~buffer_width] runs the pipeline. [pack] (default true)
    enables Step 3; [scale_partial] (default false — the paper's
    formulation) scales packed subgroup contributions by captured bit
    fraction; [limit] bounds Step-1 enumeration (exceeding it raises
    [Combination.Too_many]). Raises [Invalid_argument] when no message
    fits the buffer.

    The exact strategies run the selection kernel ({!Kernel}) — one
    engine for every exact run, bit-identical to the brute-force list
    path ([Combination.enumerate] then {!step2}) on names, gain bits,
    coverage bits and [bits_used]. [jobs] (default 1) fans the walk out
    across that many OCaml domains; the result is identical for any job
    count (the best candidate under the deterministic tie-break is
    unique, and per-candidate scores are bit-for-bit equal on every
    path). Whether the candidate count exceeds [limit] is decided once,
    from {!Kernel.admit}, before any walk.

    [deadline] (absolute [Unix.gettimeofday] time) and [max_candidates]
    turn the exact strategies into anytime searches on the kernel's
    ticked walk: the budgets are checked cooperatively once per visited
    leaf (the deadline every 256 leaves), and on expiry the walk stops
    cleanly and returns the best of the leaves visited with [result.tier
    = Anytime _] — or the greedy baseline ([Greedy_fallback]) if none had
    been scored. A budgeted run whose budgets never expire is
    bit-identical to an unbudgeted one, with tier [Exact]. Degraded
    results from expired budgets are not deterministic across job counts
    (the explored prefix depends on the schedule); only complete runs
    are. *)
val select :
  ?strategy:strategy ->
  ?limit:int ->
  ?jobs:int ->
  ?deadline:float ->
  ?max_candidates:int ->
  ?pack:bool ->
  ?scale_partial:bool ->
  Interleave.t ->
  buffer_width:int ->
  result

(** [greedy inter ~buffer_width] is the Step-2 greedy baseline on its own:
    repeatedly add the highest-marginal-gain message that still fits.
    Returns the chosen combination ([[]] when nothing fits) — the fallback
    external engines use when a budget expires before any exact candidate
    completes. *)
val greedy : Interleave.t -> buffer_width:int -> Message.t list

(** [finalize inter ~combo ~gain ~buffer_width] runs Step 3 packing and
    coverage over an already-chosen Step-2 combination and assembles the
    {!result} — the tail of {!select}, exposed so external engines
    (supervised/anytime runs in [lib/runtime]) produce results identical
    in shape and packing to an in-process run. [tier] defaults to
    [Tier.Exact]. [kernel], when given, computes coverage via the
    word-parallel {!Kernel.coverage} fold instead of [Coverage.compute]
    (identical value, no edge-list rescan). *)
val finalize :
  ?pack:bool ->
  ?scale_partial:bool ->
  ?tier:Tier.t ->
  ?kernel:Kernel.t ->
  Interleave.t ->
  combo:Message.t list ->
  gain:float ->
  buffer_width:int ->
  result

(** Work counters of a delta re-selection, for telemetry and tests:
    distinct feasible seeds re-scored, candidates streamed and scored by
    the branch-and-bound walk, and subtrees pruned. Deterministic at any
    job count. *)
type reselect_stats = {
  rs_seeds : int;
  rs_streamed : int;
  rs_scored : int;
  rs_pruned_subtrees : int;
}

(** [reselect ~seeds inter ~buffer_width] is {!select} with prior-run
    knowledge: each seed (a candidate as a message-name list, typically
    the journalled best of a slightly different scenario) is re-scored
    under the current scenario, and the best feasible seed gain prunes
    the exact walk as a branch-and-bound incumbent. The result is
    bit-identical to a from-scratch {!select} — pruning only cuts
    subtrees whose upper bound is strictly below the incumbent — but
    re-scores strictly fewer candidates whenever a seed is any good.
    [deadline] and [max_candidates] budget the walk exactly as in
    {!select}. Stats are [Some] whenever the kernel walk ran, [None] for
    the greedy strategy and for a deadline already past on entry (the
    greedy fallback). Seeds naming unknown messages or no longer fitting
    the buffer are dropped. *)
val reselect :
  ?strategy:strategy ->
  ?limit:int ->
  ?jobs:int ->
  ?deadline:float ->
  ?max_candidates:int ->
  ?pack:bool ->
  ?scale_partial:bool ->
  seeds:string list list ->
  Interleave.t ->
  buffer_width:int ->
  result * reselect_stats option

val pp_result : Format.formatter -> result -> unit

(** Per-message breakdown of the selection decision. *)
type contribution = {
  co_message : Message.t;
  co_gain : float;  (** the message's own information term *)
  co_bits : int;  (** per-cycle trace width *)
  co_density : float;  (** gain per trace-buffer bit *)
  co_selected : bool;
  co_packed : bool;  (** observed only through packed subgroups *)
}

(** [explain inter r] ranks the whole message pool by information term —
    the "why was this traced?" report. *)
val explain : Interleave.t -> result -> contribution list

val pp_contribution : Format.formatter -> contribution -> unit
