(** Step 1: candidate message combinations under the buffer-width
    constraint (Section 3.1, Definition 6).

    A message combination is an unordered set of messages; its total bit
    width is the sum of member widths. Only combinations whose total width
    fits the trace buffer are candidates for Step 2.

    The enumeration is a width-pruned subset-tree walk, exposed as a
    constant-memory streaming fold ({!fold_candidates}) and the
    materializing {!enumerate}: together with {!maximal_only}, {!count}
    and [Select.step2] they are the brute-force reference the selection
    kernel ({!Kernel}) is tested against. {!plan} is the task split the
    kernel's walks fan out across domains. *)

(** Raised when more than [limit] combinations fit. *)
exception Too_many of int

val default_limit : int

(** [canonical_pool messages] is the pool in the walk's canonical order:
    width-ascending, stable for equal widths. Selections, task prefixes
    and the kernel's pool slots are expressed in this order. *)
val canonical_pool : Message.t list -> Message.t list

(** [fold_candidates messages ~width ~init ~f] folds [f] over every
    non-empty subset of [messages] whose total width is at most [width],
    without materializing the candidate set: peak live memory is O(pool),
    independent of the number of candidates. Candidates arrive in the same
    order {!enumerate} generates them, each as a width-ascending list.
    [only_maximal] (default false) emits only inclusion-maximal candidates;
    the candidate budget [limit] still counts every fitting combination.
    Raises {!Too_many} past [limit] (default 1,000,000) candidates. *)
val fold_candidates :
  ?limit:int ->
  ?only_maximal:bool ->
  Message.t list ->
  width:int ->
  init:'a ->
  f:('a -> Message.t list -> 'a) ->
  'a

(** A decomposition of the subset tree into independent subtasks: the
    subtrees below every feasible skip/take prefix of a fixed depth. The
    tasks partition the candidate set, so folding each task and combining
    the per-task results visits every candidate exactly once. *)
type plan

(** [plan messages ~width] splits the walk below prefixes of [depth]
    (default 10, capped at the pool size — at most 2^10 tasks). *)
val plan : ?depth:int -> Message.t list -> width:int -> plan

val n_tasks : plan -> int

(** Plan internals, exposed for the selection kernel ({!Kernel}), which
    walks each task's subtree itself. Per task [i], [task_start] is the
    first undecided pool index, [task_taken] the prefix takes as
    ascending indices into {!canonical_pool}, [task_remaining] the width left after the prefix, and
    [task_min_skipped] the narrowest width skipped along the prefix (the
    maximality state). *)
val task_start : plan -> int -> int
val task_taken : plan -> int -> int list
val task_remaining : plan -> int -> int
val task_min_skipped : plan -> int -> int

(** [enumerate messages ~width] lists every non-empty subset of [messages]
    whose total width is at most [width]. Raises {!Too_many} past [limit]
    (default 1,000,000) results. Materializes the whole candidate list —
    prefer {!fold_candidates} on large pools. *)
val enumerate : ?limit:int -> Message.t list -> width:int -> Message.t list list

(** [maximal_only combos] drops combinations strictly included in another
    candidate. Since information gain is monotone in the message set, the
    best maximal candidate is a best candidate overall. Quadratic — apply
    to modest materialized lists only; the streaming walk's [only_maximal]
    flag computes the same filter in O(1) per candidate. *)
val maximal_only : Message.t list list -> Message.t list list

(** [count messages ~width] is the number of fitting combinations (the
    paper's running example: 6 of 7 for the coherence flow at width 2),
    in constant memory and without any candidate limit. *)
val count : Message.t list -> width:int -> int

(** [fits messages ~width] checks Definition 6's constraint. *)
val fits : Message.t list -> width:int -> bool
