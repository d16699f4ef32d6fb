(** Step 3: packing leftover trace-buffer bits with message subgroups
    (Section 3.3).

    Greedily adds the subgroup (a named bit-field of a message that was not
    selected whole) that maximizes the information gain of the union, until
    no subgroup fits the leftover width. Table 3's "WP" columns measure the
    benefit. *)

(** A packed subgroup: the parent message and the chosen bit-field. *)
type packed = { p_parent : Message.t; p_sub : Message.subgroup }

(** [qualified p] is the display name ["parent.sub"]. *)
val qualified : packed -> string

(** [fits messages ~buffer_width] — can at least one message's
    {!Message.trace_width} fit the budget? When [false], Step 1 can never
    seed a candidate set and {!Select.select} will reject the width; the
    static debuggability analysis uses this to prove infeasibility without
    running the candidate fold. *)
val fits : Message.t list -> buffer_width:int -> bool

(** [packable messages ~leftover] enumerates every subgroup of [messages]
    narrow enough for [leftover] bits — the raw candidate pool one Step 3
    round considers (before excluding already-selected parents and
    already-packed subgroups, which {!pack} does internally). *)
val packable : Message.t list -> leftover:int -> packed list

(** [gain_with ev ~scale_partial ~selected ~packs] is the information
    gain of the full messages [selected] together with packed subgroups
    [packs], evaluated against a precomputed {!Infogain.evaluator} (build
    it once with [Infogain.evaluator inter] and score many candidate pack
    sets without rescanning the edge list). When [scale_partial] each
    subgroup's term is scaled by the captured fraction of parent bits;
    otherwise (the paper's formulation) a subgroup contributes the
    parent's full term. *)
val gain_with :
  Infogain.evaluator ->
  scale_partial:bool ->
  selected:Message.t list ->
  packs:packed list ->
  float

(** [pack inter ~selected ~gain ~bits_used ~buffer_width ~scale_partial]
    runs Step 3 and returns [(packs, final_gain, final_bits_used)].
    [evaluator] must be [inter]'s; [Select.finalize] passes its kernel's
    ({!Kernel.evaluator}), so a held kernel never touches the global
    cache. Without it Step 3 takes [Infogain.evaluator inter], which
    builds on a miss of that one-slot cache. *)
val pack :
  ?evaluator:Infogain.evaluator ->
  Interleave.t ->
  selected:Message.t list ->
  gain:float ->
  bits_used:int ->
  buffer_width:int ->
  scale_partial:bool ->
  packed list * float * int
