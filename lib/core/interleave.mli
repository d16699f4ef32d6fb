(** Interleaved flows (Definition 5), generalized to n legally indexed flow
    instances.

    The interleaving of flows [F1 ||| … ||| Fn] is itself a flow whose
    states are tuples of component states and whose transitions carry
    {!Indexed.t} messages. Component [i] may fire a transition from a
    product state iff every other component is outside its [Atom] set —
    the n-ary generalization of the paper's rules i/ii — so no reachable
    product state has two atomic components.

    Only the reachable part of the product is materialized (forward
    exploration from the cross product of initial states); [p(x) = 1/|S|]
    in {!Infogain} is therefore taken over {e reachable} product states,
    matching the paper's Figure 2 count of 15 states.

    {2 Layout}

    The product is stored in compressed sparse rows: flat int arrays, each
    allocated at its exact size once exploration ends.
    - Product states are dense ids in [[0, n_states)], numbered in
      breadth-first discovery order; their components sit in one flat
      array of [n_states × instances] ints.
    - Edge labels are interned: a {e label id} in [[0, n_labels)] stands
      for one {!Indexed.t} message ({!label}).
    - Per state, an out-offset into flat out-edge arrays (label id,
      destination) and an in-offset into flat in-edge arrays (label id,
      source).

    {2 Order guarantees}

    Consumers read the arrays through the iterators below, and several
    results are pinned to their orders (float association in
    {!Infogain}, line order in {!Dot}):
    - {!iter_out} / {!fold_out} visit a state's out-edges, and {!fold_in}
      its in-edges, in discovery order;
    - {!iter_edges} visits every edge newest first, the reverse of
      discovery order (states in descending id, each state's out-edges
      last to first). *)

(** One participating flow with its instance index (Definition 3/4). *)
type instance = { flow : Flow.t; index : int }

(** One transition of the product DAG: firing indexed message [e_msg]
    moves the interleaving from product state [e_src] to [e_dst] (dense
    state ids in [[0, n_states)]). *)
type edge = { e_src : int; e_msg : Indexed.t; e_dst : int }

(** A materialized interleaved flow — the object Steps 1–3 and the
    localization engine analyze. *)
type t

(** Raised when two instances of the same flow share an index
    (Definition 4). *)
exception Not_legally_indexed of string

(** Raised when two flows declare the same message name with different
    widths. *)
exception Message_clash of string

(** Raised, while the product is explored, as soon as it reaches a state
    beyond the first [max_states]. *)
exception Too_large of int

(** [make instances] builds the interleaved flow of the given legally
    indexed instances. [max_states] (default 2,000,000) bounds the reachable
    product size. *)
val make : ?max_states:int -> instance list -> t

(** [instances flows counts] builds the instances of a usage scenario,
    [counts] pairing a flow name with its instance count (empty: one
    instance of each flow); indices run 1..n. [Error] names a counted
    flow that [flows] does not declare, and lists the declared ones. *)
val instances : Flow.t list -> (string * int) list -> (instance list, string) result

(** [of_flows flows] interleaves one instance of each flow, indexed 1..n in
    list order. *)
val of_flows : ?max_states:int -> Flow.t list -> t

(** Reachable product states — the [|S|] of [p(x) = 1/|S|]. *)
val n_states : t -> int

val n_edges : t -> int

(** Initial product states (dense ids in [0, n_states)). *)
val initials : t -> int list

(** Product states whose components are all stop states. *)
val stops : t -> int list

(** [is_stop t s] — is [s] a product stop state? *)
val is_stop : t -> int -> bool

(** The union of the participating flows' messages, deduplicated by name —
    the pool Step 1 enumerates over. *)
val messages : t -> Message.t list

(** {2 Edges} *)

(** Number of interned edge labels. Every label of a participating
    instance's transitions is interned, fired or not. *)
val n_labels : t -> int

(** [label t id] is the indexed message label id [id] stands for. *)
val label : t -> int -> Indexed.t

(** [out_degree t s] is the number of edges leaving [s]. *)
val out_degree : t -> int -> int

(** [nth_out t s k] is [s]'s [k]-th out-edge (label id, destination),
    [0 <= k < out_degree t s], in discovery order. *)
val nth_out : t -> int -> int -> int * int

(** [iter_out t s f] calls [f label dst] on each edge leaving [s], in
    discovery order. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

(** [iter_succ t s f] calls [f dst] on each edge leaving [s], in discovery
    order — the successor iterator {!Dag} takes. *)
val iter_succ : t -> int -> (int -> unit) -> unit

(** [fold_out t s f acc] folds [f acc label dst] over the edges leaving
    [s], in discovery order. *)
val fold_out : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [fold_in t s f acc] folds [f acc label src] over the edges entering
    [s], in discovery order. *)
val fold_in : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [first_in t dst label] is the position, in [[0, n_edges)], of the
    first edge entering [dst] with label [label], or [-1] when none does:
    a dense key for each distinct (label, destination) pair. It scans
    [dst]'s in-edges. *)
val first_in : t -> int -> int -> int

(** [iter_edges t f] calls [f src label dst] on every edge, newest first
    (the reverse of discovery order) — the order {!Infogain}'s sums and
    {!Dot}'s edge lines are pinned to. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit

(** {2 Edge lists}

    Built on demand from the arrays, for tests and tools; the library
    reads edges through the iterators above. *)

(** Every edge, in {!iter_edges} order. *)
val edges : t -> edge list

(** [out_edges t s] / [in_edges t s]: the labeled transitions leaving /
    entering product state [s], in discovery order. *)
val out_edges : t -> int -> (Indexed.t * int) list

val in_edges : t -> int -> (Indexed.t * int) list

(** [state_name t s] renders a product state like ["(c1,n2)"]. *)
val state_name : t -> int -> string

(** [message t name] looks a pool message up by base name. *)
val message : t -> string -> Message.t option

(** [message_exn t name] is {!message} or [Invalid_argument]. *)
val message_exn : t -> string -> Message.t

(** [total_paths t] counts (saturating) all executions: paths from an
    initial to a stop product state. *)
val total_paths : t -> int

(** [indexed_instances_of t base] lists the indexed messages [i:base] for
    every participating instance whose flow declares [base]. *)
val indexed_instances_of : t -> string -> Indexed.t list

(** One-line summary: instance, state, edge and path counts. *)
val pp : Format.formatter -> t -> unit
