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
    matching the paper's Figure 2 count of 15 states. *)

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

(** Raised when the reachable product exceeds [max_states]. *)
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

(** Every edge of the product DAG, in construction order — the stream
    {!Infogain.stats} folds over. *)
val edges : t -> edge list

(** [out_edges t s] / [in_edges t s]: the labeled transitions leaving /
    entering product state [s]. *)
val out_edges : t -> int -> (Indexed.t * int) list

val in_edges : t -> int -> (Indexed.t * int) list

(** [successors t s] is [out_edges] without the labels. *)
val successors : t -> int -> int list

(** [state_name t s] renders a product state like ["(c1,n2)"]. *)
val state_name : t -> int -> string

(** [message t name] looks a pool message up by base name. *)
val message : t -> string -> Message.t option

(** [message_exn t name] is {!message} or [Invalid_argument]. *)
val message_exn : t -> string -> Message.t

(** [total_paths t] counts (saturating) all executions: paths from an
    initial to a stop product state. *)
val total_paths : t -> int

(** [executions t] enumerates the traces of all executions of the product
    (indexed message sequences, initial to stop, DFS order). This is the
    brute-force seam the static debuggability analysis ([flowtrace check])
    validates its verdicts against: project these traces with
    {!Localize.project} and compare languages directly. Raises [Failure]
    past [limit] (default 1,000,000) paths, like {!Flow.executions}. *)
val executions : ?limit:int -> t -> Indexed.t list list

(** [indexed_instances_of t base] lists the indexed messages [i:base] for
    every participating instance whose flow declares [base]. *)
val indexed_instances_of : t -> string -> Indexed.t list

(** One-line summary: instance, state, edge and path counts. *)
val pp : Format.formatter -> t -> unit
