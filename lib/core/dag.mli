(** Generic DAG algorithms over graphs with integer node identifiers.
    A graph is given by [~succ]: [succ s f] calls [f] on each successor of
    [s], in a fixed order. *)

(** Raised by {!topo_order} when the graph has a cycle. *)
exception Cycle

(** [sat_add a b] is [a + b] saturating at [max_int]. Path counts in large
    interleavings can overflow; all counting in this library saturates. *)
val sat_add : int -> int -> int

(** [topo_order ~n ~succ] is a topological order of nodes [0..n-1].
    Raises {!Cycle} if the graph is cyclic. *)
val topo_order : n:int -> succ:(int -> (int -> unit) -> unit) -> int list

(** [count_paths ~n ~succ ~sources ~is_sink] counts (saturating) the paths
    from any source node to any sink node. *)
val count_paths : n:int -> succ:(int -> (int -> unit) -> unit) -> sources:int list -> is_sink:(int -> bool) -> int

(** [longest_path ~n ~succ ~sources] is the length in edges of the longest
    path starting at a source. *)
val longest_path : n:int -> succ:(int -> (int -> unit) -> unit) -> sources:int list -> int
