(** Executions and traces of interleaved flows (Definition 2).

    An execution alternates product states and indexed messages and ends in
    a stop state; its trace is the message sequence. The trace buffer sees
    only the {e projection} of the trace onto the selected messages. *)

(** A complete execution: the visited product states and the emitted
    indexed messages. *)
type path = { states : int list; trace : Indexed.t list }

(** [random ~rng inter] samples one execution by uniform choice among
    outgoing edges at each step. Deterministic given the generator. *)
val random : ?rng:Rng.t -> Interleave.t -> path

(** [project ~selected trace] keeps only messages whose base name is
    selected — the content the trace buffer records. *)
val project : selected:(string -> bool) -> Indexed.t list -> Indexed.t list

(** [enumerate inter] lists the traces of all executions, depth first.
    Exactly [limit] (default 100,000) executions are allowed: one more
    raises [Failure]. This is the brute-force seam [flowtrace check]'s
    verdicts are tested against. *)
val enumerate : ?limit:int -> Interleave.t -> Indexed.t list list

val trace_to_string : Indexed.t list -> string
