(** Cooperative run budgets: wall-clock deadline and candidate cap.

    One budget is shared by every worker domain of a run; the candidate
    counter is atomic, so the [max_candidates] cap is enforced globally,
    and expiry is sticky — once any worker trips a budget, every
    subsequent {!tick} on any domain raises, so all workers stop at their
    next candidate. The deadline is only consulted every [stride]
    candidates (default {!default_stride}); the hot path costs one atomic
    increment and a couple of compares. A smaller stride tightens the
    worst-case overrun — expiry is always detected within one stride of
    ticks past the deadline — at the price of more clock reads; the
    service layer uses a small stride so per-request deadlines are honored
    promptly.

    The enumeration limit is not a budget: {!Kernel.admit} settles
    [Combination.Too_many] from the exact candidate count before any walk
    starts. *)

(** Raised by {!tick} when a budget has expired. Not an error: the walks
    catch it and degrade to an anytime result. *)
exception Expired

type t

(** How many {!tick}s may pass between deadline checks by default. *)
val default_stride : int

(** [make ()] builds a budget ([make ()] alone never expires). [deadline]
    is an absolute [Unix.gettimeofday] time; [max_candidates] caps
    candidates explored by this run. [stride] (default {!default_stride})
    is the tick interval between wall-clock deadline checks; raises
    [Invalid_argument] when it is less than 1. *)
val make : ?deadline:float -> ?max_candidates:int -> ?stride:int -> unit -> t

(** [tick b] counts one candidate. Raises {!Expired} on budget expiry
    (sticky). *)
val tick : t -> unit

(** Candidates counted so far (including retried tasks' re-walks), capped
    at [max_candidates]. *)
val explored : t -> int

(** Whether some budget has expired. *)
val expired : t -> bool

(** [already_expired b] — true when the deadline lies in the past right
    now (checked eagerly, before any walking starts). *)
val already_expired : t -> bool
