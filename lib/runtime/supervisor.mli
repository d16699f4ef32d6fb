(** Task supervision: run a set of independent tasks across domains with
    bounded retry, isolating worker failures.

    A task that raises is retried (fresh, from scratch) up to [retries]
    more times; a task that keeps failing is recorded as [Gave_up] and the
    remaining tasks keep running — one poisoned subtree never loses its
    siblings' results. A cooperative stop (an exception recognized by
    [should_stop], e.g. {!Flowtrace_core.Budget.Expired}) is not a failure: the worker
    that sees it stops claiming, every other worker stops at its next
    claim, and unfinished tasks are left [Not_run].

    Callers must make task bodies transactional: publish a task's effects
    only after the body returns, so a failed attempt leaves no trace and a
    retried task is indistinguishable from a first-try success (this is
    what makes supervised results bit-identical to unsupervised runs).

    Outcomes are counted into the [runtime.task.ok], [runtime.task.retried]
    and [runtime.task.failed] telemetry counters. *)

type task_status =
  | Done
  | Gave_up of exn  (** failed on every attempt; the last exception *)
  | Not_run  (** not claimed, or abandoned by a cooperative stop *)

type summary = {
  statuses : task_status array;  (** aligned with the [tasks] argument *)
  retried : int;  (** total retry attempts performed *)
  stopped : bool;  (** a cooperative stop ended the run early *)
}

(** [run ~tasks f] executes [f id] for every [id] in [tasks] across
    [jobs] domains (default 1, i.e. in array order on the calling domain).
    [retries] (default 2) bounds extra attempts per task. [backoff]
    (default {!Backoff.none}, i.e. the historical immediate retry) delays
    each retry by the policy's bounded exponential with deterministic
    seeded jitter; the wait happens on the failing worker only, changes no
    result bits, and is accounted in [runtime.task.backoff_ns].
    [should_stop] classifies cooperative-stop exceptions (default: none).
    [inject] is a test hook called before each attempt with the task id
    and 1-based attempt number; anything it raises counts as that
    attempt's failure — this is how the fault-recovery tests exercise the
    retry machinery deterministically. *)
val run :
  ?jobs:int ->
  ?retries:int ->
  ?backoff:Backoff.t ->
  ?should_stop:(exn -> bool) ->
  ?inject:(task:int -> attempt:int -> unit) ->
  tasks:int array ->
  (int -> unit) ->
  summary
