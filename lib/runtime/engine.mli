(** The supervised anytime selection engine.

    Supervision around the selection kernel's task walk
    ([Kernel.walk_task], the one walk every exact [Select.select] runs):
    worker-domain faults are retried and contained ({!Supervisor}),
    progress can be checkpointed to a crash-safe journal and resumed
    after a kill ({!Journal}), and the kernel's [Budget] ticks degrade the
    answer instead of losing it. The enumeration limit is decided once,
    by [Kernel.admit], before any task runs.

    Determinism contract: a run that completes every task — whatever the
    job count, however many times tasks were retried, and across any
    kill/resume split — returns a result bit-identical to
    [Select.select]'s, and hence to the brute-force list path, because
    task bodies are transactional, the best candidate is unique under
    [Kernel.better], and the journal stores the best's gain as IEEE-754
    bits which resumption re-derives with the kernel's ascending-slot sum
    and verifies. Degraded (anytime) results are explicitly
    schedule-dependent and say so in their tier. *)

open Flowtrace_core

type status =
  | Complete  (** every task ran to completion; the result is exact *)
  | Partial
      (** some tasks failed permanently or a budget expired; the result
          is the best over the completed portion *)

type outcome = {
  o_result : Select.result;
  o_status : status;
  o_total_tasks : int;
  o_done_tasks : int;  (** completed tasks, including resumed ones *)
  o_resumed_tasks : int;  (** tasks skipped because the journal had them *)
  o_failed_tasks : int list;  (** task ids that exhausted their retries *)
  o_retries : int;  (** retry attempts performed this run *)
  o_diags : Flowtrace_analysis.Diagnostic.t list;
      (** non-fatal findings: recovered journal tails (RT006), disabled
          checkpointing after a write failure *)
}

(** Fraction of plan tasks whose subtrees were fully searched (1.0 when
    the plan is empty). *)
val completeness : outcome -> float

(** One-line supervision summary (tasks, retries, failures, resume), for
    the CLI to print alongside [Select.pp_result]. *)
val pp_outcome : Format.formatter -> outcome -> unit

(** [select inter ~buffer_width] runs the supervised engine.

    - [strategy] (default [Exact]), [limit], [pack], [scale_partial] mean
      what they mean in {!Flowtrace_core.Select.select}; [Greedy] is
      delegated to it directly (nothing to supervise).
    - [jobs] (default 1) worker domains; [retries] (default 2) extra
      attempts per faulting task; [backoff] (default {!Backoff.none})
      delays retries without changing any result bit.
    - [deadline] (absolute [Unix.gettimeofday] time) and [max_candidates]
      degrade the run to an anytime result when exhausted: the best over
      the completed tasks and the best-so-far of the tasks the expiry
      stopped (those are neither marked done nor journalled), or the
      greedy baseline when nothing was scored.
    - [checkpoint] journals progress to the given path every
      [checkpoint_every] (default 1) completed tasks and once at the end.
    - [resume] loads [checkpoint] first (a missing file starts fresh) and
      skips the tasks it records. A journal from a different spec, width,
      strategy or plan shape is rejected with RT004; corrupt journals
      report the RT codes of {!Journal.load}.
    - [inject] is the deterministic fault hook forwarded to
      {!Supervisor.run} (test use only).

    Returns [Error diags] only for journal problems; selection failures
    ([Combination.Too_many], nothing fits) raise as they do in core. *)
val select :
  ?strategy:Select.strategy ->
  ?limit:int ->
  ?jobs:int ->
  ?retries:int ->
  ?backoff:Backoff.t ->
  ?deadline:float ->
  ?max_candidates:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?checkpoint_every:int ->
  ?pack:bool ->
  ?scale_partial:bool ->
  ?inject:(task:int -> attempt:int -> unit) ->
  Interleave.t ->
  buffer_width:int ->
  (outcome, Flowtrace_analysis.Diagnostic.t list) result
