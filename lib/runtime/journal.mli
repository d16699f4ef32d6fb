(** Crash-safe, CRC-sealed record files: one framing, two codecs.

    {b The framing.} Every file is a header line, one line per record,
    and an [end] seal:

    {v
    <magic> v<version> <header fields>
    <crc32> <payload>            (one line per record)
    <crc32> end <record count> <crc32 of everything above>
    v}

    Each record line carries the CRC-32 of its payload (8 hex digits).
    Files are rendered whole and written with {!Vfs.atomic_replace}, so
    a [kill -9] at any byte leaves either the previous complete file or
    the new one. One reader maps damage onto the RT codes of
    {!Flowtrace_analysis.Rt}: unreadable file → RT001, foreign or bad
    header → RT002, other version → RT003, a corrupt record mid-file →
    RT005 (hard error), a failed [end] seal or content after it → RT007.
    A {e missing or damaged tail} (the one shape external truncation
    usually takes) recovers the valid record prefix with an RT006
    warning. A codec only says how to parse its header fields and one
    payload.

    {b Codec 1: the checkpoint snapshot} ({!write}, {!load}) of a
    supervised selection run: which plan tasks have completed, the
    running best candidate (sorted message names plus the IEEE-754 bits
    of its gain, so resumption can verify a bit-exact re-score) and the
    cumulative explored-candidate count.

    {v
    flowtrace-journal v1 fp=<16 hex> tasks=<n>
    <crc32> x <explored>
    <crc32> d <task id>          (one line per completed task)
    <crc32> t <task id> <gain hex> <bits> <name,name,...>
                                 (per-task best, one per completed task
                                  whose subtree held any candidate)
    <crc32> b <gain hex> <bits> <name,name,...>
    <crc32> end <record count> <file crc32>
    v}

    The [t] records are the substrate of delta re-selection
    ([flowtrace select --delta-from]): together with the global best they
    seed {!Flowtrace_core.Select.reselect}'s branch-and-bound incumbent
    when the same journal is replayed against a modified scenario.
    Resuming from a recovered prefix merely re-runs the tasks whose
    completion records were lost.

    {b Codec 2: the record log} ({!Log}): opaque newline-free payloads
    under a [kind]-tagged header, [flowtrace-log v1 kind=<kind>], one
    [r <payload>] record each. The service layer stores every debug
    session through it. *)

(** The persisted best candidate. [b_gain] is [Int64.bits_of_float] of the
    incremental gain, compared bit-for-bit after re-scoring on resume. *)
type best = { b_names : string list; b_gain : int64; b_bits : int }

type snapshot = {
  s_fingerprint : string;  (** {!Fingerprint.v} of the run configuration *)
  s_total_tasks : int;
  s_done : bool array;  (** length [s_total_tasks] *)
  s_best : best option;
  s_task_bests : (int * best) list;
      (** per-task bests for completed tasks, ascending task id; a
          completed task with no entry had no candidate in its subtree *)
  s_explored : int;  (** cumulative candidates explored across runs *)
}

val version : int

(** [write ~path snap] atomically replaces [path] with the snapshot via
    {!Vfs.atomic_replace} (write to [path ^ ".tmp"], fsync, then
    rename). [vfs] defaults to {!Vfs.passthrough}. Raises
    {!Vfs.Io_error} on I/O failure and [Invalid_argument] if a message
    name cannot be stored verbatim (contains a comma, whitespace or
    newline). *)
val write : ?vfs:Vfs.t -> path:string -> snapshot -> unit

(** [load path] parses a journal. [Ok (snap, warnings)] carries RT006
    warnings when a truncated tail was recovered; [Error diags] carries
    the positioned hard errors above. Fingerprint/task-count compatibility
    with the resuming run is the caller's check (RT004) — the journal
    itself cannot know the run it is being resumed into. *)
val load :
  ?vfs:Vfs.t ->
  string ->
  ( snapshot * Flowtrace_analysis.Diagnostic.t list,
    Flowtrace_analysis.Diagnostic.t list )
  result

(** The record log codec: the caller's strings as records. *)
module Log : sig
  (** [write ~path ~kind records] atomically replaces [path]. Raises
      [Invalid_argument] if [kind] contains whitespace or a record
      contains a newline; {!Vfs.Io_error} on I/O failure. *)
  val write : ?vfs:Vfs.t -> path:string -> kind:string -> string list -> unit

  (** [load ~kind path] returns the records with RT006 warnings when a
      truncated tail was recovered. A readable journal of a different
      [kind] is rejected with RT002 — a session file is never confused
      with a selection checkpoint. *)
  val load :
    ?vfs:Vfs.t ->
    kind:string ->
    string ->
    ( string list * Flowtrace_analysis.Diagnostic.t list,
      Flowtrace_analysis.Diagnostic.t list )
    result
end
