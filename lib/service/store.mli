(** Session persistence for the daemon, over {!Flowtrace_runtime.Journal.Log}.

    Each open session lives in its own [session-<id>.ckpt] file inside the
    daemon's state directory — one crash-safe, CRC-sealed record log of
    kind ["session"]. Files are written whole and renamed into place, so a
    [kill -9] at any byte leaves either the previous complete file or the
    new one; a daemon restarted with [--resume] reopens every persisted
    session and answers requests with the same bytes as an uninterrupted
    daemon would have.

    The spec text is stored as the {e last} record of the file (newlines
    escaped), so external tail damage — the one shape torn writes take —
    loses the spec record first: {!load} then reports the file as damaged
    and the session is dropped cleanly instead of resurrected half-built.

    {!check} is the one walk over a state directory: daemon resume
    ({!load_all}) and [flowtrace fsck] ({!Fsck}) both run it, so they
    cannot disagree about a file. *)

open Flowtrace_core
module Diagnostic = Flowtrace_analysis.Diagnostic
module Vfs = Flowtrace_runtime.Vfs

(** One persisted session. [se_spec] is the flow-spec text exactly as the
    [open-session] request carried it; everything a request needs is
    rebuilt from these fields on resume, which is what makes post-resume
    answers bit-identical. *)
type session = {
  se_id : string;
  se_tenant : string;
  se_width : int;
  se_strategy : Select.strategy;
  se_instances : (string * int) list;
  se_spec : string;
}

(** [file_of ~dir id] is the session's journal path,
    [dir ^ "/session-" ^ id ^ ".ckpt"] (ids are path-safe by
    {!Proto.valid_session_id}). *)
val file_of : dir:string -> string -> string

(** [save ~dir session] atomically persists the session
    (temp-write/fsync/rename via {!Vfs.atomic_replace}). Raises
    {!Vfs.Io_error} on I/O failure — [e_enospc] distinguishes a full
    disk so the daemon can shed to degraded instead of dying. All IO
    goes through [vfs] (default {!Vfs.passthrough}). *)
val save : ?vfs:Vfs.t -> dir:string -> session -> unit

(** [remove ~dir id] deletes the session file if present. *)
val remove : ?vfs:Vfs.t -> dir:string -> string -> unit

(** [load path] reads one session file. [Ok None] means the file was
    damaged in a recoverable way that lost the session body (truncated
    tail) — the session is dropped with the returned warnings. [Error]
    carries hard diagnostics (mid-file corruption, foreign file). *)
val load :
  ?vfs:Vfs.t ->
  string ->
  (session option * Diagnostic.t list, Diagnostic.t list) result

val quarantine_suffix : string

(** [quarantine ~reason path] renames a damaged session file to
    [path ^ ".quarantine"] so it stops poisoning every resume, and
    returns the RT008 warning describing what happened. Never raises:
    a failed rename is reported inside the diagnostic. *)
val quarantine : ?vfs:Vfs.t -> reason:string -> string -> Diagnostic.t

(** How {!check} found one [session-*.ckpt] file. *)
type state =
  | Intact  (** sealed file, loads clean *)
  | Recovered
      (** damaged tail but the session body is whole; compaction rewrites
          it sealed *)
  | Corrupt  (** the session cannot be (fully) read; quarantine target *)

type entry = {
  f_file : string;  (** basename *)
  f_state : state;
  f_session : session option;  (** the session when its body was readable *)
  f_diags : Diagnostic.t list;
}

type report = {
  r_dir : string;
  r_entries : entry list;  (** sorted by file name *)
  r_stale_tmp : string list;  (** found (scan) or swept (repair) *)
  r_quarantined : string list;  (** pre-existing [*.quarantine] files *)
  r_repaired : bool;  (** this report came from [~repair:true] *)
  r_diags : Diagnostic.t list;
      (** RT009 for stale temp files, then each entry's diagnostics in
          file order; RT011 alone when [dir] cannot be listed *)
}

(** [check ~repair dir] is the one walk over a state directory: it
    classifies every [session-*.ckpt] under [dir] in sorted file order
    and reports stale [*.tmp] files (RT009). An unreadable or missing
    directory yields no entries and an RT011 error.

    With [~repair:true] the store is also healed: stale temp files are
    swept (counted in the [runtime.vfs.stale_tmp] telemetry counter),
    recovered sessions are compacted back to sealed files (RT010, or
    RT001 when the rewrite fails), and corrupt files are quarantined
    (RT008) instead of left to fail again — damage is contained per
    session, never daemon-wide. Without it nothing on disk changes. *)
val check : ?vfs:Vfs.t -> repair:bool -> string -> report

(** [load_all dir] is {!check}'s sessions and diagnostics; [repair]
    defaults to [false]. The daemon's [--resume] runs it with
    [~repair:true]. *)
val load_all :
  ?vfs:Vfs.t -> ?repair:bool -> string -> session list * Diagnostic.t list
