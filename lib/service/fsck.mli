(** Offline integrity checking and repair for a daemon state directory —
    the engine behind [flowtrace fsck].

    {!scan} and {!repair} run {!Store.check}, the same walk the daemon's
    [--resume] runs, read-only or healing; this module only renders its
    report. So an offline [fsck --repair] and a daemon restart leave the
    same store behind: stale [*.tmp] files swept, recovered sessions
    compacted, corrupt files quarantined as [*.quarantine]. Nothing is
    ever deleted that could still carry evidence — quarantine is a
    rename, not an unlink.

    Diagnostics use the RT namespace ({!Flowtrace_analysis.Rt}) and
    {!exit_code} follows the shared convention: [1] when hard damage is
    present (or repair itself failed), [3] when the store needed
    recovery or repair, [0] when it is clean. *)

module Diagnostic = Flowtrace_analysis.Diagnostic
module Json = Flowtrace_analysis.Json
module Vfs = Flowtrace_runtime.Vfs

type state = Store.state = Intact | Recovered | Corrupt

type entry = Store.entry = {
  f_file : string;
  f_state : state;
  f_session : Store.session option;
  f_diags : Diagnostic.t list;
}

type report = Store.report = {
  r_dir : string;
  r_entries : entry list;
  r_stale_tmp : string list;
  r_quarantined : string list;
  r_repaired : bool;
  r_diags : Diagnostic.t list;
}

(** Read-only classification of [dir]: [Store.check ~repair:false]. An
    unreadable directory yields a report whose diagnostics carry
    RT011. *)
val scan : ?vfs:Vfs.t -> string -> report

(** [Store.check ~repair:true]: sweep stale temp files (RT009), compact
    recovered sessions (RT010), quarantine corrupt files (RT008). After a
    successful repair a following {!scan} is clean. *)
val repair : ?vfs:Vfs.t -> string -> report

val state_name : state -> string

(** [1] if the report carries error-severity diagnostics, [3] if any
    file was not intact (damage found, recovered or repaired), else
    [0]. *)
val exit_code : report -> int

(** Human report: one summary line, then the sorted diagnostics. *)
val render : report -> string

val to_json : report -> Json.t
