(** Request execution for the daemon: sharded multi-tenant session state,
    admission control, and per-request supervision.

    This layer is the whole daemon minus the sockets — {!handle} maps one
    request line to one response line — so tests and benchmarks drive it
    directly, and {!Server} only adds the event loop around it.

    Sessions are sharded by id hash; each shard is a mutex-guarded table,
    and {!handle} holds exactly one shard's lock for the duration of a
    session op, so sessions on different shards proceed concurrently and
    state never leaks across sessions. Admission is a global in-flight
    cap: past it, session ops get an honest ["busy"] response instead of
    queueing without bound. Each session op body runs under
    {!Flowtrace_runtime.Supervisor.run} (one task, bounded retries with
    {!Flowtrace_runtime.Backoff} delays), so an injected or transient
    fault is retried transparently and the response bytes are identical
    to an undisturbed run. *)

module Diagnostic = Flowtrace_analysis.Diagnostic
module Vfs = Flowtrace_runtime.Vfs

type t

(** [create ()] builds the dispatcher. [state_dir], when given, persists
    every open session through {!Store} (and [resume] reloads the
    sessions found there with [Store.load_all ~repair:true]: stale temp
    files swept, recovered files compacted, corrupt files quarantined —
    damage is contained per session, never daemon-wide; a state dir that
    cannot be listed is an RT011 diagnostic, and the daemon still
    starts). All store IO
    goes through [vfs] (default {!Vfs.passthrough}); tests pass a
    {!Vfs.Fault} filesystem to drive ENOSPC and power cuts through the
    whole dispatcher. A failed session save does not kill the request:
    the session opens in memory with a ["degraded"] response and the
    store is flagged unhealthy (see the [health] op) until a save
    succeeds again. [shards] (default 4) is the session-table shard
    count; [max_inflight] (default 64) the global admission cap;
    [retries] (default 2) the per-request supervision retry bound with
    [backoff_seed] (default 0) seeding the deterministic retry jitter.
    [chaos] (default false) honors per-request [chaos] fields — fault
    injection is opt-in at the daemon level, a client can never inject
    faults into a production daemon. *)
val create :
  ?state_dir:string ->
  ?vfs:Vfs.t ->
  ?shards:int ->
  ?max_inflight:int ->
  ?retries:int ->
  ?backoff_seed:int ->
  ?chaos:bool ->
  ?resume:bool ->
  unit ->
  t * Diagnostic.t list

(** [shard_of t id] — which shard a session id lives on (stable hash). *)
val shard_of : t -> string -> int

val n_shards : t -> int

(** Open session ids, sorted (locks every shard briefly). *)
val session_ids : t -> string list

(** [admit t] claims an in-flight slot; [false] means the cap is reached
    and the caller should answer ["busy"]. Pair with {!release}. *)
val admit : t -> bool

val release : t -> unit

(** [busy_response t ?id ~op ()] renders (and counts) the admission-reject
    response the server sends when {!admit} refused the slot. *)
val busy_response : t -> ?id:string -> op:string -> unit -> string

(** [handle t line] executes one request line and returns the response
    line plus [true] when the request was a [shutdown]. Never raises on
    request content: malformed lines, unknown ops and failed work all
    come back as per-request error responses.

    [admitted] (default false) tells {!handle} the caller already claimed
    the in-flight slot via {!admit} (the server admits at enqueue time so
    the queue itself is bounded); {!handle} always releases it. With
    [drop_deadline], a request that is already past the deadline when
    {!handle} runs is shed with ["busy"] before any work — the
    queued-too-long case. *)
val handle : ?drop_deadline:float -> ?admitted:bool -> t -> string -> string * bool
