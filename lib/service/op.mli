(** The request semantics shared by the [flowtrace] CLI and the daemon's
    {!Dispatch}: both render the same typed results, as text or as JSON
    fields. Inputs are checked before any work, so both front ends reject
    the same bad inputs with the same message. *)

open Flowtrace_core

(** A flow spec: a [.flow] file, or spec text carried by a request. Parse
    errors read ["path:line: msg"] for a file, ["spec line N: msg"] for
    text. *)
type source = File of string | Text of string

val load_flows : source -> (Flow.t list, string) result

(** [scenario source counts] interleaves the instances [counts] names
    ({!Interleave.instances}) and counts them. *)
val scenario : source -> (string * int) list -> (Interleave.t * int, string) result

(** Why a selection request failed: [Invalid] inputs were rejected before
    any work (width, skip budget, trace token); [Failed] carries the
    selection's [Invalid_argument]; [Too_many] is Step-1 enumeration past
    the candidate-combination [limit]. *)
type error = Invalid of string | Failed of string | Too_many of { limit : int; width : int }

(** The bare error text. The CLI prefixes [Failed] and [Too_many] with the
    spec path and adds a [--strategy greedy] hint to [Too_many]. *)
val message : error -> string

(** [guard ~buffer_width f] checks the width, then runs the selection [f]
    ({!Select.select}, {!Select.reselect}, a supervised run) with its
    failures mapped to {!error}. *)
val guard : buffer_width:int -> (unit -> 'a) -> ('a, error) result

(** An observed trace: ["IDX:NAME"] tokens (empty ones skipped), or
    recorded packets, which are projected onto the selection. *)
type observation = Tokens of string list | Packets of Indexed.t list

(** [total] is {!Interleave.total_paths}; [fraction] is
    [consistent / total], or the lossy report's own. *)
type localized = {
  selection : Select.result;
  consistent : int;
  total : int;
  fraction : float;
  lossy : Localize.lossy_report option;
}

(** [localize inter ~buffer_width ~lossy ~skip_budget observation] checks
    the width, the skip budget and the tokens, in that order, then selects
    and counts the executions prefix-consistent with the observation —
    as a subsequence within [skip_budget] skips when [lossy]. [kernel] is
    a kernel prebuilt from [inter] for the selection ({!Select.select});
    a foreign one is a [Failed] error. *)
val localize :
  ?strategy:Select.strategy ->
  ?kernel:Kernel.t ->
  Interleave.t ->
  buffer_width:int ->
  lossy:bool ->
  skip_budget:int ->
  observation ->
  (localized, error) result

(** [mine ~file traces] mines with the given thresholds over
    [Miner.default_config]; [Error] is the miner's rejection of them. *)
val mine :
  ?support:float ->
  ?min_count:int ->
  ?default_width:int ->
  ?catalog:Message.t list ->
  file:string ->
  Flowtrace_soc.Packet.t list list ->
  (Flowtrace_mining.Miner.result, string) result

(** The exit code of a mining report: errors (1) win over degradation
    (3, [MN090]). The daemon's mine status is {!Proto.status_of_exit} of it. *)
val mine_exit_code : Flowtrace_analysis.Diagnostic.t list -> int
