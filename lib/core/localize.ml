(* Path localization (Section 5.2): given the trace observed through the
   selected messages, how many executions of the interleaved flow remain
   consistent with it?

   A path is consistent with observation [o] when the projection of its
   message sequence onto the selected base messages equals [o] (exact
   semantics) or has [o] as a prefix (prefix semantics, for mid-execution
   localization as in the paper's Figure 2 narrative). Counting is a DP
   over (product state, observation position); the interleaved flow is a
   DAG so memoization terminates. *)

type semantics = Exact | Prefix | Suffix

(* Projection onto the selected base messages — the observation an ideal
   (lossless) trace buffer holding [selected] would record for a path. *)
let project ~selected trace = List.filter (fun m -> selected m.Indexed.base) trace

(* Forward DP for Exact/Prefix: f(state, pos) counts path suffixes from
   [state] to a stop whose projection consumes obs[pos..] (Exact) or at
   least reaches its end (Prefix). *)
let forward_count ~semantics inter ~selected ~obs =
  let len = Array.length obs in
  let memo : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rec count s pos =
    match Hashtbl.find_opt memo (s, pos) with
    | Some v -> v
    | None ->
        let v =
          if Interleave.is_stop inter s then if pos = len then 1 else 0
          else
            Interleave.fold_out inter s
              (fun acc l dst ->
                let msg = Interleave.label inter l in
                let base = msg.Indexed.base in
                if selected base then
                  if pos < len then
                    if Indexed.equal msg obs.(pos) then Dag.sat_add acc (count dst (pos + 1))
                    else acc
                  else
                    match semantics with
                    | Exact -> acc
                    | Prefix | Suffix ->
                        (* observation exhausted: any continuation matches *)
                        Dag.sat_add acc (count dst pos)
                else Dag.sat_add acc (count dst pos))
              0
        in
        Hashtbl.replace memo (s, pos) v;
        v
  in
  List.fold_left (fun acc s0 -> Dag.sat_add acc (count s0 0)) 0 (Interleave.initials inter)

(* Backward DP for Suffix — the wrapped-trace-buffer case, where only the
   LAST entries survive: g(state, pos) counts path prefixes from an
   initial state to [state] whose projection still has obs[0..pos) left to
   have produced, i.e. walking edges backward consumes the observation
   from its end. *)
let backward_count inter ~selected ~obs =
  let len = Array.length obs in
  let memo : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let is_initial =
    let set = Hashtbl.create 4 in
    List.iter (fun s -> Hashtbl.replace set s ()) (Interleave.initials inter);
    fun s -> Hashtbl.mem set s
  in
  (* pos = number of trailing observation entries already matched *)
  let rec count s pos =
    match Hashtbl.find_opt memo (s, pos) with
    | Some v -> v
    | None ->
        let v =
          let here = if is_initial s && pos = len then 1 else 0 in
          Interleave.fold_in inter s
            (fun acc l src ->
              let msg = Interleave.label inter l in
              let base = msg.Indexed.base in
              if selected base then
                if pos < len then
                  if Indexed.equal msg obs.(len - 1 - pos) then
                    Dag.sat_add acc (count src (pos + 1))
                  else acc
                else (* everything matched; earlier selected messages were
                        overwritten by wrap-around *)
                  Dag.sat_add acc (count src pos)
              else Dag.sat_add acc (count src pos))
            here
        in
        Hashtbl.replace memo (s, pos) v;
        v
  in
  List.fold_left (fun acc s -> Dag.sat_add acc (count s 0)) 0 (Interleave.stops inter)

(* ------------------------------------------------------------------ *)
(* Gap-tolerant localization: the observation may have lost entries
   (dropped packets, blackout windows, truncation), so it is matched as
   a SUBSEQUENCE of each path's projection. Every selected emission that
   is not matched by the current observation entry costs one unit of a
   bounded skip budget.

   Matching is forced-greedy: when the next emission equals the next
   observation entry the match is taken, never skipped. For losses that
   only DELETE observation entries this is complete (the standard
   exchange argument for leftmost subsequence embedding), and because
   the alignment of a given path is deterministic each path is counted
   exactly once — the lossy count can never exceed the path total.

   Greedy matching cannot recover from a BOGUS observation entry (one
   the path never emits, e.g. reordered across a large distance): such
   an entry stalls every path at the same observation position. That
   case is handled outside the DP by [lossy]'s resynchronization loop,
   which discards the blocking entry — charged against the same budget
   — and retries. Keeping discard out of the DP preserves both
   single-counting and the budget-0 equivalence with Exact/Prefix. *)

type lossy_report = {
  lr_consistent : int;
  lr_total : int;
  lr_discarded : int;
  lr_skips : int;
  lr_budget : int;
  lr_confidence : float;
}

(* f(state, pos, k): suffix count with k skip units already spent.
   With budget = 0 this is exactly [forward_count]. *)
let subseq_count ~semantics inter ~selected ~obs ~budget =
  let len = Array.length obs in
  let memo : (int * int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rec count s pos k =
    match Hashtbl.find_opt memo (s, pos, k) with
    | Some v -> v
    | None ->
        let v =
          if Interleave.is_stop inter s then if pos = len then 1 else 0
          else
            Interleave.fold_out inter s
              (fun acc l dst ->
                let msg = Interleave.label inter l in
                let base = msg.Indexed.base in
                if selected base then
                  if pos < len then
                    if Indexed.equal msg obs.(pos) then
                      Dag.sat_add acc (count dst (pos + 1) k)
                    else if k < budget then Dag.sat_add acc (count dst pos (k + 1))
                    else acc
                  else
                    match semantics with
                    | Prefix | Suffix ->
                        (* observation exhausted: any continuation matches *)
                        Dag.sat_add acc (count dst pos k)
                    | Exact ->
                        (* trailing selected emissions were lost too *)
                        if k < budget then Dag.sat_add acc (count dst pos (k + 1)) else acc
                else Dag.sat_add acc (count dst pos k))
              0
        in
        Hashtbl.replace memo (s, pos, k) v;
        v
  in
  List.fold_left (fun acc s0 -> Dag.sat_add acc (count s0 0 0)) 0 (Interleave.initials inter)

(* Deepest observation position any partial path reaches within the
   budget — where matching stalls when the count is zero. *)
let deepest_obs_pos inter ~selected ~obs ~budget =
  let len = Array.length obs in
  let visited : (int * int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let deepest = ref 0 in
  let rec go s pos k =
    if not (Hashtbl.mem visited (s, pos, k)) then begin
      Hashtbl.replace visited (s, pos, k) ();
      if pos > !deepest then deepest := pos;
      if not (Interleave.is_stop inter s) then
        Interleave.iter_out inter s (fun l dst ->
            let msg = Interleave.label inter l in
            let base = msg.Indexed.base in
            if selected base then begin
              if pos < len && Indexed.equal msg obs.(pos) then go dst (pos + 1) k
              else if k < budget then go dst pos (k + 1)
            end
            else go dst pos k)
    end
  in
  List.iter (fun s0 -> go s0 0 0) (Interleave.initials inter);
  !deepest

let lossy ?(semantics = Exact) ?(skip_budget = 0) inter ~selected ~observed =
  (match semantics with
  | Suffix -> invalid_arg "Localize.lossy: Suffix semantics is not supported"
  | Exact | Prefix -> ());
  if skip_budget < 0 then invalid_arg "Localize.lossy: negative skip budget";
  let total = Interleave.total_paths inter in
  let obs = ref (Array.of_list observed) in
  let discarded = ref 0 in
  let budget_left () = skip_budget - !discarded in
  let count_with budget = subseq_count ~semantics inter ~selected ~obs:!obs ~budget in
  (* Minimal-discard resynchronization: while no path embeds the
     surviving observation and budget remains, drop the entry where
     matching stalls and retry with the budget that is left. *)
  let rec resync () =
    let c = count_with (budget_left ()) in
    if c > 0 || !discarded >= skip_budget || Array.length !obs = 0 then c
    else begin
      let stall = deepest_obs_pos inter ~selected ~obs:!obs ~budget:(budget_left ()) in
      let n = Array.length !obs in
      let i = min stall (n - 1) in
      obs := Array.append (Array.sub !obs 0 i) (Array.sub !obs (i + 1) (n - i - 1));
      incr discarded;
      resync ()
    end
  in
  let consistent = resync () in
  (* Minimal skips some consistent path actually needs: smallest budget
     with a non-zero count. Budgets are small; a linear scan is cheap. *)
  let skips =
    if consistent = 0 then budget_left ()
    else
      let rec find k = if count_with k > 0 then k else find (k + 1) in
      find 0
  in
  let confidence =
    if consistent = 0 then 0.0
    else if skip_budget = 0 then 1.0
    else
      float_of_int (skip_budget - (!discarded + skips)) /. float_of_int skip_budget
  in
  {
    lr_consistent = consistent;
    lr_total = total;
    lr_discarded = !discarded;
    lr_skips = skips;
    lr_budget = skip_budget;
    lr_confidence = confidence;
  }

let lossy_fraction r =
  if r.lr_total = 0 then 0.0 else float_of_int r.lr_consistent /. float_of_int r.lr_total

let consistent_paths ?(semantics = Exact) inter ~selected ~observed =
  let obs = Array.of_list observed in
  match semantics with
  | Exact | Prefix -> forward_count ~semantics inter ~selected ~obs
  | Suffix -> backward_count inter ~selected ~obs

let fraction ?semantics inter ~selected ~observed =
  let total = Interleave.total_paths inter in
  if total = 0 then 0.0
  else
    float_of_int (consistent_paths ?semantics inter ~selected ~observed)
    /. float_of_int total
