(* The full message-selection pipeline: Step 1 (enumeration), Step 2
   (mutual-information maximization), Step 3 (packing) — Section 3. *)

module Tel = Flowtrace_telemetry.Telemetry

(* Only partition-invariant quantities become counters, so the totals are
   bit-identical whatever ~jobs splits the subset tree into. *)
let c_runs = Tel.Counter.v "select.runs"
let c_streamed = Tel.Counter.v "select.candidates_streamed"
let c_scored = Tel.Counter.v "select.candidates_scored"
let c_pruned = Tel.Counter.v "select.candidates_pruned"
let c_greedy_rounds = Tel.Counter.v "select.greedy_rounds"
let c_degraded = Tel.Counter.v "select.degraded"

(* Delta re-selection counters: decomposition-invariant like the ones
   above (pruning decisions are task-local and the re-selection plan has
   a fixed depth), so the totals are identical at any job count. *)
let c_reselect_runs = Tel.Counter.v "select.reselect.runs"
let c_reselect_seeds = Tel.Counter.v "select.reselect.seeds"
let c_reselect_streamed = Tel.Counter.v "select.reselect.candidates_streamed"
let c_reselect_scored = Tel.Counter.v "select.reselect.candidates_scored"
let c_reselect_pruned = Tel.Counter.v "select.reselect.subtrees_pruned"

type strategy = Exact | Exact_maximal | Greedy

(* How complete the search behind a result was. [Exact] means the requested
   strategy ran to completion; the other tiers mean a budget (wall-clock
   deadline or candidate cap) expired and the result degraded to the best
   answer available at that point. *)
module Tier = struct
  type t =
    | Exact
    | Anytime of { explored : int; total : int }
    | Greedy_fallback

  let is_degraded = function Exact -> false | Anytime _ | Greedy_fallback -> true

  let to_string = function
    | Exact -> "exact"
    | Anytime { explored; total } ->
        Printf.sprintf "anytime (best of %d of %d candidates)" explored total
    | Greedy_fallback -> "greedy-fallback (budget expired before any candidate)"
end

type result = {
  messages : Message.t list;
  packed : Packing.packed list;
  gain : float;
  coverage : float;
  bits_used : int;
  buffer_width : int;
  tier : Tier.t;
}

let utilization r =
  if r.buffer_width = 0 then 0.0 else float_of_int r.bits_used /. float_of_int r.buffer_width

let selected_names r =
  List.map (fun m -> m.Message.name) r.messages @ List.map Packing.qualified r.packed

(* Base names whose transitions are observable given the selection; packed
   subgroups expose their parent's transitions (the field is a slice of the
   same interface register, so its occurrence is visible). *)
let observable_bases r =
  List.sort_uniq String.compare
    (List.map (fun m -> m.Message.name) r.messages
    @ List.map (fun p -> p.Packing.p_parent.Message.name) r.packed)

let is_observable r base = List.exists (String.equal base) (observable_bases r)

(* Deterministic comparison for Step-2 ties: higher gain first, then more
   bits (the paper's secondary objective is maximal buffer utilization),
   then lexicographically smaller name list. Gains compare exactly — an
   epsilon tolerance here would make the order non-transitive over chains
   of near-ties (a ~ b, b ~ c, a < c), and the bit-identity contract
   already guarantees that equal candidates produce equal floats on every
   path, so no tolerance is needed. *)
let better (gain_a, bits_a, names_a) (gain_b, bits_b, names_b) =
  if gain_a <> gain_b then gain_a > gain_b
  else if bits_a <> bits_b then bits_a > bits_b
  else names_a < names_b

let combo_key combo = List.sort String.compare (List.map (fun m -> m.Message.name) combo)

let step2 inter candidates =
  match candidates with
  | [] -> invalid_arg "Select.step2: no candidate combinations"
  | first :: rest ->
      let ev = Infogain.evaluator inter in
      let score combo = (Infogain.eval ev combo, Message.total_width combo, combo_key combo) in
      let best_combo, best_score =
        List.fold_left
          (fun (bc, bs) c ->
            let s = score c in
            if better s bs then (c, s) else (bc, bs))
          (first, score first) rest
      in
      let gain, _, _ = best_score in
      (best_combo, gain)

let greedy inter ~buffer_width =
  let ev = Infogain.evaluator inter in
  let pool = Interleave.messages inter in
  let rec go selected remaining pool =
    let candidates =
      List.filter (fun (m : Message.t) -> Message.trace_width m <= remaining) pool
    in
    match candidates with
    | [] -> List.rev selected
    | _ ->
        (* best marginal gain; ties to the narrower message, then name *)
        let best =
          List.fold_left
            (fun acc m ->
              let g = Infogain.eval_base ev m.Message.name in
              match acc with
              | None -> Some (m, g)
              | Some (m', g') ->
                  if
                    g -. g' > 1e-12
                    || (Float.abs (g -. g') <= 1e-12
                       && (Message.trace_width m < Message.trace_width m'
                          || (Message.trace_width m = Message.trace_width m'
                             && String.compare m.Message.name m'.Message.name < 0)))
                  then Some (m, g)
                  else acc)
            None candidates
        in
        (match best with
        | None -> List.rev selected
        | Some (m, _) ->
            Tel.Counter.incr c_greedy_rounds;
            go (m :: selected)
              (remaining - Message.trace_width m)
              (List.filter (fun m' -> not (Message.equal_name m m')) pool))
  in
  go [] buffer_width pool

let strategy_name = function
  | Exact -> "exact"
  | Exact_maximal -> "exact-maximal"
  | Greedy -> "greedy"

let no_fit () = invalid_arg "Select: no message fits the trace buffer"

let greedy_fallback inter ~buffer_width =
  let combo = greedy inter ~buffer_width in
  if combo = [] then no_fit ();
  Tel.Counter.incr c_degraded;
  (combo, Infogain.of_combination inter combo, Tier.Greedy_fallback)

(* Budgeted and seeded runs: the kernel's ticked walk. A deadline already
   past on entry walks nothing; otherwise the limit is settled upfront and
   an expired budget degrades to the best of the leaves visited. *)
let search ~maximal ~limit ~jobs ~deadline ~max_candidates ~seeds k inter ~buffer_width =
  let budget = Budget.make ?deadline ?max_candidates () in
  if Budget.already_expired budget then (greedy_fallback inter ~buffer_width, None)
  else begin
    let total = Kernel.admit k ~limit ~max_candidates ~buffer_width in
    let s = Kernel.search ~only_maximal:maximal ~jobs ~seeds ~budget k ~buffer_width in
    let answer =
      match s.Kernel.s_best with
      | Some c when s.Kernel.s_complete -> (Kernel.messages k c, c.Kernel.c_gain, Tier.Exact)
      | Some c ->
          Tel.Counter.incr c_degraded;
          ( Kernel.messages k c,
            c.Kernel.c_gain,
            Tier.Anytime { explored = s.Kernel.s_explored; total } )
      | None when s.Kernel.s_complete -> no_fit ()
      | None -> greedy_fallback inter ~buffer_width
    in
    (answer, Some s)
  end

let step1_step2 ?(strategy = Exact) ?(limit = Combination.default_limit) ?(jobs = 1) ?deadline
    ?max_candidates inter ~buffer_width =
  Tel.with_span "select.step1_2"
    ~args:(fun () ->
      Flowtrace_telemetry.Event.
        [ ("strategy", Str (strategy_name strategy)); ("jobs", Int jobs); ("width", Int buffer_width) ])
  @@ fun () ->
  match strategy with
  | Greedy ->
      let combo = greedy inter ~buffer_width in
      if combo = [] then no_fit ();
      let gain = Infogain.of_combination inter combo in
      (combo, gain, Tier.Exact, None)
  | Exact | Exact_maximal ->
      let maximal = strategy = Exact_maximal in
      let k = Kernel.make inter in
      if deadline = None && max_candidates = None then begin
        match Kernel.select_exact ~only_maximal:maximal ~limit ~jobs k ~buffer_width with
        | None -> no_fit ()
        | Some sel ->
            if Tel.enabled () then begin
              Tel.Counter.add c_streamed sel.Kernel.sel_streamed;
              Tel.Counter.add c_scored sel.Kernel.sel_scored;
              Tel.Counter.add c_pruned (sel.Kernel.sel_streamed - sel.Kernel.sel_scored)
            end;
            (sel.Kernel.sel_messages, sel.Kernel.sel_gain, Tier.Exact, Some k)
      end
      else
        let (combo, gain, tier), s =
          search ~maximal ~limit ~jobs ~deadline ~max_candidates ~seeds:[] k inter ~buffer_width
        in
        Option.iter (fun s -> Tel.Counter.add c_streamed s.Kernel.s_explored) s;
        (combo, gain, tier, Some k)

let finalize ?(pack = true) ?(scale_partial = false) ?(tier = Tier.Exact) ?kernel inter ~combo
    ~gain ~buffer_width =
  let bits = Message.total_width combo in
  let packed, gain, bits =
    if pack then
      Tel.with_span "select.pack" (fun () ->
          Packing.pack inter ~selected:combo ~gain ~bits_used:bits ~buffer_width ~scale_partial)
    else ([], gain, bits)
  in
  let observable =
    List.sort_uniq String.compare
      (List.map (fun (m : Message.t) -> m.Message.name) combo
      @ List.map (fun p -> p.Packing.p_parent.Message.name) packed)
  in
  let coverage =
    Tel.with_span "select.coverage" (fun () ->
        let selected base = List.exists (String.equal base) observable in
        (* with a kernel in hand, Definition 7 is a word-OR/popcount fold
           over precomputed state bitsets — same count, no edge rescan *)
        match kernel with
        | Some k -> Kernel.coverage k ~selected
        | None -> Coverage.compute inter ~selected)
  in
  { messages = combo; packed; gain; coverage; bits_used = bits; buffer_width; tier }

let select ?strategy ?limit ?jobs ?deadline ?max_candidates ?pack ?scale_partial inter
    ~buffer_width =
  Tel.Counter.incr c_runs;
  Tel.with_span "select"
    ~args:(fun () -> [ ("width", Flowtrace_telemetry.Event.Int buffer_width) ])
  @@ fun () ->
  let combo, gain, tier, kernel =
    step1_step2 ?strategy ?limit ?jobs ?deadline ?max_candidates inter ~buffer_width
  in
  finalize ?pack ?scale_partial ~tier ?kernel inter ~combo ~gain ~buffer_width

(* ------------------------------------------------------------------ *)
(* Delta re-selection: when a scenario changed slightly since a previous
   run, that run's journalled bests make strong incumbents — re-score
   them under the new terms and let the kernel's exact branch-and-bound
   skip every subtree they dominate. Bit-identical to a from-scratch
   {!select}; only the amount of re-scoring shrinks. *)

type reselect_stats = {
  rs_seeds : int;
  rs_streamed : int;
  rs_scored : int;
  rs_pruned_subtrees : int;
}

let reselect ?(strategy = Exact) ?(limit = Combination.default_limit) ?(jobs = 1) ?deadline
    ?max_candidates ?pack ?scale_partial ~seeds inter ~buffer_width =
  match strategy with
  | Greedy -> (select ~strategy ?pack ?scale_partial inter ~buffer_width, None)
  | Exact | Exact_maximal -> (
      Tel.Counter.incr c_reselect_runs;
      Tel.with_span "select.reselect"
        ~args:(fun () ->
          Flowtrace_telemetry.Event.
            [ ("jobs", Int jobs); ("width", Int buffer_width); ("seeds", Int (List.length seeds)) ])
      @@ fun () ->
      let k = Kernel.make inter in
      let (combo, gain, tier), s =
        search ~maximal:(strategy = Exact_maximal) ~limit ~jobs ~deadline ~max_candidates ~seeds
          k inter ~buffer_width
      in
      let result = finalize ?pack ?scale_partial ~tier ~kernel:k inter ~combo ~gain ~buffer_width in
      match s with
      | None -> (result, None)
      | Some s ->
          if Tel.enabled () then begin
            Tel.Counter.add c_reselect_seeds s.Kernel.s_seeds;
            Tel.Counter.add c_reselect_streamed s.Kernel.s_explored;
            Tel.Counter.add c_reselect_scored s.Kernel.s_scored;
            Tel.Counter.add c_reselect_pruned s.Kernel.s_pruned
          end;
          ( result,
            Some
              {
                rs_seeds = s.Kernel.s_seeds;
                rs_streamed = s.Kernel.s_explored;
                rs_scored = s.Kernel.s_scored;
                rs_pruned_subtrees = s.Kernel.s_pruned;
              } ))

let pp_result ppf r =
  let packed_names = List.map Packing.qualified r.packed in
  Format.fprintf ppf
    "@[<v>selected: %s@,packed: %s@,gain: %.4f  coverage: %.2f%%  utilization: %.2f%% (%d/%d bits)"
    (String.concat ", " (List.map (fun m -> m.Message.name) r.messages))
    (if packed_names = [] then "-" else String.concat ", " packed_names)
    r.gain (100.0 *. r.coverage) (100.0 *. utilization r) r.bits_used r.buffer_width;
  if Tier.is_degraded r.tier then Format.fprintf ppf "@,tier: %s" (Tier.to_string r.tier);
  Format.fprintf ppf "@]"

(* Per-message breakdown of the selection decision: each pool message's
   own information term, per-cycle bit cost and gain density — the
   "why was this traced?" report. *)
type contribution = {
  co_message : Message.t;
  co_gain : float;
  co_bits : int;
  co_density : float;  (* gain per trace-buffer bit *)
  co_selected : bool;
  co_packed : bool;  (* observed only through packed subgroups *)
}

let explain inter r =
  let ev = Infogain.evaluator inter in
  let fully m = List.exists (Message.equal_name m) r.messages in
  let packed_parent (m : Message.t) =
    List.exists (fun p -> String.equal p.Packing.p_parent.Message.name m.Message.name) r.packed
  in
  let contributions =
    List.map
      (fun (m : Message.t) ->
        let g = Infogain.eval_base ev m.Message.name in
        let bits = Message.trace_width m in
        {
          co_message = m;
          co_gain = g;
          co_bits = bits;
          co_density = g /. float_of_int bits;
          co_selected = fully m;
          co_packed = (not (fully m)) && packed_parent m;
        })
      (Interleave.messages inter)
  in
  List.sort (fun a b -> compare b.co_gain a.co_gain) contributions

let pp_contribution ppf c =
  Format.fprintf ppf "%-16s gain %.4f  bits %2d  density %.4f  %s" c.co_message.Message.name
    c.co_gain c.co_bits c.co_density
    (if c.co_selected then "SELECTED" else if c.co_packed then "packed" else "-")
