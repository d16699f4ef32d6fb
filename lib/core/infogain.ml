(* Mutual information gain of a candidate message combination over an
   interleaved flow (Section 3.2).

   X ranges uniformly over the product states, p(x) = 1/|S|. For each
   indexed message y: p(y) = occ(y) / Σ_all occ, where occurrences count
   edges of the interleaved DAG; p(x|y) is the fraction of y-labeled edges
   entering x. The sum uses the natural logarithm — the paper's worked
   example I(X;Y1) = (12/18)·ln 5 = 1.073 pins the base. *)

module Tel = Flowtrace_telemetry.Telemetry

let c_evaluator_builds = Tel.Counter.v "infogain.evaluator_builds"
let c_eval_weighted = Tel.Counter.v "infogain.eval_weighted_calls"
let h_combo_len = Tel.Histogram.v "infogain.eval_combo_len"

type stats = {
  total_occurrences : int;
  occurrences : (Indexed.t * int) list;  (* first-encounter (edge) order *)
  targets : (Indexed.t, (int * int) list) Hashtbl.t;  (* y -> (state, count) list *)
}

(* One pass over the edge list, on densely interned message ids: each edge
   costs one hashtable probe (interning its indexed message) plus two
   int-keyed counter bumps — the per-message target histograms live
   behind flat int keys ([id * n_states + dst]), so the hot path never
   hashes a message record twice or walks nested tables. Occurrence and
   per-message target orders are the first-encounter (edge) order, which
   pins the float association of every sum built on them to the edge
   list — deterministic, and independent of hashtable internals. *)
let stats inter =
  let n_states = Interleave.n_states inter in
  let ids : (Indexed.t, int) Hashtbl.t = Hashtbl.create 64 in
  let rev_msgs = ref [] in
  let n_msgs = ref 0 in
  let occ = ref (Array.make 16 0) in
  (* per id, first-seen target states, reversed *)
  let rev_tgts = ref (Array.make 16 []) in
  let pair_cnt : (int, int ref) Hashtbl.t = Hashtbl.create 256 in
  let total = ref 0 in
  List.iter
    (fun (e : Interleave.edge) ->
      incr total;
      let id =
        match Hashtbl.find_opt ids e.Interleave.e_msg with
        | Some id -> id
        | None ->
            let id = !n_msgs in
            Hashtbl.replace ids e.Interleave.e_msg id;
            rev_msgs := e.Interleave.e_msg :: !rev_msgs;
            incr n_msgs;
            if id >= Array.length !occ then begin
              let grow a z =
                let b = Array.make (2 * Array.length a) z in
                Array.blit a 0 b 0 (Array.length a);
                b
              in
              occ := grow !occ 0;
              rev_tgts := grow !rev_tgts []
            end;
            id
      in
      !occ.(id) <- !occ.(id) + 1;
      let key = (id * n_states) + e.Interleave.e_dst in
      match Hashtbl.find_opt pair_cnt key with
      | Some r -> incr r
      | None ->
          Hashtbl.replace pair_cnt key (ref 1);
          !rev_tgts.(id) <- e.Interleave.e_dst :: !rev_tgts.(id))
    (Interleave.edges inter);
  let occ = !occ and rev_tgts = !rev_tgts in
  let msgs = List.rev !rev_msgs in
  let occurrences = List.mapi (fun id y -> (y, occ.(id))) msgs in
  let targets = Hashtbl.create 64 in
  List.iteri
    (fun id y ->
      let ts =
        List.fold_left
          (fun acc x -> (x, !(Hashtbl.find pair_cnt ((id * n_states) + x))) :: acc)
          [] rev_tgts.(id)
      in
      Hashtbl.replace targets y ts)
    msgs;
  { total_occurrences = !total; occurrences; targets }

let targets_of st y = match Hashtbl.find_opt st.targets y with Some ts -> ts | None -> []

(* Contribution of a single indexed message y: p(y) · KL(p(·|y) ‖ prior),
   scaled by [weight]. With the paper's uniform prior each contribution is
   non-negative, making the gain monotone in the selected set — a property
   the tests check. *)
let message_term_prior ~prior ~total y_occ y_targets weight =
  let p_y = float_of_int y_occ /. float_of_int total in
  List.fold_left
    (fun acc (x, count) ->
      let p_x_given_y = float_of_int count /. float_of_int y_occ in
      let p_xy = p_x_given_y *. p_y in
      let p_x = prior x in
      if p_x <= 0.0 then acc else acc +. (weight *. p_xy *. log (p_xy /. (p_x *. p_y))))
    0.0 y_targets

let message_term ~n_states ~total y_occ y_targets weight =
  message_term_prior ~prior:(fun _ -> 1.0 /. float_of_int n_states) ~total y_occ y_targets weight

let compute_weighted inter ~weight =
  let st = stats inter in
  if st.total_occurrences = 0 then 0.0
  else
    let n_states = Interleave.n_states inter in
    List.fold_left
      (fun acc (y, occ) ->
        let w = weight y.Indexed.base in
        if w <= 0.0 then acc
        else acc +. message_term ~n_states ~total:st.total_occurrences occ (targets_of st y) w)
      0.0 st.occurrences

let compute inter ~selected =
  compute_weighted inter ~weight:(fun base -> if selected base then 1.0 else 0.0)

(* The paper's Section 3.2 prior: "all values of X are equally probable". *)
let uniform_prior inter =
  let p = 1.0 /. float_of_int (Interleave.n_states inter) in
  fun _ -> p

(* An alternative prior for the ablation: p(x) proportional to the number
   of executions passing through x — states on many paths weigh more. *)
let visit_prior inter =
  let n = Interleave.n_states inter in
  let succ = Interleave.successors inter in
  let order = Dag.topo_order ~n ~succ in
  let to_stop = Array.make n 0.0 in
  List.iter
    (fun s ->
      if Interleave.is_stop inter s then to_stop.(s) <- 1.0
      else to_stop.(s) <- List.fold_left (fun a d -> a +. to_stop.(d)) 0.0 (succ s))
    (List.rev order);
  let from_init = Array.make n 0.0 in
  List.iter (fun s -> from_init.(s) <- 1.0) (Interleave.initials inter);
  List.iter
    (fun s -> List.iter (fun d -> from_init.(d) <- from_init.(d) +. from_init.(s)) (succ s))
    order;
  let through = Array.init n (fun s -> from_init.(s) *. to_stop.(s)) in
  let total = Array.fold_left ( +. ) 0.0 through in
  fun s -> if total <= 0.0 then 0.0 else through.(s) /. total

let compute_with_prior inter ~selected ~prior =
  let st = stats inter in
  if st.total_occurrences = 0 then 0.0
  else
    List.fold_left
      (fun acc (y, occ) ->
        if selected y.Indexed.base then
          acc +. message_term_prior ~prior ~total:st.total_occurrences occ (targets_of st y) 1.0
        else acc)
      0.0 st.occurrences

let of_combination inter combo =
  let names = List.map (fun (m : Message.t) -> m.Message.name) combo in
  compute inter ~selected:(fun base -> List.exists (String.equal base) names)

(* Incremental evaluator: precomputes per-base-message terms once so that
   Step 1/2 enumeration evaluates each candidate in O(|candidate|). Sound
   because the gain is a sum of independent per-indexed-message terms.
   [bases] keeps the first-encounter order so weighted sums are
   deterministic. The evaluator is immutable after construction and safe
   to share read-only across domains. *)
type evaluator = { base_term : (string, float) Hashtbl.t; bases : string list }

let build_evaluator inter =
  Tel.Counter.incr c_evaluator_builds;
  Tel.with_span "infogain.evaluator" @@ fun () ->
  let st = stats inter in
  let n_states = Interleave.n_states inter in
  let base_term = Hashtbl.create 32 in
  let bases = ref [] in
  List.iter
    (fun (y, occ) ->
      let term = message_term ~n_states ~total:st.total_occurrences occ (targets_of st y) 1.0 in
      match Hashtbl.find_opt base_term y.Indexed.base with
      | Some cur -> Hashtbl.replace base_term y.Indexed.base (cur +. term)
      | None ->
          Hashtbl.replace base_term y.Indexed.base term;
          bases := y.Indexed.base :: !bases)
    st.occurrences;
  { base_term; bases = List.rev !bases }

(* The evaluator is a pure function of the interleave, and callers score
   the same interleave repeatedly — greedy then exact inside one select,
   select then reselect, Step-3 packing sweeps, the supervised engine's
   resume re-validation — so keep the most recent build, keyed by the
   interleave's physical identity. The evaluator is immutable after
   construction, so handing the cached one to any domain is safe; the
   race between two simultaneous builders is benign (both build the same
   value, one wins the slot). A single entry bounds retention to one
   interleave graph. *)
let evaluator_cache : (Interleave.t * evaluator) option Atomic.t = Atomic.make None

let evaluator inter =
  match Atomic.get evaluator_cache with
  | Some (i, ev) when i == inter -> ev
  | _ ->
      let ev = build_evaluator inter in
      Atomic.set evaluator_cache (Some (inter, ev));
      ev

let eval_base ev base = Option.value ~default:0.0 (Hashtbl.find_opt ev.base_term base)

let eval ev combo =
  (* [eval_base] itself stays uninstrumented: the streaming walk calls it
     per taken message and the call count depends on the task plan depth. *)
  if Tel.enabled () then Tel.Histogram.observe h_combo_len (float_of_int (List.length combo));
  List.fold_left (fun acc (m : Message.t) -> acc +. eval_base ev m.Message.name) 0.0 combo

(* Term array for the word-parallel kernel: one float per pool slot, so
   the walk adds gains by array index with no hashing on the
   hot path. Exactly the floats [eval_base] returns, in pool order. *)
let terms ev pool = Array.map (fun (m : Message.t) -> eval_base ev m.Message.name) pool

(* Weighted gain from the precomputed terms: Step-3 packing evaluates many
   candidate subgroup sets against one evaluator instead of rescanning the
   edge list per candidate. Exact because each base's term is linear in
   its weight. *)
let eval_weighted ev ~weight =
  Tel.Counter.incr c_eval_weighted;
  List.fold_left
    (fun acc base ->
      let w = weight base in
      if w <= 0.0 then acc else acc +. (w *. eval_base ev base))
    0.0 ev.bases
