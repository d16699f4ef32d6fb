(* Step 3: pack the leftover trace-buffer bits with subgroups of wider
   messages (Section 3.3).

   A subgroup is a named bit-field of a message that did not (fully) fit in
   the buffer, e.g. OpenSPARC T2's 6-bit [cputhreadid] inside the 20-bit
   [dmusiidata]. Packing greedily adds the subgroup that maximizes the
   information gain of the selection-in-union-with-it, until nothing fits.

   With [scale_partial = false] (the paper's formulation) a packed subgroup
   contributes its parent's full information term: observing any slice of
   the interface register reveals the transition's occurrence. With
   [scale_partial = true] the term is scaled by the fraction of parent bits
   captured so far — an ablation knob discussed in DESIGN.md. *)

module Tel = Flowtrace_telemetry.Telemetry

let c_rounds = Tel.Counter.v "packing.rounds"
let c_cand_scored = Tel.Counter.v "packing.candidates_scored"
let c_packed = Tel.Counter.v "packing.subgroups_packed"
let h_gain_eval_packs = Tel.Histogram.v "packing.gain_eval_packs"

type packed = { p_parent : Message.t; p_sub : Message.subgroup }

let qualified p = Message.qualified_subgroup_name p.p_parent p.p_sub

(* Feasibility predicates, exposed so the static debuggability analysis can
   prove infeasibility without running Select's candidate fold. *)

let fits messages ~buffer_width =
  List.exists (fun (m : Message.t) -> Message.trace_width m <= buffer_width) messages

let packable messages ~leftover =
  List.concat_map
    (fun (m : Message.t) ->
      List.filter_map
        (fun sg ->
          if sg.Message.sg_width <= leftover then Some { p_parent = m; p_sub = sg } else None)
        m.Message.subgroups)
    messages

(* Gain of [selected] plus packed subgroups, under the chosen scaling.
   Evaluated against one precomputed evaluator — every candidate subgroup
   in every greedy round used to rescan the full edge list via
   Infogain.stats; now each evaluation is O(|bases|). *)
let gain_with ev ~scale_partial ~selected ~packs =
  if Tel.enabled () then
    Tel.Histogram.observe h_gain_eval_packs (float_of_int (List.length packs));
  let full = List.map (fun (m : Message.t) -> m.Message.name) selected in
  let partial : (string * float) list =
    (* accumulated captured fraction per parent, capped at 1 *)
    List.fold_left
      (fun acc p ->
        let name = p.p_parent.Message.name in
        let frac =
          float_of_int p.p_sub.Message.sg_width /. float_of_int p.p_parent.Message.width
        in
        match List.assoc_opt name acc with
        | Some f -> (name, Float.min 1.0 (f +. frac)) :: List.remove_assoc name acc
        | None -> (name, Float.min 1.0 frac) :: acc)
      [] packs
  in
  let weight base =
    if List.exists (String.equal base) full then 1.0
    else
      match List.assoc_opt base partial with
      | Some f -> if scale_partial then f else 1.0
      | None -> 0.0
  in
  Infogain.eval_weighted ev ~weight

let pack ?evaluator inter ~selected ~gain:_ ~bits_used ~buffer_width ~scale_partial =
  let ev = match evaluator with Some ev -> ev | None -> Infogain.evaluator inter in
  let selected_names = List.map (fun (m : Message.t) -> m.Message.name) selected in
  let rec go packs bits =
    let leftover = buffer_width - bits in
    if leftover <= 0 then (packs, bits)
    else
      (* Candidate subgroups: fields of messages not already fully selected,
         not already packed, narrow enough for the leftover bits. *)
      let candidates =
        List.filter
          (fun p ->
            not (List.exists (fun p' -> String.equal (qualified p') (qualified p)) packs))
          (packable ~leftover
             (List.filter
                (fun (m : Message.t) ->
                  not (List.exists (String.equal m.Message.name) selected_names))
                (Interleave.messages inter)))
      in
      match candidates with
      | [] -> (packs, bits)
      | _ ->
          Tel.Counter.incr c_rounds;
          Tel.Counter.add c_cand_scored (List.length candidates);
          let scored =
            List.map
              (fun p -> (p, gain_with ev ~scale_partial ~selected ~packs:(p :: packs)))
              candidates
          in
          let current = gain_with ev ~scale_partial ~selected ~packs in
          let best =
            List.fold_left
              (fun acc (p, g) ->
                match acc with
                | None -> Some (p, g)
                | Some (p', g') ->
                    if
                      g -. g' > 1e-12
                      || (Float.abs (g -. g') <= 1e-12
                         && (p.p_sub.Message.sg_width > p'.p_sub.Message.sg_width
                            || (p.p_sub.Message.sg_width = p'.p_sub.Message.sg_width
                               && String.compare (qualified p) (qualified p') < 0)))
                    then Some (p, g)
                    else acc)
              None scored
          in
          (match best with
          | Some (p, g) when g >= current -. 1e-12 ->
              (* Gains are monotone, so any candidate keeps g >= current;
                 ties prefer the widest subgroup to maximize utilization. *)
              Tel.Counter.incr c_packed;
              go (p :: packs) (bits + p.p_sub.Message.sg_width)
          | _ -> (packs, bits))
  in
  let packs, bits = go [] bits_used in
  let final_gain = gain_with ev ~scale_partial ~selected ~packs in
  (List.rev packs, final_gain, bits)
