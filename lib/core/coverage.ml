(* Flow specification coverage (Definition 7): the fraction of interleaved
   flow states that are "visible", i.e. reached by a transition labeled with
   a selected (indexed) message. *)

let visible_states inter ~selected =
  let seen = Array.make (Interleave.n_states inter) false in
  let visible =
    Array.init (Interleave.n_labels inter) (fun l -> selected (Interleave.label inter l).Indexed.base)
  in
  Interleave.iter_edges inter (fun _ l dst -> if visible.(l) then seen.(dst) <- true);
  let acc = ref [] in
  for s = Interleave.n_states inter - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let compute inter ~selected =
  let n = Interleave.n_states inter in
  if n = 0 then 0.0
  else float_of_int (List.length (visible_states inter ~selected)) /. float_of_int n

let of_combination inter combo =
  let names = List.map (fun (m : Message.t) -> m.Message.name) combo in
  compute inter ~selected:(fun base -> List.exists (String.equal base) names)
