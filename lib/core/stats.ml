(* Descriptive statistics of an interleaved flow: the numbers a validator
   inspects before committing to a trace-buffer configuration. *)

type t = {
  st_states : int;
  st_edges : int;
  st_paths : int;  (* saturating *)
  st_longest : int;  (* longest execution, in messages *)
  st_branching : float;  (* mean out-degree over non-stop states *)
  st_entropy_bound : float;  (* ln |S| — the ceiling on information gain *)
  st_occurrences : (Indexed.t * int) list;  (* per indexed message, descending *)
}

let compute inter =
  let n = Interleave.n_states inter in
  let occ = Array.make (Interleave.n_labels inter) 0 in
  Interleave.iter_edges inter (fun _ l _ -> occ.(l) <- occ.(l) + 1);
  let occurrences =
    List.sort
      (fun (ma, ca) (mb, cb) ->
        match compare cb ca with 0 -> Indexed.compare ma mb | c -> c)
      (List.filter_map
         (fun l -> if occ.(l) > 0 then Some (Interleave.label inter l, occ.(l)) else None)
         (List.init (Array.length occ) Fun.id))
  in
  let non_stop = ref 0 and degree = ref 0 in
  for s = 0 to n - 1 do
    if not (Interleave.is_stop inter s) then begin
      incr non_stop;
      degree := !degree + Interleave.out_degree inter s
    end
  done;
  {
    st_states = n;
    st_edges = Interleave.n_edges inter;
    st_paths = Interleave.total_paths inter;
    st_longest =
      Dag.longest_path ~n ~succ:(Interleave.iter_succ inter) ~sources:(Interleave.initials inter);
    st_branching =
      (if !non_stop = 0 then 0.0 else float_of_int !degree /. float_of_int !non_stop);
    st_entropy_bound = log (float_of_int (max 1 n));
    st_occurrences = occurrences;
  }

let pp ppf st =
  Format.fprintf ppf
    "@[<v>states: %d  edges: %d  executions: %d@,longest execution: %d messages  mean branching: %.2f@,information ceiling (ln |S|): %.4f@,occurrences:@,%a@]"
    st.st_states st.st_edges st.st_paths st.st_longest st.st_branching st.st_entropy_bound
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (m, c) ->
         Format.fprintf ppf "  %-14s %d" (Indexed.to_string m) c))
    st.st_occurrences
