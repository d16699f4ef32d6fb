(* Executions of interleaved flows (Definition 2): random sampling for
   workloads and tests, and projection of traces onto a selected message
   set (what the trace buffer actually records). *)

type path = { states : int list; trace : Indexed.t list }

let random ?(rng = Rng.create 0) inter =
  let rec go s states trace =
    if Interleave.is_stop inter s then
      { states = List.rev (s :: states); trace = List.rev trace }
    else
      match Interleave.out_degree inter s with
      | 0 ->
          (* validated flows always reach a stop state; defensive *)
          { states = List.rev (s :: states); trace = List.rev trace }
      | d ->
          let l, dst = Interleave.nth_out inter s (Rng.int rng d) in
          go dst (s :: states) (Interleave.label inter l :: trace)
  in
  let s0 = Rng.pick rng (Interleave.initials inter) in
  go s0 [] []

let project ~selected trace = List.filter (fun m -> selected m.Indexed.base) trace

let enumerate ?(limit = 100_000) inter =
  let count = ref 0 in
  let rec go s trace =
    if Interleave.is_stop inter s then begin
      incr count;
      if !count > limit then failwith "Execution.enumerate: limit exceeded";
      [ List.rev trace ]
    end
    else
      List.rev
        (Interleave.fold_out inter s
           (fun res l dst -> List.rev_append (go dst (Interleave.label inter l :: trace)) res)
           [])
  in
  List.concat_map (fun s0 -> go s0 []) (Interleave.initials inter)

let trace_to_string trace = String.concat " " (List.map Indexed.to_string trace)
