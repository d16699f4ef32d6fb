exception Cycle

let sat_add a b = if a > max_int - b then max_int else a + b

let topo_order ~n ~succ =
  let indeg = Array.make n 0 in
  for s = 0 to n - 1 do
    succ s (fun d -> indeg.(d) <- indeg.(d) + 1)
  done;
  let queue = Queue.create () in
  Array.iteri (fun s d -> if d = 0 then Queue.add s queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    order := s :: !order;
    incr seen;
    succ s (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
  done;
  if !seen <> n then raise Cycle;
  List.rev !order

(* Number of paths from any source to any sink, saturating at [max_int]. *)
let count_paths ~n ~succ ~sources ~is_sink =
  let order = topo_order ~n ~succ in
  let paths_to_sink = Array.make n 0 in
  List.iter
    (fun s ->
      if is_sink s then paths_to_sink.(s) <- 1
      else begin
        let acc = ref 0 in
        succ s (fun d -> acc := sat_add !acc paths_to_sink.(d));
        paths_to_sink.(s) <- !acc
      end)
    (List.rev order);
  List.fold_left (fun acc s -> sat_add acc paths_to_sink.(s)) 0 sources

(* Longest path length from any source, for diagnostics. *)
let longest_path ~n ~succ ~sources =
  let order = topo_order ~n ~succ in
  let dist = Array.make n min_int in
  List.iter (fun s -> dist.(s) <- 0) sources;
  List.iter
    (fun s ->
      if dist.(s) > min_int then
        succ s (fun d -> if dist.(s) + 1 > dist.(d) then dist.(d) <- dist.(s) + 1))
    order;
  Array.fold_left max 0 dist
