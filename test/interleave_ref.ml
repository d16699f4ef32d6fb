(* The list-based interleaving builder and its list-based consumers,
   kept only as a differential oracle for the array-based [Interleave].

   This is the construction [Interleave] used before its compressed
   sparse-row layout: states interned in a [Hashtbl] keyed on component
   arrays, breadth-first exploration from a [Queue], and every edge held
   three times as boxed lists — the edge list (newest first) and the
   per-state out and in lists (discovery order). [stats], [base_terms]
   and [coverage] are the edge-list versions of [Infogain.stats], the
   evaluator's per-base terms and [Coverage.compute]. *)

open Flowtrace_core

type compiled = {
  c_names : string array;
  c_out : (string * int) list array;
  c_atomic : bool array;
  c_stop : bool array;
  c_initial : int list;
}

type t = {
  instances : Interleave.instance array;
  compiled : compiled array;
  n_states : int;
  state_comps : int array array;
  initials : int list;
  stops : int list;
  is_stop : bool array;
  edges : Interleave.edge list;  (* newest first *)
  out_edges : (Indexed.t * int) list array;
  in_edges : (Indexed.t * int) list array;
  n_edges : int;
  messages : Message.t list;
}

let compile (flow : Flow.t) =
  let n = List.length flow.Flow.states in
  let idx = Hashtbl.create n in
  List.iteri (fun i s -> Hashtbl.replace idx s i) flow.Flow.states;
  let c_names = Array.of_list flow.Flow.states in
  let c_out = Array.make n [] in
  List.iter
    (fun (tr : Flow.transition) ->
      let s = Hashtbl.find idx tr.Flow.t_src and d = Hashtbl.find idx tr.Flow.t_dst in
      c_out.(s) <- (tr.Flow.t_msg, d) :: c_out.(s))
    flow.Flow.transitions;
  for s = 0 to n - 1 do
    c_out.(s) <- List.rev c_out.(s)
  done;
  let mem l s = List.exists (String.equal s) l in
  let c_atomic = Array.map (mem flow.Flow.atomic) c_names in
  let c_stop = Array.map (mem flow.Flow.stop) c_names in
  let c_initial = List.map (Hashtbl.find idx) flow.Flow.initial in
  { c_names; c_out; c_atomic; c_stop; c_initial }

let union_messages instances =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun (inst : Interleave.instance) ->
      List.iter
        (fun (m : Message.t) ->
          match Hashtbl.find_opt tbl m.Message.name with
          | None ->
              Hashtbl.replace tbl m.Message.name m;
              order := m :: !order
          | Some m' ->
              if m'.Message.width <> m.Message.width then
                raise (Interleave.Message_clash m.Message.name))
        inst.Interleave.flow.Flow.messages)
    instances;
  List.rev !order

let cartesian_initials compiled =
  let rec go i acc =
    if i = Array.length compiled then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun s0 -> go (i + 1) (s0 :: acc)) compiled.(i).c_initial
  in
  go 0 []

let make ?(max_states = 2_000_000) instance_list =
  let instances = Array.of_list instance_list in
  let compiled = Array.map (fun (i : Interleave.instance) -> compile i.Interleave.flow) instances in
  let messages = union_messages instances in
  let n_inst = Array.length instances in
  let table : (int array, int) Hashtbl.t = Hashtbl.create 1024 in
  let states = ref [] in
  let n_states = ref 0 in
  let intern comps =
    match Hashtbl.find_opt table comps with
    | Some id -> (id, false)
    | None ->
        let id = !n_states in
        if id >= max_states then raise (Interleave.Too_large max_states);
        Hashtbl.replace table comps id;
        states := comps :: !states;
        incr n_states;
        (id, true)
  in
  let worklist = Queue.create () in
  let initials =
    List.map
      (fun comps ->
        let id, fresh = intern comps in
        if fresh then Queue.add (id, comps) worklist;
        id)
      (cartesian_initials compiled)
  in
  let edges = ref [] in
  let n_edges = ref 0 in
  while not (Queue.is_empty worklist) do
    let src_id, comps = Queue.pop worklist in
    for i = 0 to n_inst - 1 do
      let others_non_atomic =
        let ok = ref true in
        for j = 0 to n_inst - 1 do
          if j <> i && compiled.(j).c_atomic.(comps.(j)) then ok := false
        done;
        !ok
      in
      if others_non_atomic then
        List.iter
          (fun (msg, dst_comp) ->
            let comps' = Array.copy comps in
            comps'.(i) <- dst_comp;
            let dst_id, fresh = intern comps' in
            if fresh then Queue.add (dst_id, comps') worklist;
            let e_msg = Indexed.make msg instances.(i).Interleave.index in
            edges := { Interleave.e_src = src_id; e_msg; e_dst = dst_id } :: !edges;
            incr n_edges)
          compiled.(i).c_out.(comps.(i))
    done
  done;
  let n = !n_states in
  let state_comps = Array.make n [||] in
  List.iter (fun comps -> state_comps.(Hashtbl.find table comps) <- comps) !states;
  let is_stop =
    Array.map
      (fun comps ->
        let all_stop = ref true in
        Array.iteri (fun i c -> if not compiled.(i).c_stop.(c) then all_stop := false) comps;
        !all_stop)
      state_comps
  in
  let stops = List.filter (fun s -> is_stop.(s)) (List.init n Fun.id) in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun (e : Interleave.edge) ->
      out_edges.(e.e_src) <- (e.e_msg, e.e_dst) :: out_edges.(e.e_src);
      in_edges.(e.e_dst) <- (e.e_msg, e.e_src) :: in_edges.(e.e_dst))
    !edges;
  {
    instances;
    compiled;
    n_states = n;
    state_comps;
    initials;
    stops;
    is_stop;
    edges = !edges;
    out_edges;
    in_edges;
    n_edges = !n_edges;
    messages;
  }

let state_name t s =
  let parts =
    Array.to_list
      (Array.mapi
         (fun i c ->
           Printf.sprintf "%s%d" t.compiled.(i).c_names.(c) t.instances.(i).Interleave.index)
         t.state_comps.(s))
  in
  "(" ^ String.concat "," parts ^ ")"

(* ------------------------------------------------------------------ *)
(* Edge-list consumers *)

(* Occurrences in first-encounter order over the edge list, and per
   message its (target, count) pairs in first-seen order. *)
let stats t =
  let occ = Hashtbl.create 64 and order = ref [] in
  let pairs = Hashtbl.create 1024 and tgts = Hashtbl.create 64 in
  List.iter
    (fun (e : Interleave.edge) ->
      (match Hashtbl.find_opt occ e.e_msg with
      | Some r -> incr r
      | None ->
          Hashtbl.replace occ e.e_msg (ref 1);
          order := e.e_msg :: !order;
          Hashtbl.replace tgts e.e_msg (ref []));
      match Hashtbl.find_opt pairs (e.e_msg, e.e_dst) with
      | Some r -> incr r
      | None ->
          Hashtbl.replace pairs (e.e_msg, e.e_dst) (ref 1);
          let ts = Hashtbl.find tgts e.e_msg in
          ts := e.e_dst :: !ts)
    t.edges;
  List.rev_map
    (fun y ->
      ( y,
        !(Hashtbl.find occ y),
        List.rev_map (fun x -> (x, !(Hashtbl.find pairs (y, x)))) !(Hashtbl.find tgts y) ))
    !order

(* The evaluator's per-base terms, in first-encounter order of the bases,
   summed exactly as the evaluator sums them. *)
let base_terms t =
  let st = stats t in
  let total = t.n_edges in
  let prior = 1.0 /. float_of_int t.n_states in
  let term y_occ targets =
    let p_y = float_of_int y_occ /. float_of_int total in
    List.fold_left
      (fun acc (_, count) ->
        let p_x_given_y = float_of_int count /. float_of_int y_occ in
        let p_xy = p_x_given_y *. p_y in
        acc +. (1.0 *. p_xy *. log (p_xy /. (prior *. p_y))))
      0.0 targets
  in
  List.fold_left
    (fun acc ((y : Indexed.t), occ, targets) ->
      let v = term occ targets in
      match List.assoc_opt y.Indexed.base acc with
      | Some _ -> List.map (fun (b, cur) -> if b = y.Indexed.base then (b, cur +. v) else (b, cur)) acc
      | None -> acc @ [ (y.Indexed.base, v) ])
    [] st

let coverage t ~selected =
  if t.n_states = 0 then 0.0
  else begin
    let seen = Array.make t.n_states false in
    List.iter
      (fun (e : Interleave.edge) -> if selected e.e_msg.Indexed.base then seen.(e.e_dst) <- true)
      t.edges;
    float_of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 seen)
    /. float_of_int t.n_states
  end
