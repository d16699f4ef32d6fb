(* Interleaved flows (Definition 5), generalized from two to n legally
   indexed flow instances.

   The product is built by forward exploration from the cross product of the
   component initial states. The transition rule is the n-ary form of the
   paper's rules i/ii: component [i] may fire one of its transitions from a
   product state iff every other component currently sits outside its Atom
   set. Consequently no reachable product state has two atomic components,
   which is exactly the mutex the Atom set encodes. *)

type instance = { flow : Flow.t; index : int }

(* Compiled form of one component flow: arrays indexed by a dense state id. *)
type compiled = {
  c_names : string array;
  c_out : (string * int) list array; (* message name, destination state id *)
  c_atomic : bool array;
  c_stop : bool array;
  c_initial : int list;
}

type edge = { e_src : int; e_msg : Indexed.t; e_dst : int }

type t = {
  instances : instance array;
  compiled : compiled array;
  n_states : int;
  state_comps : int array array;
  initials : int list;
  stops : int list;
  is_stop : bool array;
  edges : edge list;
  out_edges : (Indexed.t * int) list array;
  in_edges : (Indexed.t * int) list array;
  n_edges : int;
  messages : Message.t list;
}

exception Not_legally_indexed of string
exception Message_clash of string
exception Too_large of int

let compile (flow : Flow.t) =
  let n = List.length flow.Flow.states in
  let idx = Hashtbl.create n in
  List.iteri (fun i s -> Hashtbl.replace idx s i) flow.Flow.states;
  let c_names = Array.of_list flow.Flow.states in
  let c_out = Array.make n [] in
  (* prepend and reverse once: growing each adjacency list with @-append
     was quadratic in a state's out-degree *)
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

(* Union of the messages of all participating flows, deduplicated by name.
   Two flows may share a message (the same interface register observed by
   both protocols); their declared widths must then agree. *)
let union_messages instances =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun inst ->
      List.iter
        (fun (m : Message.t) ->
          match Hashtbl.find_opt tbl m.Message.name with
          | None ->
              Hashtbl.replace tbl m.Message.name m;
              order := m :: !order
          | Some m' ->
              if m'.Message.width <> m.Message.width then
                raise
                  (Message_clash
                     (Printf.sprintf "message %s declared with widths %d and %d" m.Message.name
                        m'.Message.width m.Message.width)))
        inst.flow.Flow.messages)
    instances;
  List.rev !order

let cartesian_initials compiled =
  let rec go i acc =
    if i = Array.length compiled then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun s0 -> go (i + 1) (s0 :: acc)) compiled.(i).c_initial
  in
  go 0 []

let default_max_states = 2_000_000

let make ?(max_states = default_max_states) instance_list =
  let instances = Array.of_list instance_list in
  if Array.length instances = 0 then invalid_arg "Interleave.make: no instances";
  (* Legal indexing (Definition 4): same flow => distinct indices. *)
  let keys = Array.to_list (Array.map (fun i -> (i.flow.Flow.name, i.index)) instances) in
  let sorted = List.sort compare keys in
  let rec dup = function
    | (a, i) :: ((b, j) :: _ as rest) ->
        if String.equal a b && i = j then Some (a, i) else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some (f, i) ->
      raise (Not_legally_indexed (Printf.sprintf "flow %s appears twice with index %d" f i))
  | None -> ());
  let compiled = Array.map (fun i -> compile i.flow) instances in
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
        if id >= max_states then raise (Too_large max_states);
        Hashtbl.replace table comps id;
        states := comps :: !states;
        incr n_states;
        (id, true)
  in
  let worklist = Queue.create () in
  let initial_comps = cartesian_initials compiled in
  let initials =
    List.map
      (fun comps ->
        let id, fresh = intern comps in
        if fresh then Queue.add (id, comps) worklist;
        id)
      initial_comps
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
            let e_msg = Indexed.make msg instances.(i).index in
            edges := { e_src = src_id; e_msg; e_dst = dst_id } :: !edges;
            incr n_edges)
          compiled.(i).c_out.(comps.(i))
    done
  done;
  let n = !n_states in
  let state_comps = Array.make n [||] in
  List.iter (fun comps -> state_comps.(Hashtbl.find table comps) <- comps) !states;
  let is_stop = Array.make n false in
  for s = 0 to n - 1 do
    let comps = state_comps.(s) in
    let all_stop = ref true in
    Array.iteri (fun i c -> if not compiled.(i).c_stop.(c) then all_stop := false) comps;
    is_stop.(s) <- !all_stop
  done;
  let stops = List.filter (fun s -> is_stop.(s)) (List.init n Fun.id) in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun e ->
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

(* Indices run 1..n in count order, so they are globally unique. *)
let instances flows counts =
  let named name = List.find_opt (fun f -> String.equal f.Flow.name name) flows in
  match List.find_opt (fun (name, _) -> Option.is_none (named name)) counts with
  | Some (name, _) ->
      Error
        (Printf.sprintf "unknown flow %S in the instance counts (declared: %s)" name
           (String.concat ", " (List.map (fun f -> f.Flow.name) flows)))
  | None when counts = [] -> Ok (List.mapi (fun i f -> { flow = f; index = i + 1 }) flows)
  | None ->
      let next = ref 0 in
      let instance f =
        incr next;
        { flow = f; index = !next }
      in
      Ok
        (List.concat_map
           (fun (name, n) -> List.init n (fun _ -> instance (Option.get (named name))))
           counts)

let of_flows ?max_states flows = make ?max_states (Result.get_ok (instances flows []))

let n_states t = t.n_states
let n_edges t = t.n_edges
let initials t = t.initials
let stops t = t.stops
let is_stop t s = t.is_stop.(s)
let messages t = t.messages
let edges t = t.edges
let out_edges t s = t.out_edges.(s)
let in_edges t s = t.in_edges.(s)

let successors t s = List.map snd t.out_edges.(s)

let state_name t s =
  let comps = t.state_comps.(s) in
  let parts =
    Array.to_list
      (Array.mapi
         (fun i c -> Printf.sprintf "%s%d" t.compiled.(i).c_names.(c) t.instances.(i).index)
         comps)
  in
  "(" ^ String.concat "," parts ^ ")"

let message t name = List.find_opt (fun m -> String.equal m.Message.name name) t.messages

let message_exn t name =
  match message t name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Interleave.message_exn: no message %s" name)

let total_paths t =
  Dag.count_paths ~n:t.n_states ~succ:(successors t) ~sources:t.initials
    ~is_sink:(fun s -> t.is_stop.(s))

(* All executions of the product as indexed traces. Exponential in general;
   guarded by [limit] like [Flow.executions] — callers wanting graceful
   degradation catch the [Failure]. *)
let executions ?(limit = 1_000_000) t =
  let count = ref 0 in
  let rec go s acc =
    if !count > limit then failwith "Interleave.executions: limit exceeded";
    if t.is_stop.(s) then begin
      incr count;
      [ List.rev acc ]
    end
    else List.concat_map (fun (msg, dst) -> go dst (msg :: acc)) t.out_edges.(s)
  in
  List.concat_map (fun s0 -> go s0 []) t.initials

let indexed_instances_of t base =
  Array.to_list
    (Array.map (fun i -> Indexed.make base i.index)
       (Array.of_list
          (List.filter
             (fun inst -> List.exists (fun (m : Message.t) -> String.equal m.Message.name base) inst.flow.Flow.messages)
             (Array.to_list t.instances))))

let pp ppf t =
  Format.fprintf ppf "interleaving of %d instances: %d states, %d edges, %d initial, %d stop"
    (Array.length t.instances) t.n_states t.n_edges (List.length t.initials)
    (List.length t.stops)
