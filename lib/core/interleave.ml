(* Interleaved flows (Definition 5), generalized from two to n legally
   indexed flow instances.

   The product is built by forward exploration from the cross product of the
   component initial states. The transition rule is the n-ary form of the
   paper's rules i/ii: component [i] may fire one of its transitions from a
   product state iff every other component currently sits outside its Atom
   set. Consequently no reachable product state has two atomic components,
   which is exactly the mutex the Atom set encodes.

   Layout (compressed sparse rows). States are numbered in breadth-first
   discovery order, so the exploration queue is just the id counter, and
   each state's out-edges are discovered together, in order: edge [k] in
   the flat out arrays is the [k]-th edge discovered. The in arrays hold
   the same edges grouped by destination, each group in discovery order.
   Labels are interned [Indexed.t] ids. Everything is held in flat int
   arrays allocated at their exact size once exploration ends; while it
   runs, rows are gathered in blocks small enough for the minor heap. *)

type instance = { flow : Flow.t; index : int }

(* Compiled form of one component flow: arrays indexed by a dense state
   id; a state's transitions are [c_off.(s) .. c_off.(s + 1) - 1], in the
   flow's declaration order, labelled with interned ids. *)
type compiled = {
  c_names : string array;
  c_off : int array;
  c_mid : int array;
  c_dst : int array;
  c_atomic : bool array;
  c_stop : bool array;
  c_initial : int list;
}

type edge = { e_src : int; e_msg : Indexed.t; e_dst : int }

type t = {
  instances : instance array;
  compiled : compiled array;
  n_states : int;
  comps : int array;  (* state [s]'s components at [s * n_inst ..] *)
  initials : int list;
  stops : int list;
  is_stop : bool array;
  labels : Indexed.t array;  (* label id -> indexed message *)
  out_off : int array;  (* n_states + 1 *)
  out_mid : int array;
  out_dst : int array;
  in_off : int array;  (* n_states + 1 *)
  in_mid : int array;
  in_src : int array;
  messages : Message.t list;
}

exception Not_legally_indexed of string
exception Message_clash of string
exception Too_large of int

(* A growing table of fixed-width int rows, kept in blocks of [1 lsl
   shift] rows — at most 256 words where the width allows, so blocks are
   born in the minor heap — and copied once into a flat array of its exact
   size. Only the block directory grows. *)
module Rows = struct
  type t = { width : int; shift : int; mask : int; mutable dir : int array array; mutable n : int }

  let create width =
    let shift = ref 0 in
    while width lsl (!shift + 1) <= 256 do
      incr shift
    done;
    { width; shift = !shift; mask = (1 lsl !shift) - 1; dir = Array.make 16 [||]; n = 0 }

  (* index of a fresh row *)
  let next t =
    let r = t.n in
    if r land t.mask = 0 then begin
      let b = r lsr t.shift in
      if b = Array.length t.dir then begin
        let dir = Array.make (2 * b) [||] in
        Array.blit t.dir 0 dir 0 b;
        t.dir <- dir
      end;
      t.dir.(b) <- Array.make (t.width lsl t.shift) 0
    end;
    t.n <- r + 1;
    r

  let block t r = t.dir.(r lsr t.shift)
  let offset t r = (r land t.mask) * t.width
  let set t r k v = (block t r).(offset t r + k) <- v
  let get t r k = (block t r).(offset t r + k)

  (* all rows, flat *)
  let to_array t =
    let a = Array.make (t.n * t.width) 0 in
    let per_block = t.width lsl t.shift in
    let b = ref 0 and pos = ref 0 in
    while !pos < Array.length a do
      let len = min per_block (Array.length a - !pos) in
      Array.blit t.dir.(!b) 0 a !pos len;
      pos := !pos + len;
      incr b
    done;
    a
end

let compile ~intern ~index (flow : Flow.t) =
  let n = List.length flow.Flow.states in
  let idx = Hashtbl.create n in
  List.iteri (fun i s -> Hashtbl.replace idx s i) flow.Flow.states;
  let c_names = Array.of_list flow.Flow.states in
  let c_off = Array.make (n + 1) 0 in
  List.iter
    (fun (tr : Flow.transition) ->
      let s = Hashtbl.find idx tr.Flow.t_src in
      c_off.(s + 1) <- c_off.(s + 1) + 1)
    flow.Flow.transitions;
  for s = 0 to n - 1 do
    c_off.(s + 1) <- c_off.(s + 1) + c_off.(s)
  done;
  let m = c_off.(n) in
  let c_mid = Array.make m 0 and c_dst = Array.make m 0 in
  let fill = Array.make n 0 in
  List.iter
    (fun (tr : Flow.transition) ->
      let s = Hashtbl.find idx tr.Flow.t_src in
      let k = c_off.(s) + fill.(s) in
      c_mid.(k) <- intern (Indexed.make tr.Flow.t_msg index);
      c_dst.(k) <- Hashtbl.find idx tr.Flow.t_dst;
      fill.(s) <- fill.(s) + 1)
    flow.Flow.transitions;
  let mem l s = List.exists (String.equal s) l in
  let c_atomic = Array.map (mem flow.Flow.atomic) c_names in
  let c_stop = Array.map (mem flow.Flow.stop) c_names in
  let c_initial = List.map (Hashtbl.find idx) flow.Flow.initial in
  { c_names; c_off; c_mid; c_dst; c_atomic; c_stop; c_initial }

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

(* FNV-style word hash of [w] components starting at [a.(off)]; the high
   bits are folded down because the table indexes by the low ones. *)
let hash_slice a off w =
  let h = ref 0 in
  for k = off to off + w - 1 do
    h := (!h lxor a.(k)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

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
  let messages = union_messages instances in
  let label_ids : (Indexed.t, int) Hashtbl.t = Hashtbl.create 32 in
  let intern l =
    match Hashtbl.find_opt label_ids l with
    | Some id -> id
    | None ->
        let id = Hashtbl.length label_ids in
        Hashtbl.replace label_ids l id;
        id
  in
  let compiled = Array.map (fun i -> compile ~intern ~index:i.index i.flow) instances in
  let labels = Array.make (Hashtbl.length label_ids) (Indexed.make "" 0) in
  Hashtbl.iter (fun l id -> labels.(id) <- l) label_ids;
  let w = Array.length instances in
  (* States are rows of [states]; [table] is an open-addressing set of
     state ids keyed by their rows, kept at most half full. *)
  let states = Rows.create w in
  let table = ref (Array.make 256 (-1)) in
  let insert tbl id =
    let mask = Array.length tbl - 1 in
    let i = ref (hash_slice (Rows.block states id) (Rows.offset states id) w land mask) in
    while tbl.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    tbl.(!i) <- id
  in
  let same_row id (cand : int array) =
    let blk = Rows.block states id and off = Rows.offset states id in
    let k = ref 0 in
    while !k < w && blk.(off + !k) = cand.(!k) do
      incr k
    done;
    !k = w
  in
  let intern_state cand =
    let tbl = !table in
    let mask = Array.length tbl - 1 in
    let i = ref (hash_slice cand 0 w land mask) in
    while tbl.(!i) >= 0 && not (same_row tbl.(!i) cand) do
      i := (!i + 1) land mask
    done;
    if tbl.(!i) >= 0 then tbl.(!i)
    else begin
      let id = states.Rows.n in
      if id >= max_states then raise (Too_large max_states);
      ignore (Rows.next states);
      Array.blit cand 0 (Rows.block states id) (Rows.offset states id) w;
      tbl.(!i) <- id;
      if 2 * (id + 1) > Array.length tbl then begin
        let bigger = Array.make (2 * Array.length tbl) (-1) in
        for s = 0 to id do
          insert bigger s
        done;
        table := bigger
      end;
      id
    end
  in
  let initials = List.map intern_state (cartesian_initials compiled) in
  (* Breadth-first: ids are handed out in discovery order, so state [s] is
     expanded after every state below it. *)
  let edges = Rows.create 2 and starts = Rows.create 1 in
  let cur = Array.make w 0 and cand = Array.make w 0 in
  let s = ref 0 in
  while !s < states.Rows.n do
    Rows.set starts (Rows.next starts) 0 edges.Rows.n;
    Array.blit (Rows.block states !s) (Rows.offset states !s) cur 0 w;
    Array.blit cur 0 cand 0 w;
    let n_atomic = ref 0 in
    for i = 0 to w - 1 do
      if compiled.(i).c_atomic.(cur.(i)) then incr n_atomic
    done;
    for i = 0 to w - 1 do
      let c = compiled.(i) and here = cur.(i) in
      (* component [i] fires only while every other one is non-atomic *)
      if !n_atomic - Bool.to_int c.c_atomic.(here) = 0 then begin
        for k = c.c_off.(here) to c.c_off.(here + 1) - 1 do
          cand.(i) <- c.c_dst.(k);
          let dst = intern_state cand in
          let e = Rows.next edges in
          Rows.set edges e 0 c.c_mid.(k);
          Rows.set edges e 1 dst
        done;
        cand.(i) <- here
      end
    done;
    incr s
  done;
  let n = states.Rows.n and m = edges.Rows.n in
  let comps = Rows.to_array states in
  let out_off = Array.make (n + 1) m in
  for s = 0 to n - 1 do
    out_off.(s) <- Rows.get starts s 0
  done;
  let out_mid = Array.make m 0 and out_dst = Array.make m 0 in
  for e = 0 to m - 1 do
    out_mid.(e) <- Rows.get edges e 0;
    out_dst.(e) <- Rows.get edges e 1
  done;
  (* In-edges by counting sort on the destination: ends first, then each
     edge placed at its group's end in reverse discovery order, which
     leaves every group in discovery order and [in_off.(d + 1)] at group
     [d]'s start; one shift turns those into the offsets. *)
  let in_off = Array.make (n + 1) 0 in
  Array.iter (fun d -> in_off.(d + 1) <- in_off.(d + 1) + 1) out_dst;
  for d = 0 to n - 1 do
    in_off.(d + 1) <- in_off.(d + 1) + in_off.(d)
  done;
  let in_mid = Array.make m 0 and in_src = Array.make m 0 in
  for s = n - 1 downto 0 do
    for e = out_off.(s + 1) - 1 downto out_off.(s) do
      let d = out_dst.(e) in
      let at = in_off.(d + 1) - 1 in
      in_off.(d + 1) <- at;
      in_mid.(at) <- out_mid.(e);
      in_src.(at) <- s
    done
  done;
  for d = 0 to n - 1 do
    in_off.(d) <- in_off.(d + 1)
  done;
  in_off.(n) <- m;
  let is_stop =
    Array.init n (fun s ->
        let all_stop = ref true in
        for i = 0 to w - 1 do
          if not compiled.(i).c_stop.(comps.((s * w) + i)) then all_stop := false
        done;
        !all_stop)
  in
  let stops = ref [] in
  for s = n - 1 downto 0 do
    if is_stop.(s) then stops := s :: !stops
  done;
  {
    instances;
    compiled;
    n_states = n;
    comps;
    initials;
    stops = !stops;
    is_stop;
    labels;
    out_off;
    out_mid;
    out_dst;
    in_off;
    in_mid;
    in_src;
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
let n_edges t = Array.length t.out_mid
let initials t = t.initials
let stops t = t.stops
let is_stop t s = t.is_stop.(s)
let messages t = t.messages
let n_labels t = Array.length t.labels
let label t id = t.labels.(id)
let out_degree t s = t.out_off.(s + 1) - t.out_off.(s)
let nth_out t s k = (t.out_mid.(t.out_off.(s) + k), t.out_dst.(t.out_off.(s) + k))

let iter_out t s f =
  for e = t.out_off.(s) to t.out_off.(s + 1) - 1 do
    f t.out_mid.(e) t.out_dst.(e)
  done

let fold_out t s f acc =
  let acc = ref acc in
  for e = t.out_off.(s) to t.out_off.(s + 1) - 1 do
    acc := f !acc t.out_mid.(e) t.out_dst.(e)
  done;
  !acc

let fold_in t s f acc =
  let acc = ref acc in
  for e = t.in_off.(s) to t.in_off.(s + 1) - 1 do
    acc := f !acc t.in_mid.(e) t.in_src.(e)
  done;
  !acc

let first_in t dst label =
  let e = ref t.in_off.(dst) and stop = t.in_off.(dst + 1) in
  while !e < stop && t.in_mid.(!e) <> label do
    incr e
  done;
  if !e < stop then !e else -1

(* newest edge first *)
let iter_edges t f =
  for s = t.n_states - 1 downto 0 do
    for e = t.out_off.(s + 1) - 1 downto t.out_off.(s) do
      f s t.out_mid.(e) t.out_dst.(e)
    done
  done

let iter_succ t s f = iter_out t s (fun _ d -> f d)

let edges t =
  let acc = ref [] in
  iter_edges t (fun s mid d -> acc := { e_src = s; e_msg = t.labels.(mid); e_dst = d } :: !acc);
  List.rev !acc

let out_edges t s = List.rev (fold_out t s (fun acc mid d -> (t.labels.(mid), d) :: acc) [])
let in_edges t s = List.rev (fold_in t s (fun acc mid src -> (t.labels.(mid), src) :: acc) [])

let state_name t s =
  let w = Array.length t.instances in
  let parts =
    List.init w (fun i ->
        Printf.sprintf "%s%d" t.compiled.(i).c_names.(t.comps.((s * w) + i)) t.instances.(i).index)
  in
  "(" ^ String.concat "," parts ^ ")"

let message t name = List.find_opt (fun m -> String.equal m.Message.name name) t.messages

let message_exn t name =
  match message t name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Interleave.message_exn: no message %s" name)

let total_paths t =
  Dag.count_paths ~n:t.n_states ~succ:(iter_succ t) ~sources:t.initials ~is_sink:(fun s -> t.is_stop.(s))

let indexed_instances_of t base =
  Array.to_list
    (Array.map (fun i -> Indexed.make base i.index)
       (Array.of_list
          (List.filter
             (fun inst -> List.exists (fun (m : Message.t) -> String.equal m.Message.name base) inst.flow.Flow.messages)
             (Array.to_list t.instances))))

let pp ppf t =
  Format.fprintf ppf "interleaving of %d instances: %d states, %d edges, %d initial, %d stop"
    (Array.length t.instances) t.n_states (n_edges t) (List.length t.initials)
    (List.length t.stops)
