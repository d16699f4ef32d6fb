(* QCheck generators for random, always-valid flows: layered DAGs where
   every non-final state has a successor and every non-initial state a
   predecessor, so Flow.make's invariants hold by construction. *)

open Flowtrace_core

(* Message names are prefixed with the flow name so two random flows never
   clash on width when interleaved. *)
let message_name ~name i = Printf.sprintf "%s_m%d" name i

(* A layered flow: [widths] lists the number of states per layer; edges go
   only from layer i to layer i+1. Atomic states are drawn from middle
   layers. *)
let layered_flow ~rng ~name ~layers ~max_per_layer ~max_width ~atomic_prob =
  let n_layer = Array.init layers (fun _ -> 1 + Rng.int rng max_per_layer) in
  n_layer.(0) <- 1;
  n_layer.(layers - 1) <- 1;
  let state i j = Printf.sprintf "s%d_%d" i j in
  let states = ref [] and atomic = ref [] in
  for i = 0 to layers - 1 do
    for j = 0 to n_layer.(i) - 1 do
      states := state i j :: !states;
      if i > 0 && i < layers - 1 && Rng.float rng 1.0 < atomic_prob then
        atomic := state i j :: !atomic
    done
  done;
  let messages = ref [] and n_msgs = ref 0 in
  let transitions = ref [] in
  for i = 0 to layers - 2 do
    (* every state in layer i gets >=1 outgoing edge; every state in layer
       i+1 gets >=1 incoming edge *)
    let covered = Array.make n_layer.(i + 1) false in
    for j = 0 to n_layer.(i) - 1 do
      let k = Rng.int rng n_layer.(i + 1) in
      covered.(k) <- true;
      let m = message_name ~name !n_msgs in
      incr n_msgs;
      messages := Message.make m (1 + Rng.int rng max_width) :: !messages;
      transitions := Flow.transition (state i j) m (state (i + 1) k) :: !transitions;
      (* occasionally branch *)
      if Rng.bool rng && n_layer.(i + 1) > 1 then begin
        let k' = Rng.int rng n_layer.(i + 1) in
        if k' <> k then begin
          covered.(k') <- true;
          let m' = message_name ~name !n_msgs in
          incr n_msgs;
          messages := Message.make m' (1 + Rng.int rng max_width) :: !messages;
          transitions := Flow.transition (state i j) m' (state (i + 1) k') :: !transitions
        end
      end
    done;
    for k = 0 to n_layer.(i + 1) - 1 do
      if not covered.(k) then begin
        let j = Rng.int rng n_layer.(i) in
        let m = message_name ~name !n_msgs in
        incr n_msgs;
        messages := Message.make m (1 + Rng.int rng max_width) :: !messages;
        transitions := Flow.transition (state i j) m (state (i + 1) k) :: !transitions
      end
    done
  done;
  Flow.make ~name ~states:(List.rev !states) ~initial:[ state 0 0 ]
    ~stop:[ state (layers - 1) 0 ]
    ~atomic:(List.rev !atomic) ~messages:(List.rev !messages)
    ~transitions:(List.rev !transitions) ()

let flow_of_seed ?(layers = 4) ?(max_per_layer = 2) ?(max_width = 4) ?(atomic_prob = 0.2) seed =
  let rng = Rng.create seed in
  layered_flow ~rng ~name:(Printf.sprintf "rand%d" seed) ~layers ~max_per_layer ~max_width
    ~atomic_prob

(* Arbitrary over seeds; shrinking a seed is meaningless so we disable it. *)
let flow_arb =
  QCheck.make
    ~print:(fun f -> Spec_parser.print_flow f)
    (QCheck.Gen.map flow_of_seed (QCheck.Gen.int_bound 100_000))

(* A random multi-flow specification (what one .flow file holds). Flow
   names embed the seed and position, and message names are prefixed with
   the flow name, so the flows never clash when parsed back together. *)
let flows_of_seed seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 3 in
  List.init n (fun i ->
      layered_flow ~rng
        ~name:(Printf.sprintf "rand%d_%d" seed i)
        ~layers:(3 + Rng.int rng 2) ~max_per_layer:2 ~max_width:4 ~atomic_prob:0.2)

let flows_arb =
  QCheck.make
    ~print:(fun fs -> Spec_parser.print_flows fs)
    (QCheck.Gen.map flows_of_seed (QCheck.Gen.int_bound 100_000))

let interleaving_of_seed seed =
  let rng = Rng.create seed in
  let layers = 3 + Rng.int rng 2 in
  let f = layered_flow ~rng ~name:"f" ~layers ~max_per_layer:2 ~max_width:3 ~atomic_prob:0.2 in
  let g = layered_flow ~rng ~name:"g" ~layers ~max_per_layer:2 ~max_width:3 ~atomic_prob:0.2 in
  Interleave.make [ { Interleave.flow = f; index = 1 }; { Interleave.flow = g; index = 2 } ]

let interleaving_arb =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Interleave.pp i)
    (QCheck.Gen.map interleaving_of_seed (QCheck.Gen.int_bound 100_000))

(* ------------------------------------------------------------------ *)
(* Brute-force task contents *)

(* Candidates of task [i] of a [Combination.plan] over [messages],
   listed without any walk: the task's prefix takes plus any subset of
   the undecided suffix that fits the width the prefix left. *)
let task_candidates plan messages i =
  let pool = Array.of_list (Combination.canonical_pool messages) in
  let start = Combination.task_start plan i and rest = Combination.task_remaining plan i in
  let prefix = List.map (Array.get pool) (Combination.task_taken plan i) in
  let suffix = Array.to_list (Array.sub pool start (Array.length pool - start)) in
  let tails = if rest > 0 && suffix <> [] then Combination.enumerate suffix ~width:rest else [] in
  List.map (fun tail -> prefix @ tail) (if prefix = [] then tails else [] :: tails)

(* ------------------------------------------------------------------ *)
(* Random netlists for restoration soundness properties. *)

open Flowtrace_netlist

let random_netlist ?(n_inputs = 3) ?(n_gates = 24) ?(n_ffs = 6) seed =
  let rng = Rng.create seed in
  let b = Builder.create () in
  let nets = ref [] in
  let fresh net = nets := net :: !nets in
  for i = 0 to n_inputs - 1 do
    fresh (Builder.input b (Printf.sprintf "in%d" i))
  done;
  (* forward-declared FFs give sequential feedback loops *)
  let ffs = List.init n_ffs (fun i -> Builder.ff_forward b ~name:(Printf.sprintf "r%d" i) ()) in
  List.iter fresh ffs;
  let pick () = Rng.pick rng !nets in
  for _ = 1 to n_gates do
    let g =
      match Rng.int rng 8 with
      | 0 -> Builder.buf b (pick ())
      | 1 -> Builder.not_ b (pick ())
      | 2 -> Builder.and_ b [ pick (); pick () ]
      | 3 -> Builder.or_ b [ pick (); pick () ]
      | 4 -> Builder.xor b [ pick (); pick () ]
      | 5 -> Builder.nand b [ pick (); pick () ]
      | 6 -> Builder.nor b [ pick (); pick () ]
      | _ -> Builder.mux b ~sel:(pick ()) ~a:(pick ()) ~b:(pick ()) ()
    in
    fresh g
  done;
  List.iter (fun q -> Builder.connect b q (Rng.pick rng !nets)) ffs;
  (match !nets with last :: _ -> Builder.output b last | [] -> ());
  Builder.finish b
