(* Seeded workload inputs and the answer oracle.

   Everything a run sends is a pure function of (workload, seed): the
   resident sessions, each client's request stream, the localize
   observations and the packet traces to mine. Before anything is timed,
   the oracle computes every distinct answer those requests can produce
   with the library directly; {!check} then compares each daemon or CLI
   response against it. *)

open Flowtrace_core
module Json = Flowtrace_analysis.Json
module Scenario = Flowtrace_soc.Scenario
module Stress = Flowtrace_soc.Stress
module Trace_io = Flowtrace_soc.Trace_io
module Miner = Flowtrace_mining.Miner
module Dispatch = Flowtrace_service.Dispatch
module Server = Flowtrace_service.Server

type session = {
  id : string;
  spec : string;  (** flow-spec text, as the open-session request carries it *)
  key : string;  (** spec + instance mix: identifies the interleaving *)
  mix : (string * int) list;
  width : int;  (** session default width (localize uses it) *)
}

(** One localize input: a seeded legal execution of the session's
    interleaving, projected onto the session-width selection — what the
    trace buffer would have captured — with the library's answer. *)
type observation = {
  ob_trace : string list;  (** ["IDX:NAME"] entries *)
  ob_selection : string list;
  ob_consistent : int;
  ob_total : int;
}

(** One packet trace to mine, with the library's mined spec. *)
type trace = { tr_text : string; tr_spec : string }

type op =
  | Open of session
  | Select of session * int  (** width *)
  | Localize of session * int  (** index into [observations] *)
  | Mine of session * int  (** index into [traces] *)
  | Close of session

type kind = Daemon | Cli

type t = {
  name : string;
  seed : int;
  kind : kind;
  shards : int;  (** the daemon's default shard count *)
  clients : int;
  state_dir : bool;  (** run the daemon with --state-dir *)
  resident : session list;  (** opened during set-up *)
  gen : int -> unit -> op;  (** [gen c] is a fresh copy of client [c]'s stream *)
  replay_ops : int;  (** requests per client in the traced replay *)
  probes : op list;  (** layer probes for layers the stream does not reach *)
  observations : observation array;
  traces : trace array;
  inters : (string, Interleave.t) Hashtbl.t;  (** key -> interleaving *)
  selects : (string * int, Select.result) Hashtbl.t;  (** (key, width) -> answer *)
}

let names = [ "select-hot"; "select-spread"; "session-lifecycle"; "cli-select" ]
let t2_path = "specs/t2.flow"

(* ------------------------------------------------------------------ *)
(* Building interleavings the way the daemon and the CLI do *)

let instances flows mix =
  let next = ref 0 in
  List.concat_map
    (fun (name, n) ->
      match List.find_opt (fun f -> String.equal f.Flow.name name) flows with
      | None -> []
      | Some f ->
          List.init n (fun _ ->
              incr next;
              { Interleave.flow = f; index = !next }))
    mix

let mix_key spec_name mix =
  spec_name ^ ":" ^ String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) mix)

(* ------------------------------------------------------------------ *)
(* Request lines *)

let str s = Json.String s

let line_of w op =
  let obj fields = Json.to_string (Json.Obj fields) in
  match op with
  | Open s ->
      obj
        [
          ("op", str "open-session");
          ("session", str s.id);
          ("spec", str s.spec);
          ("width", Json.Int s.width);
          ("instances", Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) s.mix));
        ]
  | Select (s, width) ->
      obj [ ("op", str "select"); ("session", str s.id); ("width", Json.Int width) ]
  | Localize (s, i) ->
      obj
        [
          ("op", str "localize");
          ("session", str s.id);
          ("trace", Json.List (List.map str w.observations.(i).ob_trace));
        ]
  | Mine (s, i) ->
      obj [ ("op", str "mine"); ("session", str s.id); ("trace_text", str w.traces.(i).tr_text) ]
  | Close s -> obj [ ("op", str "close"); ("session", str s.id) ]

let is_select = function Select _ -> true | _ -> false
let is_open = function Open _ -> true | _ -> false

(* argv of the CLI run equivalent to a select op *)
let cli_argv ~flowtrace = function
  | Select (s, w) ->
      Array.of_list
        ([ flowtrace; "select"; t2_path ]
        @ List.concat_map (fun (n, c) -> [ "-i"; Printf.sprintf "%s=%d" n c ]) s.mix
        @ [ "-w"; string_of_int w ])
  | _ -> invalid_arg "cli_argv"

let render r = Format.asprintf "%a@." Select.pp_result r

(* ------------------------------------------------------------------ *)
(* Checking responses against the oracle *)

let gain_bits g = Printf.sprintf "%016Lx" (Int64.bits_of_float g)

let strings = function
  | Some (Json.List l) -> Some (List.filter_map Json.to_string_opt l)
  | _ -> None

let int_field j k = Option.bind (Json.member k j) Json.to_int_opt
let str_field j k = Option.bind (Json.member k j) Json.to_string_opt

let expected_select w s width =
  match Hashtbl.find_opt w.selects (s.key, width) with
  | Some r -> r
  | None -> invalid_arg "oracle has no answer for this select"

(* [check w op resp] is [Ok ()] when the response line carries status
   ok and the library's answer, else [Error why]. *)
let check w op resp =
  match Json.parse resp with
  | Error m -> Error ("unparsable response: " ^ m)
  | Ok j -> (
      let ( let* ) = Result.bind in
      let expect what ok = if ok then Ok () else Error ("wrong " ^ what) in
      let* () =
        match str_field j "status" with
        | Some "ok" -> Ok ()
        | st ->
            Error
              (Printf.sprintf "status %s: %s" (Option.value ~default:"?" st)
                 (Option.value ~default:"" (str_field j "error")))
      in
      match op with
      | Open s ->
          let inter = Hashtbl.find w.inters s.key in
          let* () = expect "session" (str_field j "session" = Some s.id) in
          expect "messages"
            (int_field j "messages" = Some (List.length (Interleave.messages inter)))
      | Select (s, width) ->
          let r = expected_select w s width in
          let* () =
            expect "selected" (strings (Json.member "selected" j) = Some (Select.selected_names r))
          in
          let* () = expect "gain_bits" (str_field j "gain_bits" = Some (gain_bits r.Select.gain)) in
          expect "bits_used" (int_field j "bits_used" = Some r.Select.bits_used)
      | Localize (_, i) ->
          let o = w.observations.(i) in
          let* () = expect "selection" (strings (Json.member "selection" j) = Some o.ob_selection) in
          let* () = expect "consistent" (int_field j "consistent" = Some o.ob_consistent) in
          expect "total" (int_field j "total" = Some o.ob_total)
      | Mine (_, i) -> expect "mined spec" (str_field j "spec" = Some w.traces.(i).tr_spec)
      | Close s -> expect "session" (str_field j "session" = Some s.id))

(* ------------------------------------------------------------------ *)
(* The oracle *)

let select_exn inter width = Select.select ~strategy:Select.Exact inter ~buffer_width:width

let add_session w s =
  if not (Hashtbl.mem w.inters s.key) then begin
    let flows = Spec_parser.parse_string s.spec in
    Hashtbl.replace w.inters s.key (Interleave.make (instances flows s.mix))
  end

let add_select w s width =
  add_session w s;
  if not (Hashtbl.mem w.selects (s.key, width)) then
    Hashtbl.replace w.selects (s.key, width) (select_exn (Hashtbl.find w.inters s.key) width)

(* A seeded random walk from an initial state to a stop state. *)
let random_execution rs inter =
  let inits = Array.of_list (Interleave.initials inter) in
  let rec walk s acc steps =
    let outs = Interleave.out_edges inter s in
    if Interleave.is_stop inter s && (outs = [] || Random.State.int rs 4 = 0) then
      Some (List.rev acc)
    else if outs = [] || steps > 100_000 then None
    else
      let m, d = List.nth outs (Random.State.int rs (List.length outs)) in
      walk d (m :: acc) (steps + 1)
  in
  let rec go tries =
    if tries > 1000 then failwith "no legal execution found";
    match walk inits.(Random.State.int rs (Array.length inits)) [] 0 with
    | Some e -> e
    | None -> go (tries + 1)
  in
  go 0

let observation rs w s =
  add_session w s;
  let inter = Hashtbl.find w.inters s.key in
  let sel = select_exn inter s.width in
  let selected b = Select.is_observable sel b in
  let observed = Localize.project ~selected (random_execution rs inter) in
  {
    ob_trace = List.map Indexed.to_string observed;
    ob_selection = Select.selected_names sel;
    ob_consistent = Localize.consistent_paths ~semantics:Localize.Prefix inter ~selected ~observed;
    ob_total = Interleave.total_paths inter;
  }

let mine_text text =
  let r = Miner.mine ~file:"<request>" [ Trace_io.parse text ] in
  if Miner.degraded r.Miner.r_diags then failwith "oracle: mined trace is degraded";
  Miner.spec_text r

(* A seeded simulation of T2 scenario [k], as [flowtrace simulate -o]
   writes it. *)
let sim_trace rs k =
  let sc = Scenario.by_id k in
  let config = { Scenario.seed = Random.State.bits rs; rounds = 6; spacing = 120 } in
  let text = Trace_io.print (Scenario.run ~config sc).Flowtrace_soc.Sim.packets in
  { tr_text = text; tr_spec = mine_text text }

(* ------------------------------------------------------------------ *)
(* Workloads *)

let t2_mix k = (Scenario.by_id k).Scenario.analysis_counts

let t2_session ~spec ~id mix = { id; spec; key = mix_key "t2" mix; mix; width = 32 }

(* Session ids hashed by the daemon's own shard function. *)
let shard_of =
  let d, _ = Dispatch.create ~shards:Server.default.Server.shards () in
  Dispatch.shard_of d

let fresh_id rs prefix = Printf.sprintf "%s-%06x" prefix (Random.State.bits rs land 0xffffff)

let client_rs seed c = Random.State.make [| seed; 7919; c |]

let shuffle rs l = List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rs, x)) l))

let base ~name ~seed ~kind ~clients ~state_dir ~replay_ops =
  {
    name;
    seed;
    kind;
    shards = Server.default.Server.shards;
    clients;
    state_dir;
    resident = [];
    gen = (fun _ () -> assert false);
    replay_ops;
    probes = [];
    observations = [||];
    traces = [||];
    inters = Hashtbl.create 16;
    selects = Hashtbl.create 64;
  }

(* Probes for layers a select-only stream never reaches: per session,
   open → localize → mine → close. Session ids get a [p] prefix so they
   never collide with resident ones. *)
let with_probes w rs sessions =
  let sessions = List.map (fun s -> { s with id = "p" ^ s.id }) sessions in
  let observations = Array.of_list (List.map (fun s -> observation rs w s) sessions) in
  let traces = Array.init 2 (fun _ -> sim_trace rs (1 + Random.State.int rs 3)) in
  let probes =
    List.concat
      (List.mapi
         (fun i s -> [ Open s; Localize (s, i); Mine (s, i mod 2); Close s ])
         sessions)
  in
  { w with observations; traces; probes }

let select_hot ~spec seed =
  let rs = Random.State.make [| seed; 1 |] in
  let s = t2_session ~spec ~id:(fresh_id rs "hot") (t2_mix 1) in
  let w = base ~name:"select-hot" ~seed ~kind:Daemon ~clients:2 ~state_dir:false ~replay_ops:1500 in
  for width = 16 to 48 do
    add_select w s width
  done;
  let w = with_probes w rs [ s ] in
  let gen c =
    let rs = client_rs seed c in
    fun () -> Select (s, 16 + Random.State.int rs 33)
  in
  { w with resident = [ s ]; gen }

let stress_spec = lazy (Spec_parser.print_flows Stress.flows)

let select_spread seed =
  let rs = Random.State.make [| seed; 2 |] in
  let spec = Lazy.force stress_spec in
  let w =
    base ~name:"select-spread" ~seed ~kind:Daemon ~clients:2 ~state_dir:false ~replay_ops:48
  in
  (* eight sessions from the neighbourhood of the canonical stress
     instance set (STA x2, STB x1, STC x2; 5400 states): that set four
     times, (2,2,1) and (1,2,2) twice each (6300 and 5250 states, all on
     the full 19-message pool), each in a seeded flow order, which
     renumbers the instances. The fixed set keeps the figures steady
     across seeds; the larger mixes would swamp them (STA x2, STB x2,
     STC x2 has 31500 states, and its evaluator alone costs ten times any
     other session's select). Placed two per shard, in seeded order. *)
  let mixes =
    shuffle rs
      (List.map
         (fun (a, b, c) -> shuffle rs [ ("STA", a); ("STB", b); ("STC", c) ])
         [ (2, 1, 2); (2, 1, 2); (2, 1, 2); (2, 1, 2); (2, 2, 1); (2, 2, 1); (1, 2, 2); (1, 2, 2) ])
  in
  let per_shard = Array.make w.shards 0 in
  let cap = (List.length mixes + w.shards - 1) / w.shards in
  let rec pick_id () =
    let id = fresh_id rs "spr" in
    let sh = shard_of id in
    if per_shard.(sh) >= cap then pick_id ()
    else begin
      per_shard.(sh) <- per_shard.(sh) + 1;
      id
    end
  in
  let sessions =
    List.map
      (fun mix ->
        { id = pick_id (); spec; key = mix_key "stress" mix; mix; width = Stress.default_buffer_width })
      mixes
  in
  List.iter (fun s -> for width = 16 to 24 do add_select w s width done) sessions;
  let w = with_probes w rs sessions in
  (* Client 0 cycles over the four sessions on the lower half of the
     shards, client 1 over the four on the upper half: both keep evicting
     each other's evaluator from the one-slot cache, but never wait on the
     same shard lock. Sharing the sessions would let the seeded placement
     decide how often the two clients collide on a shard, and that, not
     the program, would set the figures. *)
  let half c =
    Array.of_list (List.filter (fun s -> shard_of s.id * 2 / w.shards = c) sessions)
  in
  let gen c =
    let rs = client_rs seed c and mine = half c in
    let next = ref 0 in
    fun () ->
      let s = mine.(!next mod Array.length mine) in
      incr next;
      Select (s, 16 + Random.State.int rs 9)
  in
  { w with resident = sessions; gen }

(* Each client repeats open → select ×2 → localize → mine → close on a
   fresh session, walking a seeded order of a pool of templates. The
   pool holds every (scenario mix, first width) pair once, and the traces
   to mine each scenario equally often: the seed decides the order, the
   second widths, the localize executions and the trace contents, but
   not how much of each kind of work a run does. (Scenario 3's
   interleaving is several times the others': with a seeded share of it,
   the seed, not the program, set the figures.) *)
let session_lifecycle ~spec seed =
  let rs = Random.State.make [| seed; 3 |] in
  let w =
    base ~name:"session-lifecycle" ~seed ~kind:Daemon ~clients:2 ~state_dir:true ~replay_ops:240
  in
  let n_widths = 33 and n_traces = 12 in
  let n_templates = 3 * n_widths in
  let templates =
    Array.init n_templates (fun i ->
        let s = t2_session ~spec ~id:"" (t2_mix (1 + (i / n_widths))) in
        let w1 = 16 + (i mod n_widths) and w2 = 16 + Random.State.int rs n_widths in
        add_select w s w1;
        add_select w s w2;
        (s, w1, w2, observation rs w s, i mod n_traces))
  in
  let traces = Array.init n_traces (fun k -> sim_trace rs (1 + (k mod 3))) in
  let observations = Array.map (fun (_, _, _, o, _) -> o) templates in
  let order = Array.of_list (shuffle rs (List.init n_templates Fun.id)) in
  let gen c =
    (* the clients walk the one order from opposite ends of it *)
    let cycle = ref 0 and queue = ref [] in
    fun () ->
      (match !queue with
      | [] ->
          let i = order.(((c * n_templates / 2) + !cycle) mod n_templates) in
          let s, w1, w2, _, tr = templates.(i) in
          let s = { s with id = Printf.sprintf "lc%d-%d" c !cycle } in
          incr cycle;
          queue := [ Open s; Select (s, w1); Select (s, w2); Localize (s, i); Mine (s, tr); Close s ]
      | _ -> ());
      match !queue with
      | op :: rest ->
          queue := rest;
          op
      | [] -> assert false
  in
  { w with observations; traces; gen }

(* One caller at a time runs [flowtrace select specs/t2.flow] with a
   seeded scenario mix and width. The three mixes are also resident
   sessions, so the traced run can replay the same selects in process. *)
let cli_select ~spec seed =
  let rs = Random.State.make [| seed; 4 |] in
  let w = base ~name:"cli-select" ~seed ~kind:Cli ~clients:1 ~state_dir:false ~replay_ops:600 in
  let sessions =
    List.map (fun k -> t2_session ~spec ~id:(fresh_id rs (Printf.sprintf "cli%d" k)) (t2_mix k)) [ 1; 2; 3 ]
  in
  List.iter (fun s -> for width = 16 to 48 do add_select w s width done) sessions;
  let w = with_probes w rs sessions in
  let arr = Array.of_list sessions in
  let gen c =
    let rs = client_rs seed c in
    fun () -> Select (arr.(Random.State.int rs 3), 16 + Random.State.int rs 33)
  in
  { w with resident = sessions; gen }

let make name seed =
  let spec = Util.read_file t2_path in
  match name with
  | "select-hot" -> select_hot ~spec seed
  | "select-spread" -> select_spread seed
  | "session-lifecycle" -> session_lifecycle ~spec seed
  | "cli-select" -> cli_select ~spec seed
  | other -> Util.fail "unknown workload %S (one of: %s)" other (String.concat ", " names)

(* The first [n] ops of every client's stream, interleaved c0, c1, c0, ...
   as two closed-loop clients would issue them. Tagged with the client. *)
let replay_stream w =
  let gens = Array.init w.clients w.gen in
  List.concat
    (List.init w.replay_ops (fun _ -> List.init w.clients (fun c -> (c, gens.(c) ()))))
