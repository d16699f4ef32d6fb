(* Extension flows beyond the paper's five: the DMA read and DMA write
   paths through PIU -> DMU -> SIU, the other traffic class the fc1
   regression environment exercises. Kept separate from {!T2.flows} so the
   paper's 16-message inventory (Table 5) is untouched; a fourth,
   extension-only usage scenario combines them with PIO traffic. *)

open Flowtrace_core

let msg = Message.make
let sub = Message.subgroup

(* DMA read (5 states, 4 messages): PIU requests, DMU fetches via SIU. *)
let dmar =
  Flow.make ~name:"DMAR"
    ~states:[ "r_idle"; "r_req"; "r_mem"; "r_ret"; "r_done" ]
    ~initial:[ "r_idle" ] ~stop:[ "r_done" ] ~atomic:[ "r_ret" ]
    ~messages:
      [
        msg ~src:"PIU" ~dst:"DMU" "dmardreq" 13;
        msg ~src:"DMU" ~dst:"SIU" "dmasiird" 11;
        msg ~src:"SIU" ~dst:"DMU" ~subgroups:[ sub "dmatag" 4; sub "dmadata" 8 ] "dmardata" 21;
        msg ~src:"DMU" ~dst:"PIU" "dmapiurd" 15;
      ]
    ~transitions:
      [
        Flow.transition "r_idle" "dmardreq" "r_req";
        Flow.transition "r_req" "dmasiird" "r_mem";
        Flow.transition "r_mem" "dmardata" "r_ret";
        Flow.transition "r_ret" "dmapiurd" "r_done";
      ]
    ()

(* DMA write (4 states, 3 messages): posted write with acknowledge. *)
let dmaw =
  Flow.make ~name:"DMAW"
    ~states:[ "w_idle"; "w_req"; "w_commit"; "w_done" ]
    ~initial:[ "w_idle" ] ~stop:[ "w_done" ]
    ~messages:
      [
        msg ~src:"PIU" ~dst:"DMU" ~subgroups:[ sub "dmawaddr" 10; sub "dmawdata" 8 ] "dmawrreq" 19;
        msg ~src:"DMU" ~dst:"SIU" "dmasiiwr" 14;
        msg ~src:"DMU" ~dst:"PIU" "dmawrack" 3;
      ]
    ~transitions:
      [
        Flow.transition "w_idle" "dmawrreq" "w_req";
        Flow.transition "w_req" "dmasiiwr" "w_commit";
        Flow.transition "w_commit" "dmawrack" "w_done";
      ]
    ()

let flows = [ dmar; dmaw ]

(* Payload semantics: delegate to the T2 scoreboard for the paper's
   messages, handle the DMA vocabulary here. DMA addresses live in their
   own memory region so they never collide with PIO traffic. *)
let payload t inst (m : Message.t) =
  let g = Sim.env_get inst in
  let mem = Sim.memory t in
  let mask = Array.length mem - 1 in
  match m.Message.name with
  | "dmardreq" -> [ ("addr", g "addr") ]
  | "dmasiird" ->
      Sim.env_set inst "expected" mem.(g "addr" land mask);
      [ ("addr", g "addr") ]
  | "dmardata" -> [ ("data", mem.(g "addr" land mask)); ("tag", g "addr" land 0xF) ]
  | "dmapiurd" -> [ ("data", g "rdata") ]
  | "dmawrreq" -> [ ("addr", g "addr"); ("data", g "data") ]
  | "dmasiiwr" -> [ ("addr", g "wr_addr"); ("data", g "wr_data") ]
  | "dmawrack" -> [ ("ok", 1) ]
  | _ -> T2.semantics.Sim.payload t inst m

let on_deliver t inst (p : Packet.t) =
  let g = Sim.env_get inst in
  let s = Sim.env_set inst in
  let f = Packet.field_exn in
  let mem = Sim.memory t in
  let mask = Array.length mem - 1 in
  match p.Packet.msg with
  | "dmardreq" -> None
  | "dmasiird" -> None
  | "dmardata" ->
      s "rdata" (f p "data");
      None
  | "dmapiurd" ->
      if f p "data" <> g "expected" then Some "FAIL: DMA read returned wrong data" else None
  | "dmawrreq" ->
      s "wr_addr" (f p "addr");
      s "wr_data" (f p "data");
      None
  | "dmasiiwr" ->
      mem.(f p "addr" land mask) <- f p "data";
      None
  | "dmawrack" ->
      if mem.(g "addr" land mask) <> g "data" then Some "FAIL: DMA write did not commit"
      else None
  | _ -> T2.semantics.Sim.on_deliver t inst p

let semantics = { Sim.payload; on_deliver; gate = T2.semantics.Sim.gate }

let fresh_env ~rng ~slot (flow : Flow.t) =
  match flow.Flow.name with
  | "DMAR" -> [ ("addr", 768 + (slot land 127)) ]
  | "DMAW" -> [ ("addr", 640 + (slot land 127)); ("data", Rng.int rng 256) ]
  | _ -> T2.fresh_env ~rng ~slot flow

(* The extension usage scenario: DMA traffic racing PIO traffic through
   the same DMU. Analysis-scale instance set, globally uniquely indexed. *)
let scenario_flows = [ T2.pior; T2.piow; dmar; dmaw ]

let analysis_instances () = Result.get_ok (Interleave.instances scenario_flows [])

let interleave () = Interleave.make (analysis_instances ())

let run_analysis ?(seed = 1) ?(mutators = []) () =
  let sim = Sim.create ~config:{ Sim.default_config with seed } () in
  T2.install sim;
  List.iter (Sim.add_mutator sim) mutators;
  let env_rng = Rng.create (seed + 104729) in
  List.iter
    (fun (inst : Interleave.instance) ->
      let env = fresh_env ~rng:env_rng ~slot:inst.Interleave.index inst.Interleave.flow in
      ignore
        (Sim.add_instance sim ~flow:inst.Interleave.flow ~index:inst.Interleave.index
           ~start:(Rng.int env_rng 30) ~env))
    (analysis_instances ());
  Sim.run semantics sim;
  Sim.outcome sim
