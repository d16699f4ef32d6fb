(* Ablations of the design choices DESIGN.md calls out (not in the paper):
   exact vs maximal vs greedy candidate search, packing with/without
   partial-width scaling, and a trace-buffer width sweep. *)

open Flowtrace_core
open Flowtrace_soc

let strategy_table () =
  let rows =
    List.concat_map
      (fun sc ->
        let inter = Scenario.interleave sc in
        List.map
          (fun (label, strategy) ->
            let t0 = Sys.time () in
            let r = Select.select ~strategy ~pack:false inter ~buffer_width:32 in
            let dt = Sys.time () -. t0 in
            [
              sc.Scenario.name;
              label;
              Table_render.f4 r.Select.gain;
              Table_render.pct r.Select.coverage;
              Table_render.pct (Select.utilization r);
              Printf.sprintf "%.1f ms" (1000.0 *. dt);
            ])
          Select.strategies)
      Scenario.all
  in
  Table_render.make ~title:"Ablation A: Step-2 candidate search strategy (no packing)"
    ~notes:[ "greedy trades a little gain for linear-time search — the scalability knob" ]
    ~header:[ "Scenario"; "Strategy"; "Gain"; "FSP coverage"; "Utilization"; "Search time" ]
    rows

let packing_table () =
  let rows =
    List.concat_map
      (fun sc ->
        let inter = Scenario.interleave sc in
        List.map
          (fun (label, pack, scale) ->
            let r =
              Select.select ~strategy:Select.Greedy ~pack ~scale_partial:scale inter
                ~buffer_width:32
            in
            [
              sc.Scenario.name;
              label;
              Table_render.f4 r.Select.gain;
              Table_render.pct r.Select.coverage;
              Table_render.pct (Select.utilization r);
              String.concat "," (List.map Packing.qualified r.Select.packed);
            ])
          [ ("no packing", false, false); ("packing", true, false); ("packing scaled", true, true) ])
      Scenario.all
  in
  Table_render.make ~title:"Ablation B: Step-3 packing variants"
    ~notes:[ "'scaled' weighs packed subgroups by captured bit fraction (paper uses unscaled)" ]
    ~header:[ "Scenario"; "Variant"; "Gain"; "FSP coverage"; "Utilization"; "Packed" ]
    rows

let width_sweep_table () =
  let widths = [ 16; 24; 32; 48; 64 ] in
  let rows =
    List.concat_map
      (fun sc ->
        let inter = Scenario.interleave sc in
        List.map
          (fun w ->
            let r = Select.select ~strategy:Select.Greedy inter ~buffer_width:w in
            [
              sc.Scenario.name;
              string_of_int w;
              string_of_int (List.length r.Select.messages);
              Table_render.f4 r.Select.gain;
              Table_render.pct r.Select.coverage;
              Table_render.pct (Select.utilization r);
            ])
          widths)
      Scenario.all
  in
  Table_render.make ~title:"Ablation C: trace-buffer width sweep"
    ~notes:[ "coverage saturates once the buffer holds the informative messages" ]
    ~header:[ "Scenario"; "Width"; "Messages"; "Gain"; "FSP coverage"; "Utilization" ]
    rows

(* Ablation F: the paper's uniform state prior vs a path-frequency prior.
   The selection metric changes value but (on these scenarios) rarely the
   ranking of the best combinations — evidence the uniformity assumption
   is not load-bearing. *)
let prior_table () =
  let rows =
    List.concat_map
      (fun sc ->
        let inter = Scenario.interleave sc in
        let r = Select.select ~strategy:Select.Greedy ~pack:false inter ~buffer_width:32 in
        let sel b = Select.is_observable r b in
        let uniform =
          Infogain.compute_with_prior inter ~selected:sel ~prior:(Infogain.uniform_prior inter)
        in
        let visit =
          Infogain.compute_with_prior inter ~selected:sel ~prior:(Infogain.visit_prior inter)
        in
        [
          [
            sc.Scenario.name;
            String.concat "," (List.map (fun (m : Message.t) -> m.Message.name) r.Select.messages);
            Table_render.f4 uniform;
            Table_render.f4 visit;
          ];
        ])
      Scenario.all
  in
  Table_render.make ~title:"Ablation F: state prior — uniform (paper) vs path-frequency"
    ~notes:
      [
        "gain of the greedy 32-bit selection under each prior; the paper assumes p(x) = 1/|S|";
      ]
    ~header:[ "Scenario"; "Selection"; "Gain (uniform)"; "Gain (visit)" ]
    rows

let run () = [ strategy_table (); packing_table (); width_sweep_table (); prior_table () ]
