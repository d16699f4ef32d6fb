(* Graphviz export of flows and interleavings: initial states as double
   circles, atomic states shaded, stop states as double octagons, selected
   messages highlightable. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter (function '"' -> Buffer.add_string buf "\\\"" | c -> Buffer.add_char buf c) s;
  Buffer.contents buf

let node_attrs ~initial ~stop ~atomic =
  let shape =
    if stop then "doubleoctagon" else if initial then "doublecircle" else "circle"
  in
  let fill = if atomic then ", style=filled, fillcolor=lightgoldenrod" else "" in
  Printf.sprintf "shape=%s%s" shape fill

let of_flow (f : Flow.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  rankdir=LR;\n" (escape f.Flow.name));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [%s];\n" (escape s)
           (node_attrs ~initial:(Flow.is_initial f s) ~stop:(Flow.is_stop f s)
              ~atomic:(Flow.is_atomic f s))))
    f.Flow.states;
  List.iter
    (fun (tr : Flow.transition) ->
      let m = Flow.message_exn f tr.Flow.t_msg in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"];\n" (escape tr.Flow.t_src)
           (escape tr.Flow.t_dst)
           (escape (Message.to_string m))))
    f.Flow.transitions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Interleavings can be large; [max_states] guards accidental exports of
   huge products. [selected] highlights the traced messages' edges. *)
let of_interleave ?(max_states = 500) ?(selected = fun _ -> false) inter =
  let n = Interleave.n_states inter in
  if n > max_states then
    invalid_arg
      (Printf.sprintf "Dot.of_interleave: %d states exceed the %d-state limit" n max_states);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph interleaving {\n  rankdir=LR;\n";
  let initials = Interleave.initials inter in
  for s = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %d [label=\"%s\", %s];\n" s
         (escape (Interleave.state_name inter s))
         (node_attrs ~initial:(List.mem s initials) ~stop:(Interleave.is_stop inter s)
            ~atomic:false))
  done;
  Interleave.iter_edges inter (fun src l dst ->
      let msg = Interleave.label inter l in
      let hl =
        if selected msg.Indexed.base then ", color=red, fontcolor=red, penwidth=2.0" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\"%s];\n" src dst
           (escape (Indexed.to_string msg))
           hl));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
