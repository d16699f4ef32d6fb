(* Telemetry sinks. Writing sinks serialize with a mutex: spans may be
   emitted concurrently by the worker domains of a parallel selection. *)

type t = { emit : Event.t -> unit; close : unit -> unit }

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

let memory () =
  let mu = Mutex.create () in
  let events = ref [] in
  let emit ev = Mutex.protect mu (fun () -> events := ev :: !events) in
  ({ emit; close = (fun () -> ()) }, fun () -> Mutex.protect mu (fun () -> List.rev !events))

(* --- text ----------------------------------------------------------- *)

let value_str = function
  | Event.Int i -> string_of_int i
  | Event.Float f -> Printf.sprintf "%g" f
  | Event.Str s -> s
  | Event.Bool b -> string_of_bool b

let args_str = function
  | [] -> ""
  | args ->
      "  {" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ value_str v) args) ^ "}"

let text oc =
  let mu = Mutex.create () in
  let emit ev =
    Mutex.protect mu @@ fun () ->
    (match ev with
    | Event.Meta kvs -> Printf.fprintf oc "meta%s\n" (args_str kvs)
    | Event.Span s ->
        Printf.fprintf oc "span      %-32s %12.1f us  (domain %d)%s\n" s.Event.sp_name
          s.Event.sp_dur_us s.Event.sp_domain (args_str s.Event.sp_args)
    | Event.Metric (Event.Counter c) ->
        Printf.fprintf oc "counter   %-32s %12d\n" c.Event.c_name c.Event.c_value
    | Event.Metric (Event.Gauge g) ->
        Printf.fprintf oc "gauge     %-32s %12g\n" g.Event.g_name g.Event.g_value
    | Event.Metric (Event.Histogram h) ->
        Printf.fprintf oc "histogram %-32s %12d obs  sum %g  min %g  max %g\n" h.Event.h_name
          h.Event.h_count h.Event.h_sum h.Event.h_min h.Event.h_max);
    flush oc
  in
  { emit; close = (fun () -> flush oc) }

(* --- JSONL ---------------------------------------------------------- *)

let jsonl oc =
  let mu = Mutex.create () in
  let emit ev =
    Mutex.protect mu @@ fun () ->
    output_string oc (Json.to_string (Event.to_json ev));
    output_char oc '\n'
  in
  { emit; close = (fun () -> flush oc) }

(* --- Chrome trace_event --------------------------------------------- *)

(* The about://tracing JSON array format: spans as "X" (complete) events
   with one track (tid) per domain, metrics as "C" counter samples stamped
   at the latest span end seen so the counter track aligns with the run's
   end. *)
let chrome oc =
  let mu = Mutex.create () in
  let first = ref true in
  let last_ts = ref 0.0 in
  let emit_json j =
    if !first then begin
      output_string oc "[\n";
      first := false
    end
    else output_string oc ",\n";
    output_string oc (Json.to_string j)
  in
  let counter_sample name args =
    Json.Obj
      [
        ("name", Json.String name); ("ph", Json.String "C"); ("ts", Json.Float !last_ts);
        ("pid", Json.Int 1); ("tid", Json.Int 0); ("args", Json.Obj args);
      ]
  in
  let emit ev =
    Mutex.protect mu @@ fun () ->
    match ev with
    | Event.Meta kvs ->
        emit_json
          (Json.Obj
             [
               ("name", Json.String "process_name"); ("ph", Json.String "M");
               ("pid", Json.Int 1); ("tid", Json.Int 0);
               ( "args",
                 Json.Obj
                   (("name", Json.String "flowtrace")
                   :: List.map (fun (k, v) -> (k, Event.value_to_json v)) kvs) );
             ])
    | Event.Span s ->
        last_ts := Float.max !last_ts (s.Event.sp_start_us +. s.Event.sp_dur_us);
        let id_args =
          ("span_id", Json.Int s.Event.sp_id)
          :: (match s.Event.sp_parent with
             | Some p -> [ ("parent_id", Json.Int p) ]
             | None -> [])
          @ List.map (fun (k, v) -> (k, Event.value_to_json v)) s.Event.sp_args
        in
        emit_json
          (Json.Obj
             [
               ("name", Json.String s.Event.sp_name); ("cat", Json.String "flowtrace");
               ("ph", Json.String "X"); ("ts", Json.Float s.Event.sp_start_us);
               ("dur", Json.Float s.Event.sp_dur_us); ("pid", Json.Int 1);
               ("tid", Json.Int s.Event.sp_domain); ("args", Json.Obj id_args);
             ])
    | Event.Metric (Event.Counter c) ->
        emit_json (counter_sample c.Event.c_name [ ("value", Json.Int c.Event.c_value) ])
    | Event.Metric (Event.Gauge g) ->
        emit_json (counter_sample g.Event.g_name [ ("value", Json.Float g.Event.g_value) ])
    | Event.Metric (Event.Histogram h) ->
        let mean =
          if h.Event.h_count = 0 then 0.0 else h.Event.h_sum /. float_of_int h.Event.h_count
        in
        emit_json
          (counter_sample h.Event.h_name
             [ ("count", Json.Int h.Event.h_count); ("mean", Json.Float mean) ])
  in
  let close () =
    Mutex.protect mu @@ fun () ->
    if !first then output_string oc "[\n";
    output_string oc "\n]\n";
    flush oc
  in
  { emit; close }

(* --- file dispatch -------------------------------------------------- *)

let of_path path =
  let oc = open_out path in
  let inner =
    match String.lowercase_ascii (Filename.extension path) with
    | ".jsonl" -> jsonl oc
    | ".json" | ".trace" -> chrome oc
    | _ -> text oc
  in
  {
    emit = inner.emit;
    close =
      (fun () ->
        inner.close ();
        close_out oc);
  }
