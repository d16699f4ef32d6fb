(* Aggregation of a telemetry event stream into the tables `flowtrace
   stats` prints. Pure over Event.t lists so tests can feed it a
   Sink.memory capture directly. *)

type span_row = {
  sr_name : string;
  sr_count : int;
  sr_total_us : float;
  sr_min_us : float;
  sr_max_us : float;
}

type t = {
  meta : (string * Event.value) list;
  spans : span_row list;
  counters : Event.counter list;
  gauges : Event.gauge list;
  histograms : Event.histogram list;
}

let of_events evs =
  let meta = ref [] in
  let spans : (string, span_row) Hashtbl.t = Hashtbl.create 16 in
  let counters : (string, Event.counter) Hashtbl.t = Hashtbl.create 16 in
  let gauges : (string, Event.gauge) Hashtbl.t = Hashtbl.create 16 in
  let histograms : (string, Event.histogram) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | Event.Meta kvs -> if !meta = [] then meta := kvs
      | Event.Span s ->
          let d = s.Event.sp_dur_us in
          let row =
            match Hashtbl.find_opt spans s.Event.sp_name with
            | None ->
                {
                  sr_name = s.Event.sp_name;
                  sr_count = 1;
                  sr_total_us = d;
                  sr_min_us = d;
                  sr_max_us = d;
                }
            | Some r ->
                {
                  r with
                  sr_count = r.sr_count + 1;
                  sr_total_us = r.sr_total_us +. d;
                  sr_min_us = Float.min r.sr_min_us d;
                  sr_max_us = Float.max r.sr_max_us d;
                }
          in
          Hashtbl.replace spans s.Event.sp_name row
      | Event.Metric (Event.Counter c) -> Hashtbl.replace counters c.Event.c_name c
      | Event.Metric (Event.Gauge g) -> Hashtbl.replace gauges g.Event.g_name g
      | Event.Metric (Event.Histogram h) -> Hashtbl.replace histograms h.Event.h_name h)
    evs;
  let sorted tbl name =
    List.sort (fun a b -> String.compare (name a) (name b)) (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  in
  {
    meta = !meta;
    spans = sorted spans (fun r -> r.sr_name);
    counters = sorted counters (fun (c : Event.counter) -> c.Event.c_name);
    gauges = sorted gauges (fun (g : Event.gauge) -> g.Event.g_name);
    histograms = sorted histograms (fun (h : Event.histogram) -> h.Event.h_name);
  }

let load_jsonl path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line ->
            let trimmed = String.trim line in
            if trimmed = "" then go (lineno + 1) acc
            else if lineno = 1 && trimmed.[0] = '[' then
              Error
                (Printf.sprintf
                   "%s: looks like a Chrome trace (JSON array), not a JSONL telemetry file; \
                    record with a .jsonl path to get a replayable stream"
                   path)
            else
              match Json.parse trimmed with
              | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m)
              | Ok j -> (
                  match Event.of_json j with
                  | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m)
                  | Ok ev -> go (lineno + 1) (ev :: acc))
      in
      go 1 []

(* --- rendering ------------------------------------------------------ *)

let ms us = us /. 1000.0

let pp ppf t =
  let value_str = function
    | Event.Int i -> string_of_int i
    | Event.Float f -> Printf.sprintf "%g" f
    | Event.Str s -> s
    | Event.Bool b -> string_of_bool b
  in
  Format.fprintf ppf "@[<v>";
  if t.meta <> [] then begin
    Format.fprintf ppf "meta:@,";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-34s %s@," k (value_str v)) t.meta;
    Format.fprintf ppf "@,"
  end;
  if t.spans <> [] then begin
    Format.fprintf ppf "%-36s %8s %12s %12s %12s %12s@," "spans" "count" "total ms"
      "mean ms" "min ms" "max ms";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-34s %8d %12.3f %12.3f %12.3f %12.3f@," r.sr_name r.sr_count
          (ms r.sr_total_us)
          (ms (r.sr_total_us /. float_of_int r.sr_count))
          (ms r.sr_min_us) (ms r.sr_max_us))
      t.spans;
    Format.fprintf ppf "@,"
  end;
  if t.counters <> [] then begin
    Format.fprintf ppf "%-36s %12s@," "counters" "value";
    List.iter
      (fun (c : Event.counter) -> Format.fprintf ppf "  %-34s %12d@," c.Event.c_name c.Event.c_value)
      t.counters;
    Format.fprintf ppf "@,"
  end;
  if t.gauges <> [] then begin
    Format.fprintf ppf "%-36s %12s@," "gauges" "value";
    List.iter
      (fun (g : Event.gauge) -> Format.fprintf ppf "  %-34s %12g@," g.Event.g_name g.Event.g_value)
      t.gauges;
    Format.fprintf ppf "@,"
  end;
  if t.histograms <> [] then begin
    Format.fprintf ppf "%-36s %8s %12s %12s %12s@," "histograms" "count" "mean" "min" "max";
    List.iter
      (fun (h : Event.histogram) ->
        let mean = if h.Event.h_count = 0 then 0.0 else h.Event.h_sum /. float_of_int h.Event.h_count in
        Format.fprintf ppf "  %-34s %8d %12.3f %12g %12g@," h.Event.h_name h.Event.h_count
          mean h.Event.h_min h.Event.h_max)
      t.histograms
  end;
  Format.fprintf ppf "@]"
