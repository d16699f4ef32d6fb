(* Telemetry event vocabulary and its canonical JSON encoding (the JSONL
   sink writes [to_json] verbatim, one object per line; Summary parses it
   back with [of_json] — the round trip is exact, which the telemetry
   tests pin). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  sp_name : string;
  sp_id : int;
  sp_parent : int option;
  sp_domain : int;
  sp_start_us : float;
  sp_dur_us : float;
  sp_args : (string * value) list;
}

type counter = { c_name : string; c_value : int }
type gauge = { g_name : string; g_value : float }
type histogram = { h_name : string; h_count : int; h_sum : float; h_min : float; h_max : float }
type metric = Counter of counter | Gauge of gauge | Histogram of histogram
type t = Meta of (string * value) list | Span of span | Metric of metric

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let equal (a : t) (b : t) = a = b

(* --- JSON encoding -------------------------------------------------- *)

let value_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let args_to_json args = Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) args)

let to_json = function
  | Meta kvs -> Json.Obj [ ("type", Json.String "meta"); ("args", args_to_json kvs) ]
  | Span s ->
      Json.Obj
        ([ ("type", Json.String "span"); ("name", Json.String s.sp_name);
           ("id", Json.Int s.sp_id) ]
        @ (match s.sp_parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
        @ [
            ("domain", Json.Int s.sp_domain);
            ("start_us", Json.Float s.sp_start_us);
            ("dur_us", Json.Float s.sp_dur_us);
            ("args", args_to_json s.sp_args);
          ])
  | Metric (Counter c) ->
      Json.Obj
        [ ("type", Json.String "counter"); ("name", Json.String c.c_name);
          ("value", Json.Int c.c_value) ]
  | Metric (Gauge g) ->
      Json.Obj
        [ ("type", Json.String "gauge"); ("name", Json.String g.g_name);
          ("value", Json.Float g.g_value) ]
  | Metric (Histogram h) ->
      Json.Obj
        [
          ("type", Json.String "histogram"); ("name", Json.String h.h_name);
          ("count", Json.Int h.h_count); ("sum", Json.Float h.h_sum);
          ("min", Json.Float h.h_min); ("max", Json.Float h.h_max);
        ]

(* --- JSON decoding -------------------------------------------------- *)

let value_of_json = function
  | Json.Int i -> Some (Int i)
  | Json.Float f -> Some (Float f)
  | Json.String s -> Some (Str s)
  | Json.Bool b -> Some (Bool b)
  | _ -> None

let args_of_json j =
  match j with
  | Some (Json.Obj kvs) ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | (k, v) :: rest -> (
            match value_of_json v with Some v -> go ((k, v) :: acc) rest | None -> None)
      in
      go [] kvs
  | None -> Some []
  | Some _ -> None

let of_json j =
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  let int key = Option.bind (Json.member key j) Json.to_int_opt in
  let flt key = Option.bind (Json.member key j) Json.to_float_opt in
  let require what = function Some v -> Ok v | None -> Error ("missing or ill-typed " ^ what) in
  let ( let* ) = Result.bind in
  match str "type" with
  | Some "meta" -> (
      match args_of_json (Json.member "args" j) with
      | Some kvs -> Ok (Meta kvs)
      | None -> Error "meta: bad args")
  | Some "span" ->
      let* name = require "name" (str "name") in
      let* id = require "id" (int "id") in
      let* domain = require "domain" (int "domain") in
      let* start_us = require "start_us" (flt "start_us") in
      let* dur_us = require "dur_us" (flt "dur_us") in
      let* args =
        match args_of_json (Json.member "args" j) with
        | Some a -> Ok a
        | None -> Error "span: bad args"
      in
      Ok
        (Span
           {
             sp_name = name;
             sp_id = id;
             sp_parent = int "parent";
             sp_domain = domain;
             sp_start_us = start_us;
             sp_dur_us = dur_us;
             sp_args = args;
           })
  | Some "counter" ->
      let* name = require "name" (str "name") in
      let* value = require "value" (int "value") in
      Ok (Metric (Counter { c_name = name; c_value = value }))
  | Some "gauge" ->
      let* name = require "name" (str "name") in
      let* value = require "value" (flt "value") in
      Ok (Metric (Gauge { g_name = name; g_value = value }))
  | Some "histogram" ->
      let* name = require "name" (str "name") in
      let* count = require "count" (int "count") in
      let* sum = require "sum" (flt "sum") in
      let* min_ = require "min" (flt "min") in
      let* max_ = require "max" (flt "max") in
      Ok (Metric (Histogram { h_name = name; h_count = count; h_sum = sum; h_min = min_; h_max = max_ }))
  | Some other -> Error ("unknown event type " ^ other)
  | None -> Error "missing event type"
