open Flowtrace_core
open Flowtrace_analysis

let version = 1

type best = { b_names : string list; b_gain : int64; b_bits : int }

type snapshot = {
  s_fingerprint : string;
  s_total_tasks : int;
  s_done : bool array;
  s_best : best option;
  s_task_bests : (int * best) list;
  s_explored : int;
}

let span path line = Srcspan.make ~file:path ~line ~col:1
let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* The sealed-record framing, shared by the two codecs below *)

(* A codec over the framing: [magic] opens its header line and [noun]
   names it in diagnostics. [header] parses the header fields after the
   version ([None]: unrecognized, [Some (Error m)]: an RT002 saying [m]);
   [payload] parses one CRC-checked record ([None]: malformed). *)
type ('h, 'r) codec = {
  magic : string;
  noun : string;
  header : string -> ('h, string) result option;
  payload : string -> 'r option;
}

let frame buf payload =
  Buffer.add_string buf (Crc32.to_hex (Crc32.string payload));
  Buffer.add_char buf ' ';
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

let unframe line =
  let n = String.length line in
  if n > 9 && line.[8] = ' ' then
    let payload = String.sub line 9 (n - 9) in
    if String.equal (String.sub line 0 8) (Crc32.to_hex (Crc32.string payload)) then Some payload
    else None
  else None

(* The one writer of the [end] seal: record count plus the CRC-32 of
   everything above it. *)
let write_sealed codec ?(vfs = Vfs.passthrough) ~path ~fields payloads =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s v%d %s\n" codec.magic version fields);
  List.iter (frame buf) payloads;
  let body = Crc32.string (Buffer.contents buf) in
  frame buf (Printf.sprintf "end %d %s" (List.length payloads) (Crc32.to_hex body));
  Vfs.atomic_replace vfs ~path (Buffer.contents buf)

(* The one reader of the [end] seal. *)
let seal payload =
  if not (String.starts_with ~prefix:"end " payload) then None
  else
    match String.split_on_char ' ' payload with
    | [ _; count; crc ] -> Option.map (fun n -> (n, crc)) (int_of_string_opt count)
    | _ -> None

(* [read_sealed codec path] is the header and the [(line, record)] list in
   file order, with the RT006 warning when a damaged or missing tail was
   cut off. *)
let read_sealed codec ?(vfs = Vfs.passthrough) path =
  match vfs.Vfs.read_file path with
  | exception Vfs.Io_error { e_msg; _ } ->
      Error [ Rt.v "RT001" (Srcspan.none path) "cannot read journal: %s" e_msg ]
  | text -> (
      (* a final newline ends the last line; it does not start an empty one *)
      let text =
        if String.ends_with ~suffix:"\n" text then String.sub text 0 (String.length text - 1)
        else text
      in
      let unrecognized =
        Error [ Rt.v "RT002" (span path 1) "not a flowtrace %s (unrecognized header)" codec.noun ]
      in
      match String.split_on_char '\n' text with
      | [] -> unrecognized
      | hdr :: body -> (
          let* h =
            match Scanf.sscanf hdr "%s@ v%d %[^\n]" (fun m v fields -> (m, v, fields)) with
            | exception _ -> unrecognized
            | m, _, _ when m <> codec.magic -> unrecognized
            | _, v, _ when v <> version ->
                Error
                  [
                    Rt.v "RT003" (span path 1) "%s version v%d is not supported (this build reads v%d)"
                      codec.noun v version;
                  ]
            | _, _, fields -> (
                match codec.header fields with
                | None -> unrecognized
                | Some (Error m) -> Error [ Rt.v "RT002" (span path 1) "%s" m ]
                | Some (Ok h) -> Ok h)
          in
          let rec walk lineno crc seen acc = function
            | [] ->
                Ok
                  ( h,
                    List.rev acc,
                    [
                      Rt.v "RT006" (span path (lineno - 1))
                        "%s has no end record (truncated); recovering the valid %d-record prefix"
                        codec.noun seen;
                    ] )
            | line :: rest -> (
                (* a damaged final line is indistinguishable from a cut-off
                   write tail: recover the prefix. Damage higher up is a
                   hard error. *)
                let damaged () =
                  if rest = [] then
                    Ok
                      ( h,
                        List.rev acc,
                        [
                          Rt.v "RT006" (span path lineno)
                            "%s tail truncated at line %d; recovering the valid %d-record prefix"
                            codec.noun lineno seen;
                        ] )
                  else Error [ Rt.v "RT005" (span path lineno) "corrupt record" ]
                in
                match unframe line with
                | None -> damaged ()
                | Some payload -> (
                    match seal payload with
                    | Some (count, _) when count <> seen ->
                        Error
                          [
                            Rt.v "RT007" (span path lineno)
                              "end record expects %d records but %d are present" count seen;
                          ]
                    | Some (_, sum) when not (String.equal sum (Crc32.to_hex crc)) ->
                        Error
                          [
                            Rt.v "RT007" (span path lineno)
                              "whole-file checksum mismatch (%s was modified)" codec.noun;
                          ]
                    | Some _ when rest <> [] ->
                        Error
                          [ Rt.v "RT007" (span path (lineno + 1)) "content after the end record" ]
                    | Some _ -> Ok (h, List.rev acc, [])
                    | None -> (
                        match codec.payload payload with
                        | None -> damaged ()
                        | Some r ->
                            walk (lineno + 1)
                              (Crc32.update crc (line ^ "\n"))
                              (seen + 1)
                              ((lineno, r) :: acc)
                              rest)))
          in
          walk 2 (Crc32.update 0l (hdr ^ "\n")) 0 [] body))

(* ------------------------------------------------------------------ *)
(* Codec 1: the checkpoint snapshot *)

type record =
  | Explored of int
  | Done_task of int
  | Task_best of int * best
  | Best of best

let parse_best gain bits names =
  match (Int64.of_string_opt ("0x" ^ gain), int_of_string_opt bits) with
  | Some g, Some b -> Some { b_names = String.split_on_char ',' names; b_gain = g; b_bits = b }
  | _ -> None

let checkpoint =
  {
    magic = "flowtrace-journal";
    noun = "journal";
    header =
      (fun fields ->
        match Scanf.sscanf fields "fp=%s@ tasks=%d" (fun fp n -> (fp, n)) with
        | exception _ -> None
        | _, n when n < 0 -> Some (Error "corrupt header (negative task count)")
        | h -> Some (Ok h));
    payload =
      (fun payload ->
        match String.split_on_char ' ' payload with
        | [ "x"; n ] -> Option.map (fun n -> Explored n) (int_of_string_opt n)
        | [ "d"; n ] -> Option.map (fun n -> Done_task n) (int_of_string_opt n)
        | [ "b"; gain; bits; names ] -> Option.map (fun b -> Best b) (parse_best gain bits names)
        | [ "t"; id; gain; bits; names ] -> (
            match (int_of_string_opt id, parse_best gain bits names) with
            | Some id, Some b -> Some (Task_best (id, b))
            | _ -> None)
        | _ -> None);
  }

let check_name n =
  if n = "" then invalid_arg "Journal.write: empty message name";
  String.iter
    (fun c ->
      match c with
      | ',' | ' ' | '\t' | '\n' | '\r' ->
          invalid_arg (Printf.sprintf "Journal.write: message name %S cannot be stored" n)
      | _ -> ())
    n

let best_fields b =
  List.iter check_name b.b_names;
  Printf.sprintf "%016Lx %d %s" b.b_gain b.b_bits (String.concat "," b.b_names)

let write ?vfs ~path snap =
  if Array.length snap.s_done <> snap.s_total_tasks then
    invalid_arg "Journal.write: done array does not match the task count";
  let done_ =
    List.init snap.s_total_tasks Fun.id
    |> List.filter (Array.get snap.s_done)
    |> List.map (Printf.sprintf "d %d")
  in
  let task_bests =
    List.sort (fun (a, _) (b, _) -> compare a b) snap.s_task_bests
    |> List.map (fun (id, b) -> Printf.sprintf "t %d %s" id (best_fields b))
  in
  let best = Option.to_list (Option.map (fun b -> "b " ^ best_fields b) snap.s_best) in
  write_sealed checkpoint ?vfs ~path
    ~fields:(Printf.sprintf "fp=%s tasks=%d" snap.s_fingerprint snap.s_total_tasks)
    ((Printf.sprintf "x %d" snap.s_explored :: done_) @ task_bests @ best)

let load ?vfs path =
  let* (fingerprint, total), records, warnings = read_sealed checkpoint ?vfs path in
  let done_ = Array.make total false in
  let rec fold explored best task_bests = function
    | [] ->
        Ok
          ( {
              s_fingerprint = fingerprint;
              s_total_tasks = total;
              s_done = done_;
              s_best = best;
              s_task_bests = List.sort (fun (a, _) (b, _) -> compare a b) task_bests;
              s_explored = explored;
            },
            warnings )
    | (line, (Done_task id | Task_best (id, _))) :: _ when id < 0 || id >= total ->
        Error
          [
            Rt.v "RT005" (span path line) "task id %d out of range (journal declares %d tasks)" id
              total;
          ]
    | (_, r) :: rest -> (
        match r with
        | Explored n -> fold n best task_bests rest
        | Done_task id ->
            done_.(id) <- true;
            fold explored best task_bests rest
        | Task_best (id, b) -> fold explored best ((id, b) :: List.remove_assoc id task_bests) rest
        | Best b -> fold explored (Some b) task_bests rest)
  in
  fold 0 None [] records

(* ------------------------------------------------------------------ *)
(* Codec 2: the record log, opaque newline-free payloads *)

module Log = struct
  let check_kind kind =
    if kind = "" then invalid_arg "Journal.Log: empty kind";
    String.iter
      (fun c ->
        match c with
        | ' ' | '\t' | '\n' | '\r' -> invalid_arg "Journal.Log: kind cannot contain whitespace"
        | _ -> ())
      kind

  let codec kind =
    {
      magic = "flowtrace-log";
      noun = "record log";
      header =
        (fun fields ->
          match Scanf.sscanf fields "kind=%s" Fun.id with
          | exception _ -> None
          | k when k <> kind ->
              Some (Error (Printf.sprintf "record log kind %S is not the expected %S" k kind))
          | _ -> Some (Ok ()));
      payload =
        (fun p ->
          if String.starts_with ~prefix:"r " p then Some (String.sub p 2 (String.length p - 2))
          else None);
    }

  let write ?vfs ~path ~kind records =
    check_kind kind;
    let payload r =
      if String.contains r '\n' || String.contains r '\r' then
        invalid_arg "Journal.Log.write: record contains a newline";
      "r " ^ r
    in
    write_sealed (codec kind) ?vfs ~path ~fields:("kind=" ^ kind) (List.map payload records)

  let load ?vfs ~kind path =
    check_kind kind;
    let* (), records, warnings = read_sealed (codec kind) ?vfs path in
    Ok (List.map snd records, warnings)
end
