(* Processes and sockets: the daemon under test, client connections to
   it, and one-shot CLI runs. Every child started here is reaped here. *)

open Util

(* ------------------------------------------------------------------ *)
(* Connections: one request line out, one response line back. *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* The next response line (without its newline); [Failure] on EOF. *)
let read_line c =
  let acc = Buffer.create 0 in
  let rec scan () =
    match Bytes.index_from_opt c.buf c.lo '\n' with
    | Some i when i < c.hi ->
        Buffer.add_subbytes acc c.buf c.lo (i - c.lo);
        c.lo <- i + 1;
        Buffer.contents acc
    | _ ->
        Buffer.add_subbytes acc c.buf c.lo (c.hi - c.lo);
        c.lo <- 0;
        let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
        if n = 0 then failwith "daemon closed the connection";
        c.hi <- n;
        scan ()
  in
  scan ()

let send c line =
  let s = line ^ "\n" in
  write_all c.fd s 0 (String.length s)

let call c line =
  send c line;
  read_line c

(* ------------------------------------------------------------------ *)
(* The daemon *)

type daemon = { pid : int; sock : string; mutable reaped : bool }

let live : daemon list ref = ref []

let devnull_in () = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0
let devnull_out () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

(* [spawn ~flowtrace ?state_dir ~log sock] starts [flowtrace serve] with
   its default settings (plus the state directory, when given). *)
let spawn ~flowtrace ?state_dir ~log sock =
  let args =
    [ flowtrace; "serve"; "--socket"; sock ]
    @ match state_dir with Some d -> [ "--state-dir"; d ] | None -> []
  in
  let fin = devnull_in () in
  let flog = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process flowtrace (Array.of_list args) fin flog flog in
  Unix.close fin;
  Unix.close flog;
  let d = { pid; sock; reaped = false } in
  live := d :: !live;
  d

let ping_line = {|{"op":"ping"}|}

(* Poll until the daemon answers [ping] on its socket. *)
let wait_ready ?(timeout = 20.0) d =
  let deadline = now_ns () + int_of_float (timeout *. 1e9) in
  let rec go () =
    if now_ns () > deadline then fail "daemon did not answer ping within %.0f s" timeout;
    match connect d.sock with
    | None ->
        Unix.sleepf 0.0005;
        go ()
    | Some c -> (
        match call c ping_line with
        | r ->
            close c;
            if not (String.length r > 0) then fail "empty ping response"
        | exception (Failure _ | Unix.Unix_error _) ->
            close c;
            Unix.sleepf 0.0005;
            go ())
  in
  go ()

(* Peak resident set of a live process, from /proc (VmHWM), in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> ( try float_of_string kb /. 1024.0 with Failure _ -> acc)
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' text)

let reap d =
  if not d.reaped then begin
    ignore (wait_rss d.pid);
    d.reaped <- true;
    live := List.filter (fun x -> x != d) !live
  end

(* Ask the daemon to shut down and wait for it; SIGKILL if it lingers. *)
let stop d =
  if not d.reaped then begin
    (match connect d.sock with
    | Some c ->
        (try ignore (call c {|{"op":"shutdown"}|}) with Failure _ | Unix.Unix_error _ -> ());
        close c
    | None -> ());
    let deadline = now_ns () + 10_000_000_000 in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now_ns () < deadline ->
          Unix.sleepf 0.002;
          poll ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d
      | _ ->
          d.reaped <- true;
          live := List.filter (fun x -> x != d) !live
      | exception Unix.Unix_error _ -> d.reaped <- true
    in
    poll ()
  end

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d)
    !live

(* ------------------------------------------------------------------ *)
(* One-shot CLI runs *)

type run = { exit_code : int; stdout : string; wall_ns : int; rss_kb : int }

(* [run_cli argv] runs a process to completion, capturing stdout. *)
let run_cli argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let fin = devnull_in () and ferr = devnull_out () in
  let t0 = now_ns () in
  let pid = Unix.create_process argv.(0) argv fin wr ferr in
  Unix.close wr;
  Unix.close fin;
  Unix.close ferr;
  let out = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let code, rss = wait_rss pid in
  { exit_code = code; stdout = Buffer.contents out; wall_ns = now_ns () - t0; rss_kb = rss }
