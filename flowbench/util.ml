(* Clock, sample buffers and order statistics. *)

external now_ns : unit -> int = "flowbench_now_ns" [@@noalloc]

(* [wait_rss pid] reaps child [pid]: (exit code or 128 + signal, peak RSS
   in KiB). *)
external wait_rss : int -> int * int = "flowbench_wait_rss"

let us_of_ns ns = float_of_int ns /. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* [time f] is [f ()] and its wall time in ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Linear-interpolated quantile of unsorted samples; nan when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (f *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0.0 xs
let mean xs = if Array.length xs = 0 then nan else sum xs /. float_of_int (Array.length xs)

(* Mean of the middle half of the samples; nan when empty. *)
let interquartile_mean xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let lo = Array.length s / 4 in
  mean (Array.sub s lo (Array.length s - (2 * lo)))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Files may vanish underneath (a daemon removing its socket). *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } -> (
      (try Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path)
       with Sys_error _ -> ());
      try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("flowbench: " ^ m); exit 1) fmt
