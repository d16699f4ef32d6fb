(* Host steal, and the figures a run would have shown without it.

   On a virtual machine the hypervisor can take the CPUs away (steal time
   in /proc/stat). Stolen time stalls whichever thread was running — the
   daemon's event loop, a shard worker or a client — and slows the
   moments around it too: on the 2-vCPU machine this benchmark was
   written on, throughput fell with steal share s as about exp(-2.4 s),
   and phases of 20–35% steal last minutes. The counters are read every
   50 ms during a run; every timed group of samples (a trial, a set-up, a
   batch of opens) gets the steal share of its time span, and a figure is
   read off a robust line through (steal, log value) at zero steal. *)

open Util

(* Cumulative CPU time counters of the machine, from /proc/stat. *)
let cpu_times () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: xs -> Array.of_list (List.filter_map int_of_string_opt xs)
      | _ -> [||])
  | None | (exception Sys_error _) -> [||]

(* steal (the eighth counter) over all counters, between two readings *)
let steal_share a b =
  if Array.length a < 8 || Array.length b < 8 then 0.0
  else
    let d i = b.(i) - a.(i) in
    let total = Array.fold_left ( + ) 0 (Array.init (Array.length a) d) in
    float_of_int (d 7) /. float_of_int (max 1 total)

type readings = (int * int array) array

(* The run's readings, newest first. The benchmark is one thread: its
   loops call [tick] between operations. *)
let log = ref [ (now_ns (), cpu_times ()) ]

(* [mark ()] takes a reading now; [tick ()] only when the last one is
   50 ms old. *)
let mark () = log := (now_ns (), cpu_times ()) :: !log

let tick () =
  match !log with (t, _) :: _ when now_ns () - t < 50_000_000 -> () | _ -> mark ()

let readings () =
  mark ();
  Array.of_list (List.rev !log)

(* Steal share over [a, b] (ns): from the last reading at or before [a] to
   the first at or after [b]. *)
let between (r : readings) a b =
  let n = Array.length r in
  let i = ref 0 and j = ref (n - 1) in
  while !i + 1 < n && fst r.(!i + 1) <= a do incr i done;
  while !j > 0 && fst r.(!j - 1) >= b do decr j done;
  if !j <= !i then 0.0 else steal_share (snd r.(!i)) (snd r.(!j))

type 'a group = { g_from : int; g_to : int; g_value : 'a }

(* The steal share of each group's time span. *)
let steals r groups = List.map (fun g -> between r g.g_from g.g_to) groups

(* [at_zero steals values] fits log value = a + b steal through the
   groups with a positive value (b is the median of the pairwise slopes,
   as in Theil–Sen; a the interquartile mean of log value - b steal),
   and is (exp a, b). Without two distinct steal shares b is 0 and exp a
   the interquartile mean of the values on a log scale. The interquartile
   mean, unlike the median, moves smoothly when the values fall in two
   modes (the daemon's threads settle into faster and slower placements
   on the CPUs for seconds at a time) and the share of each mode shifts. *)
let at_zero steals values =
  let pts =
    Array.of_list
      (List.filter_map
         (fun (x, y) -> if y > 0.0 && Float.is_finite y then Some (x, Float.log y) else None)
         (List.combine steals values))
  in
  let n = Array.length pts in
  let slopes = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let (xi, yi), (xj, yj) = (pts.(i), pts.(j)) in
      if xi <> xj then slopes := ((yj -. yi) /. (xj -. xi)) :: !slopes
    done
  done;
  let b = if !slopes = [] then 0.0 else median (Array.of_list !slopes) in
  (Float.exp (interquartile_mean (Array.map (fun (x, y) -> y -. (b *. x)) pts)), b)

(* Time-ordered (start, end, value) points cut into groups of [size]. *)
let chunks size points =
  let rec go acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | p :: rest ->
        let cur = p :: cur in
        if List.length cur = size then go (List.rev cur :: acc) [] rest else go acc cur rest
  in
  List.map
    (fun ps ->
      let a, _, _ = List.hd ps and _, b, _ = List.nth ps (List.length ps - 1) in
      { g_from = a; g_to = b; g_value = List.map (fun (_, _, v) -> v) ps })
    (go [] [] (List.sort compare points))
