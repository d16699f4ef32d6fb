(* flowbench — end-to-end and per-layer benchmark of the flowtraced
   daemon and the flowtrace CLI.

     flowbench --workload NAME --seed N --seconds S --trace 0|1 --flowtrace PATH

   --trace 0 measures the end-to-end metrics with tracing off: closed-loop
   clients over the daemon's Unix socket, or `flowtrace select` run as a
   process. --trace 1 is the separate traced run that gives the per-layer
   metrics. Every answer is checked against the library's direct result.
   The last line of stdout is one JSON object: correct, attempted,
   failed, metrics. See README.md for the workloads and the metrics. *)

open Util
module I = Inputs

let work_root = ".flowbench"
let warmup_s = 0.5

(* Set-ups per run: at least [min_setups], and more until [setup_probe_s]
   seconds have gone by; setup_s is read off them at zero host steal. *)
let min_setups = 9
let setup_probe_s = 1.0

(* The measured window is cut into trials of at least [trial_ops]
   operations (enough for ten samples beyond each trial's p90) and at
   least [min_trial_s] seconds, and into no fewer than [min_trials].
   Throughput and the percentiles are medians over the trials with the
   least host steal (see Quiet). Steal comes in bursts shorter than a
   second, so short trials let the filter find the quiet moments even in
   a noisy phase of the host. *)
let trial_ops = 120
let min_trial_s = 0.25
let min_trials = 6

(* open-session probes on the select workloads: batches of [open_batch]
   open/close pairs, back to back, for at least [open_probe_s] seconds
   and [min_open_batches] batches, all before the measured window: after
   it, the daemon's heap holds whatever the selects left. The first
   [open_warmup_s] seconds, on a daemon still growing its heap, are not
   timed. Pauses between batches would let the vCPUs halt, and waking
   them costs a varying share of a millisecond. *)
let open_batch = 8
let open_warmup_s = 0.5
let open_probe_s = 5.0
let min_open_batches = 6

(* traced runs fail when the re-enacted stages leave more than this share
   of dispatch.handle_us unexplained *)
let max_unexplained = 0.25

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* ------------------------------------------------------------------ *)
(* What an end-to-end run records *)

type e2e = {
  ops : (int * float * bool) list;  (** measured ops: start ns, latency ms, answer ok *)
  opens : (int * int * float) list;  (** open-session: start ns, end ns, ms *)
  setup : float Quiet.group list;  (** set-up spans, seconds *)
  rss : float;
  until : int;
  measure_from : int;
}

let show a = String.concat " " (List.map (Printf.sprintf "%.4g") a)

type trial = { tput : float; p50 : float; p90 : float; n_ops : int }

(* The end-to-end metrics of a run: each read off its trials, set-ups or
   open batches at zero host steal (see Quiet). *)
let e2e_metrics r readings =
  let n = List.length r.ops in
  let by_time = int_of_float (s_of_ns (r.until - r.measure_from) /. min_trial_s) in
  let trials = max min_trials (min by_time (n / trial_ops)) in
  let len = (r.until - r.measure_from) / trials in
  let per = Array.make trials [] in
  List.iter
    (fun ((t, _, _) as op) ->
      let k = min (trials - 1) ((t - r.measure_from) / len) in
      per.(k) <- op :: per.(k))
    r.ops;
  let groups =
    List.init trials (fun k ->
        let ops = per.(k) in
        let lat = Array.of_list (List.map (fun (_, l, _) -> l) ops) in
        let good = List.length (List.filter (fun (_, _, ok) -> ok) ops) in
        {
          Quiet.g_from = r.measure_from + (k * len);
          g_to = r.measure_from + ((k + 1) * len);
          g_value =
            {
              tput = float_of_int good /. s_of_ns len;
              p50 = median lat;
              p90 = quantile lat 0.9;
              n_ops = Array.length lat;
            };
        })
  in
  let fit groups f =
    let steal = Quiet.steals readings groups in
    (steal, Quiet.at_zero steal (List.map (fun g -> f g.Quiet.g_value) groups))
  in
  let steal, (tput, tput_slope) = fit groups (fun t -> t.tput) in
  let _, (p50, _) = fit groups (fun t -> t.p50) in
  let _, (p90, p90_slope) = fit groups (fun t -> t.p90) in
  let open_batches = Quiet.chunks open_batch r.opens in
  let _, (open_ms, open_slope) = fit open_batches (fun ms -> median (Array.of_list ms)) in
  let setup_steal, (setup, _) = fit r.setup Fun.id in
  ( [
      m "throughput_ops" "1/s" tput;
      m "latency_p50_ms" "ms" p50;
      m "latency_p90_ms" "ms" p90;
      m "open_p50_ms" "ms" open_ms;
      m "setup_s" "s" setup;
      m "peak_rss_mb" "MiB" r.rss;
    ],
    [
      Printf.sprintf "%d ops in %d trials of %.2f s, at least %d each; mean host steal %.1f%%" n
        trials (s_of_ns len)
        (List.fold_left (fun a g -> min a g.Quiet.g_value.n_ops) max_int groups)
        (100.0 *. mean (Array.of_list steal));
      "per-trial steal (%):  " ^ show (List.map (fun x -> 100.0 *. x) steal);
      "per-trial throughput: " ^ show (List.map (fun g -> g.Quiet.g_value.tput) groups);
      "per-trial p90 (ms):   " ^ show (List.map (fun g -> g.Quiet.g_value.p90) groups);
      Printf.sprintf
        "open-session: %d samples in %d batches; %d set-ups, mean host steal %.1f%%"
        (List.length r.opens) (List.length open_batches) (List.length r.setup)
        (100.0 *. mean (Array.of_list setup_steal));
      Printf.sprintf
        "d log(value) / d steal: throughput %.2f, p90 %.2f, open-session %.2f"
        tput_slope p90_slope open_slope;
    ] )

(* ------------------------------------------------------------------ *)
(* Closed-loop socket clients *)

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let safe_check w op resp =
  try I.check w op resp with e -> Error ("check raised " ^ Printexc.to_string e)

type clients = {
  c_ops : (int * float * bool) list;  (** the measured window's ops *)
  c_opens : (int * int * float) list;
  c_attempted : int;  (** every op, warm-up included *)
  c_failed : int;
  c_bad : (string * string) list;  (** first mismatches: request, why *)
}

(* The closed-loop clients: one connection each, one request in flight
   per connection, all driven from this one thread (no locks or wake-ups
   of its own between a response and the next request). *)
let run_clients w ~sock ~measure_from ~until =
  let n = w.I.clients in
  let conns =
    Array.init n (fun _ ->
        match Wire.connect sock with Some c -> c | None -> failwith "cannot connect")
  in
  let gens = Array.init n w.I.gen in
  (* responses are byte-deterministic: a verified (request, response)
     pair is not parsed again *)
  let memo = Hashtbl.create 64 in
  let pending = Array.make n None in
  let ops = ref [] and opens = ref [] and bad = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let send c =
    let op = gens.(c) () in
    let line = I.line_of w op in
    pending.(c) <- Some (op, line, now_ns ());
    Wire.send conns.(c) line
  in
  let receive c =
    match pending.(c) with
    | None -> ()
    | Some (op, line, t0) ->
        let resp = Wire.read_line conns.(c) in
        let t1 = now_ns () in
        let verdict =
          match Hashtbl.find_opt memo line with
          | Some r when String.equal r resp -> Ok ()
          | _ ->
              let v = safe_check w op resp in
              if v = Ok () then Hashtbl.replace memo line resp;
              v
        in
        incr attempted;
        (match verdict with
        | Ok () -> ()
        | Error m ->
            incr failed;
            if List.length !bad < 10 then bad := (clip line, m) :: !bad);
        if t0 >= measure_from then begin
          ops := (t0, ms_of_ns (t1 - t0), verdict = Ok ()) :: !ops;
          if I.is_open op then opens := (t0, t1, ms_of_ns (t1 - t0)) :: !opens
        end;
        if t1 < until then send c else pending.(c) <- None
  in
  Array.iteri (fun c _ -> send c) conns;
  while Array.exists Option.is_some pending do
    let waiting =
      List.filter_map
        (fun c -> if pending.(c) <> None then Some conns.(c).Wire.fd else None)
        (List.init n Fun.id)
    in
    let ready, _, _ = Unix.select waiting [] [] 0.05 in
    Quiet.tick ();
    Array.iteri (fun c conn -> if List.mem conn.Wire.fd ready then receive c) conns
  done;
  Array.iter Wire.close conns;
  { c_ops = !ops; c_opens = !opens; c_attempted = !attempted; c_failed = !failed; c_bad = !bad }

(* ------------------------------------------------------------------ *)
(* Daemon set-up: spawn until ping answers, plus the resident opens *)

let call_checked w tally conn op =
  let t0 = now_ns () in
  let resp = Wire.call conn (I.line_of w op) in
  let t1 = now_ns () in
  Replay.record tally (clip (I.line_of w op)) (safe_check w op resp);
  (t0, t1, ms_of_ns (t1 - t0))

let setup_daemon w ~flowtrace ~dir ~tally k =
  let sock = Printf.sprintf "%s/d%d.sock" dir k in
  let state_dir =
    if w.I.state_dir then Some (Printf.sprintf "%s/state%d" dir k) else None
  in
  Quiet.mark ();
  let t0 = now_ns () in
  let d = Wire.spawn ~flowtrace ?state_dir ~log:(Printf.sprintf "%s/d%d.log" dir k) sock in
  Wire.wait_ready d;
  let conn = Option.get (Wire.connect sock) in
  let opens = List.map (fun s -> call_checked w tally conn (I.Open s)) w.I.resident in
  Wire.close conn;
  let t1 = now_ns () in
  Quiet.mark ();
  (d, { Quiet.g_from = t0; g_to = t1; g_value = s_of_ns (t1 - t0) }, opens)

(* [repeat_setups f] runs [f k] for k = 0, 1, ... as [min_setups] and
   [setup_probe_s] ask, and returns the results, newest first. *)
let repeat_setups f =
  let stop_at = now_ns () + int_of_float (setup_probe_s *. 1e9) in
  let rec go k acc =
    if k >= min_setups && now_ns () >= stop_at then acc else go (k + 1) (f k acc :: acc)
  in
  go 0 []

let e2e_daemon w ~flowtrace ~dir ~seconds ~tally =
  (* each set-up's daemon is stopped before the next one starts; the last
     one serves the measured window *)
  let setups =
    repeat_setups (fun k prev ->
        (match prev with (d, _) :: _ -> Wire.stop d | [] -> ());
        let d, g, _ = setup_daemon w ~flowtrace ~dir ~tally k in
        (d, g))
  in
  let d = fst (List.hd setups) in
  (* open_p50_ms comes from open/close probes on copies of the resident
     sessions, on the daemon that will serve the window. The set-ups' own
     opens count in setup_s only: a freshly started daemon still grows
     its heap, which makes them slower and far more variable. *)
  let opens = ref [] in
  if w.I.resident <> [] then begin
    let conn = Option.get (Wire.connect d.Wire.sock) in
    let res = Array.of_list w.I.resident in
    let warm_until = now_ns () + int_of_float (open_warmup_s *. 1e9) in
    let stop_at = warm_until + int_of_float (open_probe_s *. 1e9) in
    let i = ref 0 and timed = ref 0 in
    while !timed < min_open_batches || now_ns () < stop_at do
      let timing = now_ns () >= warm_until in
      Quiet.mark ();
      for _ = 1 to open_batch do
        let s = { (res.(!i mod Array.length res)) with I.id = Printf.sprintf "open%d" !i } in
        incr i;
        let o = call_checked w tally conn (I.Open s) in
        if timing then opens := o :: !opens;
        ignore (call_checked w tally conn (I.Close s));
        Quiet.tick ()
      done;
      Quiet.mark ();
      if timing then incr timed
    done;
    Wire.close conn
  end;
  let measure_from = now_ns () + int_of_float (warmup_s *. 1e9) in
  let until = measure_from + int_of_float (seconds *. 1e9) in
  let r = run_clients w ~sock:d.Wire.sock ~measure_from ~until in
  let rss = Wire.peak_rss_mb d.Wire.pid in
  Wire.stop d;
  tally.Replay.attempted <- tally.Replay.attempted + r.c_attempted;
  tally.Replay.failed <- tally.Replay.failed + r.c_failed;
  tally.Replay.why <- List.map (fun (l, m) -> l ^ " -> " ^ m) r.c_bad @ tally.Replay.why;
  {
    ops = r.c_ops;
    opens = !opens @ r.c_opens;
    setup = List.map snd setups;
    rss;
    until;
    measure_from;
  }

(* ------------------------------------------------------------------ *)
(* The CLI workload: `flowtrace select` run as a process *)

let states_line inter = Printf.sprintf "states: %d " (Flowtrace_core.Interleave.n_states inter)

let e2e_cli w ~flowtrace ~seconds ~tally =
  let cli argv ok =
    let r = Wire.run_cli argv in
    let v =
      if r.Wire.exit_code <> 0 then Error (Printf.sprintf "exit %d" r.Wire.exit_code)
      else if ok r.Wire.stdout then Ok ()
      else Error "stdout differs from the library's"
    in
    Replay.record tally (String.concat " " (List.tl (Array.to_list argv))) v;
    (r, v)
  in
  (* set-up of a CLI caller: the binary starting and exiting *)
  let setup =
    repeat_setups (fun _ _ ->
        Quiet.mark ();
        let t0 = now_ns () in
        let r, _ = cli [| flowtrace; "--version" |] (fun o -> o <> "") in
        let t1 = now_ns () in
        Quiet.mark ();
        { Quiet.g_from = t0; g_to = t1; g_value = s_of_ns r.Wire.wall_ns })
  in
  (* the CLI's analogue of open-session: parse the spec, build the
     interleaving, report it; back to back, for as long as the daemon
     workloads probe open-session *)
  let opens = ref [] in
  let stop_at = now_ns () + int_of_float (open_probe_s *. 1e9) in
  let round = ref 0 in
  while !round < 16 || now_ns () < stop_at do
    incr round;
    List.iter
      (fun (s : I.session) ->
        let argv =
          Array.of_list
            ([ flowtrace; "interleave"; I.t2_path ]
            @ List.concat_map (fun (n, c) -> [ "-i"; Printf.sprintf "%s=%d" n c ]) s.I.mix)
        in
        let want = states_line (Hashtbl.find w.I.inters s.I.key) in
        let t0 = now_ns () in
        let r, _ =
          cli argv (fun o ->
              String.length o >= String.length want
              && String.equal (String.sub o 0 (String.length want)) want)
        in
        opens := (t0, now_ns (), ms_of_ns r.Wire.wall_ns) :: !opens;
        Quiet.tick ())
      w.I.resident
  done;
  let next = w.I.gen 0 in
  let rendered = Hashtbl.create 128 in
  let expected op =
    match op with
    | I.Select (s, width) -> (
        match Hashtbl.find_opt rendered (s.I.key, width) with
        | Some t -> t
        | None ->
            let t = I.render (I.expected_select w s width) in
            Hashtbl.replace rendered (s.I.key, width) t;
            t)
    | _ -> assert false
  in
  let ops = ref [] and rss = ref [] in
  let measure_from = now_ns () + int_of_float (warmup_s *. 1e9) in
  let until = measure_from + int_of_float (seconds *. 1e9) in
  while now_ns () < until do
    let op = next () in
    let want = expected op in
    let start = now_ns () in
    let r, v = cli (I.cli_argv ~flowtrace op) (String.equal want) in
    if start >= measure_from then begin
      ops := (start, ms_of_ns r.Wire.wall_ns, v = Ok ()) :: !ops;
      rss := (float_of_int r.Wire.rss_kb /. 1024.0) :: !rss
    end;
    Quiet.tick ()
  done;
  {
    ops = !ops;
    opens = !opens;
    setup;
    rss = median (Array.of_list !rss);
    until;
    measure_from;
  }

(* ------------------------------------------------------------------ *)
(* The traced run *)

(* progress on stderr: how long each phase of a run took *)
let phase =
  let last = ref (now_ns ()) in
  fun name ->
    let t = now_ns () in
    Printf.eprintf "flowbench: %-28s %7.2f s\n%!" name (s_of_ns (t - !last));
    last := t

let traced w ~flowtrace ~dir ~tally =
  let reqs = Replay.requests w (I.replay_stream w) in
  let probes = Replay.requests w (List.map (fun op -> (0, op)) w.I.probes) in
  let n = Array.length reqs in
  (* socket side: ping round trips, then the stream one request at a time *)
  let d, _, _ = setup_daemon w ~flowtrace ~dir ~tally 0 in
  let conn = Option.get (Wire.connect d.Wire.sock) in
  let ping = Array.init 400 (fun _ -> us_of_ns (snd (time (fun () -> Wire.call conn Wire.ping_line)))) in
  let socket =
    Array.map
      (fun (r : Replay.req) ->
        let resp, ns = time (fun () -> Wire.call conn r.Replay.line) in
        Replay.record tally ("socket " ^ clip r.Replay.line) (safe_check w r.Replay.op resp);
        us_of_ns ns)
      reqs
  in
  Wire.close conn;
  Wire.stop d;
  phase "socket replay";
  (* in process *)
  let sub name = Filename.concat dir name in
  ignore (Replay.handle_one w ~dir:(sub "warm") tally (Array.sub reqs 0 (min n 200)));
  phase "warm-up replay";
  let one = Replay.handle_one w ~dir:(sub "one") tally reqs in
  phase "one-domain replay";
  let two = Replay.handle_two w ~dir:(sub "two") tally reqs in
  phase "two-domain replay";
  let count_a = Replay.counted w ~dir:(sub "count-a") tally reqs in
  let count_b = Replay.counted w ~dir:(sub "count-b") tally reqs in
  let counts = Array.map (fun c -> c.Replay.counts) in
  let repeat = counts count_a = counts count_b in
  Replay.record tally "per-request counters repeat exactly"
    (if repeat then Ok () else Error "counters differ between two replays of one stream");
  phase "counted replays";
  let handle_ns, stage_ns =
    Replay.paired w ~dir:(sub "paired") ~stage_dir:(sub "staged") tally reqs
  in
  Replay.probe w ~dir:(sub "probes") tally probes;
  phase "staged replay and probes";
  Replay.dump_spans (Printf.sprintf "%s/spans-%s-%d.jsonl" work_root w.I.name w.I.seed);
  (* an evaluator build, forced by pointing the one-slot cache elsewhere *)
  let inters = Hashtbl.fold (fun _ i acc -> i :: acc) w.I.inters [] in
  let evaluator =
    Array.of_list
      (List.concat_map
         (fun inter ->
           List.init 5 (fun _ ->
               Replay.reset_evaluator ();
               us_of_ns (snd (time (fun () -> Flowtrace_core.Infogain.evaluator inter)))))
         inters)
  in
  let spawn =
    Array.init 20 (fun _ ->
        let r = Wire.run_cli [| flowtrace; "--version" |] in
        Replay.record tally "flowtrace --version"
          (if r.Wire.exit_code = 0 then Ok () else Error "nonzero exit");
        us_of_ns r.Wire.wall_ns)
  in
  phase "evaluator and spawn probes";
  let selects = List.filter (fun (r : Replay.req) -> I.is_select r.Replay.op) (Array.to_list reqs) in
  let inproc =
    Array.of_list
      (List.filteri (fun i _ -> i < 60) selects
      |> List.map (fun (r : Replay.req) ->
             match r.Replay.op with
             | I.Select (s, width) ->
                 let text, ns =
                   time (fun () ->
                       let flows = Flowtrace_core.Spec_parser.parse_string s.I.spec in
                       let inter = Flowtrace_core.Interleave.make (I.instances flows s.I.mix) in
                       I.render (I.select_exn inter width))
                 in
                 Replay.record tally "in-process select"
                   (if text = I.render (I.expected_select w s width) then Ok ()
                    else Error "rendering differs");
                 us_of_ns ns
             | _ -> assert false))
  in
  phase "in-process CLI probe";
  (* metrics *)
  let one_us = Array.map us_of_ns one in
  let sel_idx = List.filter (fun i -> I.is_select reqs.(i).Replay.op) (List.init n Fun.id) in
  let n_sel = float_of_int (max 1 (List.length sel_idx)) in
  let per_select k =
    float_of_int (List.fold_left (fun acc i -> acc + count_a.(i).Replay.counts.(k)) 0 sel_idx) /. n_sel
  in
  let total_count k = Array.fold_left (fun acc c -> acc + c.Replay.counts.(k)) 0 count_a in
  let total a = float_of_int (Array.fold_left ( + ) 0 a) in
  let coverage = total stage_ns /. total handle_ns in
  let overhead =
    total (Array.map (fun c -> c.Replay.handle_ns) count_a) /. total one
  in
  let st name = median (Replay.stage_us name) in
  let states =
    mean (Array.of_list (List.map (fun i -> float_of_int (Flowtrace_core.Interleave.n_states i)) inters))
  in
  if coverage < 1.0 -. max_unexplained then
    Replay.record tally "stage accounting"
      (Error
         (Printf.sprintf "stages explain %.1f%% of dispatch.handle_us (at least %.0f%% required)"
            (100.0 *. coverage)
            (100.0 *. (1.0 -. max_unexplained))));
  let info =
    [
      Printf.sprintf "replay: %d requests (%d selects), %d probes; counter fingerprint %s (%s)" n
        (List.length sel_idx) (Array.length probes)
        (Digest.to_hex (Digest.string (Marshal.to_string (counts count_a) [])))
        (if repeat then "repeats exactly" else "DIFFERS between replays");
    ]
  in
  ( [
      m "server.ping_rtt_us" "us" (median ping);
      m "server.overhead_us" "us" (median socket -. median one_us);
      m "proto.parse_us" "us" (st "proto.parse");
      m "proto.response_us" "us" (st "proto.response");
      m "dispatch.handle_us" "us" (median one_us);
      m "dispatch.contention_us" "us" (median (Array.map us_of_ns two) -. median one_us);
      m "dispatch.overhead_us" "us"
        (median (Array.mapi (fun i h -> us_of_ns (h - stage_ns.(i))) handle_ns));
      m "dispatch.busy_ratio" "ratio" (float_of_int (total_count 5) /. float_of_int (max 1 (total_count 4)));
      m "infogain.evaluator_us" "us" (median evaluator);
      m "infogain.builds_per_select" "count/select" (per_select 0);
      m "kernel.make_us" "us" (st "kernel.make");
      m "kernel.walk_us" "us" (st "kernel.walk");
      m "select.streamed_per_select" "count/select" (per_select 1);
      m "select.scored_per_select" "count/select" (per_select 2);
      m "select.finalize_us" "us" (st "select.finalize");
      m "packing.scored_per_select" "count/select" (per_select 3);
      m "spec.parse_us" "us" (st "spec.parse");
      m "interleave.make_us" "us" (st "interleave.make");
      m "interleave.states" "count" states;
      m "store.save_us" "us" (st "store.save");
      m "store.remove_us" "us" (st "store.remove");
      m "localize.us" "us" (st "localize");
      m "localize.select_us" "us" (st "localize.select");
      m "trace_io.parse_us" "us" (st "trace_io.parse");
      m "miner.mine_us" "us" (st "miner.mine");
      m "cli.spawn_us" "us" (median spawn);
      m "cli.inproc_us" "us" (median inproc);
      m "trace.coverage_ratio" "ratio" coverage;
      m "trace.overhead_ratio" "ratio" overhead;
    ],
    info )

(* ------------------------------------------------------------------ *)
(* Output *)

let number x =
  if Float.is_nan x || Float.is_integer x && Float.abs x > 1e15 then "null"
  else if Float.is_integer x then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} x.m_name (number x.m_value) x.m_unit)
          metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref (-1) in
  let flowtrace = ref "" in
  let usage =
    "flowbench --workload NAME --seed N --seconds S --trace 0|1 --flowtrace PATH\nworkloads: "
    ^ String.concat ", " I.names
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--flowtrace", Arg.Set_string flowtrace, "PATH the flowtrace binary under test");
    ]
    (fun a -> fail "unexpected argument %S\n%s" a usage)
    usage;
  if not (List.mem !workload I.names) then fail "unknown workload %S\n%s" !workload usage;
  if !seed < 0 then fail "--seed is required (a non-negative integer)";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !seconds <= 0.0 then fail "--seconds must be positive";
  if not (Sys.file_exists !flowtrace) then fail "flowtrace binary %S not found" !flowtrace;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Printf.sprintf "%s/run-%d" work_root (Unix.getpid ()) in
  let cleanup () =
    Wire.kill_all ();
    rm_rf dir
  in
  (* stopped early or not, leave no daemon and no scratch files behind *)
  at_exit cleanup;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  mkdir_p dir;
  let w, oracle_ns = time (fun () -> I.make !workload !seed) in
  phase "inputs and oracle";
  let tally = Replay.tally () in
  let metrics, info =
    Fun.protect ~finally:cleanup (fun () ->
        if !trace = 1 then traced w ~flowtrace:!flowtrace ~dir ~tally
        else
          let r =
            match w.I.kind with
            | I.Daemon -> e2e_daemon w ~flowtrace:!flowtrace ~dir ~seconds:!seconds ~tally
            | I.Cli -> e2e_cli w ~flowtrace:!flowtrace ~seconds:!seconds ~tally
          in
          e2e_metrics r (Quiet.readings ()))
  in
  Printf.printf "flowbench %s: seed %d, daemon shards %d, %d client%s, %s, oracle %.2f s\n"
    w.I.name w.I.seed w.I.shards w.I.clients
    (if w.I.clients = 1 then "" else "s")
    (if !trace = 1 then "traced per-layer run" else Printf.sprintf "%.0f s measured" !seconds)
    (s_of_ns oracle_ns);
  List.iter (fun l -> Printf.printf "  %s\n" l) info;
  List.iter (fun x -> Printf.printf "  %-30s %14.4f %s\n" x.m_name x.m_value x.m_unit) metrics;
  let ratio = float_of_int tally.Replay.failed /. float_of_int (max 1 tally.Replay.attempted) in
  Printf.printf "  %-30s %14.4f (%d of %d)\n" "ops_failed_ratio" ratio tally.Replay.failed
    tally.Replay.attempted;
  List.iter (fun why -> Printf.printf "  MISMATCH %s\n" why) (List.rev tally.Replay.why);
  print_endline
    (result_line ~correct:(tally.Replay.failed = 0) ~attempted:(max 1 tally.Replay.attempted)
       ~failed:tally.Replay.failed metrics)
