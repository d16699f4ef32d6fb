(* Tests for the lib/runtime supervision layer.

   The determinism contract is the heart of it: supervised runs — with
   retries, kills, resumes and any job count — must be bit-identical to
   the plain single-walk engine whenever they complete. Degradation
   (deadline, candidate cap, permanently failing tasks) must keep the
   best-so-far instead of losing the run, and the checkpoint journal must
   survive truncation while refusing silent corruption. *)

open Flowtrace_core
open Flowtrace_soc
module Diag = Flowtrace_analysis.Diagnostic
module Journal = Flowtrace_runtime.Journal
module Engine = Flowtrace_runtime.Engine
module Crc32 = Flowtrace_runtime.Crc32

let seed_arb = QCheck.make (QCheck.Gen.int_bound 100_000)

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let tmp_journal () =
  let f = Filename.temp_file "flowtrace-test" ".ckpt" in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

(* ------------------------------------------------------------------ *)
(* Journal round-trip and corruption *)

let snapshot_of_seed seed =
  let st = Random.State.make [| seed |] in
  let total = Random.State.int st 50 in
  let done_ = Array.init total (fun _ -> Random.State.bool st) in
  let best =
    if total > 0 && Random.State.bool st then
      Some
        {
          Journal.b_names =
            List.init
              (1 + Random.State.int st 5)
              (fun i -> Printf.sprintf "msg%d_%d" i (Random.State.int st 100));
          b_gain = Random.State.int64 st Int64.max_int;
          b_bits = Random.State.int st 64;
        }
    else None
  in
  let task_bests =
    Array.to_list done_
    |> List.mapi (fun id d -> (id, d))
    |> List.filter_map (fun (id, d) ->
           if d && Random.State.bool st then
             Some
               ( id,
                 {
                   Journal.b_names =
                     List.init
                       (1 + Random.State.int st 3)
                       (fun i -> Printf.sprintf "tb%d_%d" i (Random.State.int st 100));
                   b_gain = Random.State.int64 st Int64.max_int;
                   b_bits = Random.State.int st 64;
                 } )
           else None)
  in
  {
    Journal.s_fingerprint = Printf.sprintf "%016x" (Random.State.int st 0x3FFFFFFF);
    s_total_tasks = total;
    s_done = done_;
    s_best = best;
    s_task_bests = task_bests;
    s_explored = Random.State.int st 1_000_000;
  }

let prop_journal_roundtrip =
  QCheck.Test.make ~name:"journal round-trips bit-exactly" ~count:100 seed_arb (fun seed ->
      let snap = snapshot_of_seed seed in
      let path = tmp_journal () in
      Journal.write ~path snap;
      match Journal.load path with
      | Error ds -> QCheck.Test.fail_reportf "load failed: %s" (Diag.render_all ds)
      | Ok (got, warnings) ->
          warnings = []
          && got.Journal.s_fingerprint = snap.Journal.s_fingerprint
          && got.Journal.s_total_tasks = snap.Journal.s_total_tasks
          && got.Journal.s_done = snap.Journal.s_done
          && got.Journal.s_best = snap.Journal.s_best
          && got.Journal.s_task_bests = snap.Journal.s_task_bests
          && got.Journal.s_explored = snap.Journal.s_explored)

(* Chopping any amount off the end must either still load completely or
   recover a prefix with an RT006 warning: never a hard error, and the
   recovered done-set must be a subset of the original (a resumed run then
   simply re-runs the lost tasks). *)
let prop_journal_truncation_recovers =
  QCheck.Test.make ~name:"truncated tail recovers a valid prefix (RT006)" ~count:100 seed_arb
    (fun seed ->
      let snap = snapshot_of_seed seed in
      let path = tmp_journal () in
      Journal.write ~path snap;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let st = Random.State.make [| seed + 1 |] in
      let keep = Random.State.int st (String.length full) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 keep));
      if keep <= String.index full '\n' then
        (* the header itself was cut: a hard RT002 is fine, and so is a
           parseable-but-shorter header (e.g. "tasks=30" cut to
           "tasks=3") — the engine's fingerprint/task-count check (RT004)
           refuses to resume from it either way *)
        match Journal.load path with Error ds -> codes ds = [ "RT002" ] | Ok _ -> true
      else
        match Journal.load path with
        | Error ds -> QCheck.Test.fail_reportf "hard error: %s" (Diag.render_all ds)
        | Ok (got, warnings) ->
            let subset =
              got.Journal.s_total_tasks = snap.Journal.s_total_tasks
              && Array.for_all2
                   (fun g s -> (not g) || s)
                   got.Journal.s_done snap.Journal.s_done
            in
            let warned_iff_cut =
              if keep = String.length full then warnings = []
              else List.for_all (fun c -> c = "RT006") (codes warnings)
            in
            subset && warned_iff_cut)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)

let test_journal_bitflip_is_error () =
  let snap =
    {
      Journal.s_fingerprint = "0123456789abcdef";
      s_total_tasks = 8;
      s_done = Array.init 8 (fun i -> i < 5);
      s_best = Some { Journal.b_names = [ "a"; "b" ]; b_gain = 4614256656552045848L; b_bits = 7 };
      s_task_bests = [];
      s_explored = 123;
    }
  in
  let path = tmp_journal () in
  Journal.write ~path snap;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let lines = String.split_on_char '\n' full in
  (* flip one character inside the payload of a mid-file record (line 3,
     a "d" record): its CRC no longer matches *)
  let flipped =
    List.mapi
      (fun i l ->
        if i = 2 then String.mapi (fun j c -> if j = 9 then (if c = 'd' then 'e' else 'd') else c) l
        else l)
      lines
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" flipped));
  match Journal.load path with
  | Error ds -> Alcotest.(check (list string)) "RT005 on mid-file damage" [ "RT005" ] (codes ds)
  | Ok _ -> Alcotest.fail "bit-flipped journal loaded"

let test_journal_wrong_version () =
  let path = tmp_journal () in
  write_lines path [ "flowtrace-journal v9 fp=0123456789abcdef tasks=4" ];
  match Journal.load path with
  | Error ds -> Alcotest.(check (list string)) "RT003" [ "RT003" ] (codes ds)
  | Ok _ -> Alcotest.fail "future-version journal loaded"

let test_journal_not_a_journal () =
  let path = tmp_journal () in
  write_lines path [ "just some text"; "more text" ];
  match Journal.load path with
  | Error ds -> Alcotest.(check (list string)) "RT002" [ "RT002" ] (codes ds)
  | Ok _ -> Alcotest.fail "garbage loaded as a journal"

let test_journal_unreadable () =
  match Journal.load "/nonexistent/dir/j.ckpt" with
  | Error ds -> Alcotest.(check (list string)) "RT001" [ "RT001" ] (codes ds)
  | Ok _ -> Alcotest.fail "nonexistent journal loaded"

let test_journal_broken_seal () =
  let snap =
    {
      Journal.s_fingerprint = "0123456789abcdef";
      s_total_tasks = 4;
      s_done = [| true; true; false; false |];
      s_best = None;
      s_task_bests = [];
      s_explored = 9;
    }
  in
  let path = tmp_journal () in
  Journal.write ~path snap;
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* drop one "d" record but keep the (now lying) end record: count check *)
  let lines = List.filter (fun l -> l = "" || not (String.length l > 10 && l.[9] = 'd' && l.[11] = '1')) (String.split_on_char '\n' full) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.concat "\n" lines));
  match Journal.load path with
  | Error ds -> Alcotest.(check (list string)) "RT007" [ "RT007" ] (codes ds)
  | Ok _ -> Alcotest.fail "journal with a lying end record loaded"

(* ------------------------------------------------------------------ *)
(* Supervised runs vs the plain engine *)

let outcome_ok = function
  | Ok o -> o
  | Error ds -> Alcotest.fail ("engine rejected: " ^ Diag.render_all ds)

let check_same name (plain : Select.result) (o : Engine.outcome) =
  Alcotest.(check (list string))
    (name ^ ": same selection")
    (Select.selected_names plain)
    (Select.selected_names o.Engine.o_result);
  Alcotest.(check (float 0.0)) (name ^ ": gain bit-identical") plain.Select.gain
    o.Engine.o_result.Select.gain

let test_supervised_equals_plain () =
  List.iter
    (fun sc ->
      let inter = Scenario.interleave sc in
      let plain = Select.select ~pack:false inter ~buffer_width:32 in
      List.iter
        (fun jobs ->
          let o =
            outcome_ok (Engine.select ~jobs ~pack:false inter ~buffer_width:32)
          in
          check_same (Printf.sprintf "%s jobs=%d" sc.Scenario.name jobs) plain o;
          Alcotest.(check bool)
            (sc.Scenario.name ^ ": complete")
            true
            (o.Engine.o_status = Engine.Complete))
        [ 1; 2; 4 ])
    Scenario.all

(* Transient faults: the first attempt of every third task dies. The
   supervisor retries; because task bodies are transactional the final
   answer is bit-identical to an unfaulted run. *)
let test_transient_faults_bit_identical () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let plain = Select.select ~pack:false inter ~buffer_width:32 in
  List.iter
    (fun jobs ->
      let inject ~task ~attempt = if task mod 3 = 0 && attempt = 1 then failwith "transient" in
      let o =
        outcome_ok (Engine.select ~jobs ~pack:false ~inject inter ~buffer_width:32)
      in
      check_same (Printf.sprintf "faulted jobs=%d" jobs) plain o;
      Alcotest.(check bool) "retries happened" true (o.Engine.o_retries > 0);
      Alcotest.(check bool) "still complete" true (o.Engine.o_status = Engine.Complete);
      Alcotest.(check (list int)) "no permanent failures" [] o.Engine.o_failed_tasks)
    [ 1; 2; 4 ]

(* Permanent fault: one task dies on every attempt. The run degrades to
   Partial, names the task, and its siblings' results survive — verified
   against a by-hand fold over every task except the poisoned one. *)
let test_permanent_fault_keeps_siblings () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let buffer_width = 32 in
  let pool = Interleave.messages inter in
  let plan = Combination.plan pool ~width:buffer_width in
  let ntasks = Combination.n_tasks plan in
  Alcotest.(check bool) "scenario splits into several tasks" true (ntasks > 1);
  let poisoned = ntasks / 2 in
  let inject ~task ~attempt:_ = if task = poisoned then failwith "permanent" in
  List.iter
    (fun jobs ->
      let o =
        outcome_ok (Engine.select ~jobs ~pack:false ~inject inter ~buffer_width)
      in
      Alcotest.(check bool) "partial" true (o.Engine.o_status = Engine.Partial);
      Alcotest.(check (list int)) "failed task named" [ poisoned ] o.Engine.o_failed_tasks;
      Alcotest.(check int) "siblings all done" (ntasks - 1) o.Engine.o_done_tasks;
      (* reference: score every healthy task's candidates, listed
         without any walk, with Step 2 — no kernel involved *)
      let healthy =
        List.concat_map (Gen.task_candidates plan pool)
          (List.filter (fun t -> t <> poisoned) (List.init ntasks Fun.id))
      in
      let _, gain = Select.step2 inter healthy in
      Alcotest.(check (float 0.0)) "best over healthy tasks" gain o.Engine.o_result.Select.gain)
    [ 1; 2; 4 ]

(* Kill/resume determinism: stop a checkpointed run early with a candidate
   cap, then resume without budgets — the finished answer must be
   bit-identical to an uninterrupted run, at any job count. *)
let test_resume_bit_identical () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let plain = Select.select ~pack:false inter ~buffer_width:32 in
  List.iter
    (fun jobs ->
      let path = tmp_journal () in
      let first =
        outcome_ok
          (Engine.select ~jobs ~pack:false ~checkpoint:path ~max_candidates:40 inter
             ~buffer_width:32)
      in
      Alcotest.(check bool) "first run is partial" true
        (first.Engine.o_status = Engine.Partial);
      let resumed =
        outcome_ok
          (Engine.select ~jobs ~pack:false ~checkpoint:path ~resume:true inter ~buffer_width:32)
      in
      Alcotest.(check bool) "resumed run completes" true
        (resumed.Engine.o_status = Engine.Complete);
      Alcotest.(check bool) "tasks were resumed" true (resumed.Engine.o_resumed_tasks > 0);
      check_same (Printf.sprintf "resume jobs=%d" jobs) plain resumed;
      (* resuming a finished journal is a no-op that returns the answer *)
      let again =
        outcome_ok
          (Engine.select ~jobs ~pack:false ~checkpoint:path ~resume:true inter ~buffer_width:32)
      in
      check_same "re-resume" plain again;
      Alcotest.(check int) "nothing left to run" 0
        (again.Engine.o_done_tasks - again.Engine.o_resumed_tasks))
    [ 1; 2; 4 ]

let test_resume_rejects_other_run () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let path = tmp_journal () in
  ignore
    (outcome_ok (Engine.select ~pack:false ~checkpoint:path ~max_candidates:40 inter
         ~buffer_width:32));
  match Engine.select ~pack:false ~checkpoint:path ~resume:true inter ~buffer_width:16 with
  | Error ds -> Alcotest.(check (list string)) "RT004" [ "RT004" ] (codes ds)
  | Ok _ -> Alcotest.fail "journal accepted for a different buffer width"

let test_expired_deadline_greedy_fallback () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let o =
    outcome_ok
      (Engine.select ~pack:false
         ~deadline:(Unix.gettimeofday () -. 1.0)
         inter ~buffer_width:32)
  in
  Alcotest.(check bool) "partial" true (o.Engine.o_status = Engine.Partial);
  (match o.Engine.o_result.Select.tier with
  | Select.Tier.Greedy_fallback -> ()
  | t -> Alcotest.fail ("expected greedy fallback, got " ^ Select.Tier.to_string t));
  let combo = Select.greedy inter ~buffer_width:32 in
  Alcotest.(check (float 0.0))
    "greedy gain"
    (Infogain.of_combination inter combo)
    o.Engine.o_result.Select.gain

let test_core_max_candidates_anytime () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let r = Select.select ~pack:false ~max_candidates:10 inter ~buffer_width:32 in
  match r.Select.tier with
  | Select.Tier.Anytime { explored; _ } ->
      Alcotest.(check bool) "explored within cap" true (explored <= 10)
  | t -> Alcotest.fail ("expected anytime, got " ^ Select.Tier.to_string t)

(* An unexpired budget must not change the answer: same walk, same ticks,
   same unique best. *)
let prop_unexpired_budget_identical =
  QCheck.Test.make ~name:"budgeted-but-unexpired select is bit-identical" ~count:20 seed_arb
    (fun seed ->
      let inter = Gen.interleaving_of_seed seed in
      let widths = List.map (fun (m : Message.t) -> m.Message.width) (Interleave.messages inter) in
      let minw = List.fold_left min max_int widths in
      let buffer_width = minw + 4 in
      let plain = Select.select ~pack:false inter ~buffer_width in
      let budgeted =
        Select.select ~pack:false
          ~deadline:(Unix.gettimeofday () +. 3600.0)
          ~max_candidates:max_int inter ~buffer_width
      in
      Select.selected_names plain = Select.selected_names budgeted
      && plain.Select.gain = budgeted.Select.gain
      && budgeted.Select.tier = Select.Tier.Exact)

(* ------------------------------------------------------------------ *)
(* Every front door decides the limit, the budget and the answer alike *)

let render r = Format.asprintf "%a" Select.pp_result r

(* At limit = total - 1 every exact front door refuses; at limit = total
   every one answers the same. The delta walk prunes, so a limit counted
   per visited leaf would let it through below the total. *)
let test_limit_decided_once () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let w = 32 in
  let total = Combination.count (Interleave.messages inter) ~width:w in
  let plain = Select.select ~pack:false inter ~buffer_width:w in
  let seeds = [ List.map (fun (m : Message.t) -> m.Message.name) plain.Select.messages ] in
  let far = Unix.gettimeofday () +. 3600.0 in
  let doors limit =
    [
      ("plain", fun () -> Select.select ~limit ~pack:false inter ~buffer_width:w);
      ("budgeted", fun () -> Select.select ~limit ~deadline:far ~pack:false inter ~buffer_width:w);
      ("delta", fun () -> fst (Select.reselect ~limit ~seeds ~pack:false inter ~buffer_width:w));
      ( "checkpoint",
        fun () ->
          (outcome_ok
             (Engine.select ~limit ~checkpoint:(tmp_journal ()) ~pack:false inter ~buffer_width:w))
            .Engine.o_result );
    ]
  in
  List.iter
    (fun (door, run) ->
      match run () with
      | exception Combination.Too_many n ->
          Alcotest.(check int) (door ^ ": refused at total - 1") (total - 1) n
      | _ -> Alcotest.fail (door ^ ": answered past its limit"))
    (doors (total - 1));
  List.iter
    (fun (door, run) ->
      Alcotest.(check string) (door ^ ": answers at limit = total") (render plain) (render (run ())))
    (doors total)

(* The anytime tier reports the exact candidate total, not an
   extrapolation from the finished fraction of the task plan. *)
let test_anytime_total_exact () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let total = Combination.count (Interleave.messages inter) ~width:32 in
  List.iter
    (fun cap ->
      let r = Select.select ~pack:false ~max_candidates:cap inter ~buffer_width:32 in
      Alcotest.(check string)
        (Printf.sprintf "cap %d" cap)
        (Printf.sprintf "anytime (best of %d of %d candidates)" cap total)
        (Select.Tier.to_string r.Select.tier))
    [ 1; 5; 40 ]

(* The supervised front door keeps what an expired budget scored: at one
   job it walks the same leaves as the core one and prints the same
   result, journal or not. *)
let test_front_doors_agree_under_caps () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  List.iter
    (fun cap ->
      let core = Select.select ~pack:false ~max_candidates:cap inter ~buffer_width:32 in
      List.iter
        (fun checkpoint ->
          let o =
            outcome_ok
              (Engine.select ~pack:false ~max_candidates:cap ?checkpoint inter ~buffer_width:32)
          in
          Alcotest.(check string)
            (Printf.sprintf "cap %d%s" cap (if checkpoint = None then "" else " --checkpoint"))
            (render core) (render o.Engine.o_result))
        [ None; Some (tmp_journal ()) ])
    [ 1; 5; 40; 200 ]

(* ------------------------------------------------------------------ *)
(* CRC32 and trace-buffer guards *)

let test_crc32_vectors () =
  (* the standard zlib check value *)
  Alcotest.(check string) "crc32(123456789)" "cbf43926" (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "crc32(empty)" "00000000" (Crc32.to_hex (Crc32.string ""));
  let a, b = ("flowtrace ", "journal") in
  Alcotest.(check int32) "chunked = whole"
    (Crc32.string (a ^ b))
    (Crc32.update (Crc32.string a) b)

(* ------------------------------------------------------------------ *)
(* Retry backoff (satellite of the service PR) *)

module Backoff = Flowtrace_runtime.Backoff
module Tel = Flowtrace_telemetry.Telemetry

let test_backoff_deterministic () =
  let t = Backoff.make ~seed:42 () in
  for task = 0 to 5 do
    for attempt = 1 to 6 do
      let a = Backoff.delay_ns t ~task ~attempt in
      let b = Backoff.delay_ns t ~task ~attempt in
      Alcotest.(check int) "pure in (seed, task, attempt)" a b;
      Alcotest.(check bool) "positive" true (a > 0)
    done
  done;
  (* different seeds must not replay the same jitter schedule *)
  let schedule seed =
    let t = Backoff.make ~seed () in
    List.concat_map
      (fun task -> List.map (fun a -> Backoff.delay_ns t ~task ~attempt:a) [ 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "seeds diverge" true (schedule 0 <> schedule 1);
  (match Backoff.delay_ns t ~task:0 ~attempt:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 accepted");
  List.iter
    (fun attempt ->
      Alcotest.(check int) "none is zero delay" 0
        (Backoff.delay_ns Backoff.none ~task:3 ~attempt))
    [ 1; 2; 10 ]

let test_backoff_exponential_capped () =
  (* with jitter 0 the policy is the bare bounded exponential *)
  let base = 1_000 and cap = 50_000 in
  let t = Backoff.make ~base_ns:base ~cap_ns:cap ~jitter:0.0 ~seed:7 () in
  List.iteri
    (fun i expected ->
      Alcotest.(check int)
        (Printf.sprintf "attempt %d" (i + 1))
        expected
        (Backoff.delay_ns t ~task:0 ~attempt:(i + 1)))
    [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000; 50_000; 50_000 ];
  (* jitter only ever adds, and at most the jitter fraction *)
  let j = Backoff.make ~base_ns:base ~cap_ns:cap ~jitter:0.5 ~seed:7 () in
  for attempt = 1 to 8 do
    let bare = Backoff.delay_ns t ~task:1 ~attempt in
    let with_j = Backoff.delay_ns j ~task:1 ~attempt in
    Alcotest.(check bool) "jitter adds" true (with_j >= bare);
    Alcotest.(check bool) "jitter bounded" true
      (float_of_int with_j <= float_of_int bare *. 1.5 +. 1.0)
  done;
  (match Backoff.make ~base_ns:0 ~seed:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "base 0 accepted");
  match Backoff.make ~jitter:1.5 ~seed:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jitter > 1 accepted"

(* Retried runs under a backoff policy: same bits as an undisturbed run,
   and the wait shows up in the runtime.task.backoff_ns counter. *)
let test_supervised_backoff_bit_identical () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let plain = Select.select ~pack:false inter ~buffer_width:32 in
  let backoff = Backoff.make ~base_ns:10_000 ~cap_ns:100_000 ~seed:1 () in
  (* counters only count while a sink is installed *)
  Tel.install Flowtrace_telemetry.Sink.null;
  Fun.protect ~finally:Tel.shutdown @@ fun () ->
  let c = Tel.Counter.v "runtime.task.backoff_ns" in
  let before = Tel.Counter.value c in
  let inject ~task ~attempt = if task mod 2 = 0 && attempt = 1 then failwith "transient" in
  let o =
    outcome_ok (Engine.select ~jobs:2 ~pack:false ~backoff ~inject inter ~buffer_width:32)
  in
  check_same "backoff" plain o;
  Alcotest.(check bool) "retried" true (o.Engine.o_retries > 0);
  Alcotest.(check bool) "backoff time counted" true (Tel.Counter.value c > before)

(* ------------------------------------------------------------------ *)
(* Budget deadline stride (satellite) *)

let test_budget_stride_bound () =
  List.iter
    (fun stride ->
      let b = Budget.make ~deadline:(Unix.gettimeofday () -. 1.0) ~stride () in
      let ticks = ref 0 in
      (try
         while !ticks <= stride do
           Budget.tick b;
           incr ticks
         done;
         Alcotest.fail
           (Printf.sprintf "stride %d: no expiry within %d ticks" stride !ticks)
       with Budget.Expired -> ());
      Alcotest.(check bool)
        (Printf.sprintf "stride %d: expired within one stride" stride)
        true (!ticks < stride))
    [ 1; 7; 64; Budget.default_stride ];
  match Budget.make ~stride:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stride 0 accepted"

(* ------------------------------------------------------------------ *)
(* Exhaustive torn-write recovery (satellite): truncate the journal at
   EVERY byte offset past the header. Each cut must either load whole
   (no cut) or recover a done-subset prefix with only RT006 warnings —
   never a hard error, never a superset. *)

let test_journal_truncation_exhaustive () =
  let snap =
    {
      Journal.s_fingerprint = "00deadbeef00cafe";
      s_total_tasks = 6;
      s_done = [| true; false; true; true; false; true |];
      s_best = Some { Journal.b_names = [ "GntE"; "ReqE" ]; b_gain = 4607182418800017408L; b_bits = 12 };
      s_task_bests =
        [
          (0, { Journal.b_names = [ "ReqE" ]; b_gain = 4602678819172646912L; b_bits = 8 });
          (2, { Journal.b_names = [ "GntE" ]; b_gain = 4607182418800017408L; b_bits = 4 });
        ];
      s_explored = 123;
    }
  in
  let path = tmp_journal () in
  Journal.write ~path snap;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let header_end = String.index full '\n' + 1 in
  for keep = header_end to String.length full do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 keep));
    match Journal.load path with
    | Error ds ->
        Alcotest.fail
          (Printf.sprintf "keep=%d: hard error: %s" keep (Diag.render_all ds))
    | Ok (got, warnings) ->
        (* a cut may land exactly on a record boundary (e.g. removing only
           the final newline), in which case the parse is still complete
           and silence is correct — otherwise the cut must warn RT006 *)
        if warnings = [] then
          Alcotest.(check bool)
            (Printf.sprintf "keep=%d: silent load is complete" keep)
            true
            (got.Journal.s_done = snap.Journal.s_done
            && got.Journal.s_best = snap.Journal.s_best
            && got.Journal.s_explored = snap.Journal.s_explored)
        else
          List.iter
            (fun c ->
              Alcotest.(check string) (Printf.sprintf "keep=%d: RT006 only" keep) "RT006" c)
            (codes warnings);
        Alcotest.(check int)
          (Printf.sprintf "keep=%d: task count" keep)
          snap.Journal.s_total_tasks got.Journal.s_total_tasks;
        Array.iteri
          (fun i g ->
            if g && not snap.Journal.s_done.(i) then
              Alcotest.fail (Printf.sprintf "keep=%d: task %d done out of nowhere" keep i))
          got.Journal.s_done
  done

(* ------------------------------------------------------------------ *)
(* Journal.Log: the journal machinery as a generic record log *)

let test_log_roundtrip () =
  let path = tmp_journal () in
  let records = [ "id a"; "tenant team-\\x"; "spec flow F"; "" ] in
  Journal.Log.write ~path ~kind:"session" records;
  (match Journal.Log.load ~kind:"session" path with
  | Ok (got, warnings) ->
      Alcotest.(check (list string)) "records round-trip" records got;
      Alcotest.(check (list string)) "clean" [] (codes warnings)
  | Error ds -> Alcotest.fail (Diag.render_all ds));
  (* a readable log of another kind must be refused, not confused *)
  (match Journal.Log.load ~kind:"checkpoint" path with
  | Error ds -> Alcotest.(check (list string)) "wrong kind is RT002" [ "RT002" ] (codes ds)
  | Ok _ -> Alcotest.fail "wrong-kind log loaded");
  (match Journal.Log.write ~path ~kind:"bad kind" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "whitespace kind accepted");
  match Journal.Log.write ~path ~kind:"k" [ "a\nb" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "newline record accepted"

let test_log_truncation_exhaustive () =
  let path = tmp_journal () in
  let records = [ "one"; "two two"; "three three three" ] in
  Journal.Log.write ~path ~kind:"k" records;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let header_end = String.index full '\n' + 1 in
  for keep = header_end to String.length full do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 keep));
    match Journal.Log.load ~kind:"k" path with
    | Error ds ->
        Alcotest.fail (Printf.sprintf "keep=%d: hard error: %s" keep (Diag.render_all ds))
    | Ok (got, warnings) ->
        Alcotest.(check bool)
          (Printf.sprintf "keep=%d: record prefix" keep)
          true
          (List.length got <= List.length records
          && got = List.filteri (fun i _ -> i < List.length got) records);
        if warnings = [] then
          Alcotest.(check (list string))
            (Printf.sprintf "keep=%d: silent load is complete" keep)
            records got
        else
          Alcotest.(check bool) "cut warns RT006" true (List.mem "RT006" (codes warnings))
  done;
  (* mid-file damage stays a hard RT005 *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc full);
  let body = Bytes.of_string full in
  Bytes.set body (header_end + 1) 'X';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc body);
  match Journal.Log.load ~kind:"k" path with
  | Error ds -> Alcotest.(check bool) "RT005" true (List.mem "RT005" (codes ds))
  | Ok _ -> Alcotest.fail "bit-flipped log loaded"

(* ------------------------------------------------------------------ *)
(* Format stability: files an earlier build wrote under corpus/ load
   clean and re-render byte for byte *)

let corpus_dir =
  (* dune copies corpus/ next to the test's cwd; from the repository
     root it is test/corpus *)
  match List.find_opt Sys.file_exists [ "corpus"; Filename.concat "test" "corpus" ] with
  | Some d -> d
  | None -> Alcotest.fail "test corpus directory not found"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_fixture_checkpoints () =
  List.iter
    (fun name ->
      let path = Filename.concat corpus_dir name in
      match Journal.load path with
      | Error ds -> Alcotest.fail (Diag.render_all ds)
      | Ok (snap, warnings) ->
          Alcotest.(check (list string)) (name ^ " loads clean") [] (codes warnings);
          let out = tmp_journal () in
          Journal.write ~path:out snap;
          Alcotest.(check string) (name ^ " re-renders byte for byte") (read_file path)
            (read_file out))
    [ "t2-w32.ckpt"; "t2-w32-partial.ckpt" ]

let test_fixture_sessions () =
  let module Store = Flowtrace_service.Store in
  let dir = Filename.concat corpus_dir "state" in
  let out = Filename.temp_file "flowtrace-fixture" "" in
  Sys.remove out;
  Sys.mkdir out 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
      Sys.rmdir out)
  @@ fun () ->
  let sessions, diags = Store.load_all dir in
  Alcotest.(check (list string)) "state dir loads clean" [] (codes diags);
  Alcotest.(check (list string))
    "both sessions" [ "sc1"; "tiny" ]
    (List.map (fun s -> s.Store.se_id) sessions);
  List.iter
    (fun s ->
      Store.save ~dir:out s;
      let id = s.Store.se_id in
      Alcotest.(check string) (id ^ " re-renders byte for byte")
        (read_file (Store.file_of ~dir id))
        (read_file (Store.file_of ~dir:out id)))
    sessions

let test_sample_zero_rejected () =
  let inter = Scenario.interleave (List.hd Scenario.all) in
  let sel = Select.select ~strategy:Select.Greedy inter ~buffer_width:16 in
  List.iter
    (fun k ->
      match Trace_buffer.create ~policy:(Trace_buffer.Sample k) ~depth:8 sel with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "Sample %d accepted" k))
    [ 0; -1; -100 ];
  List.iter
    (fun s ->
      match Trace_buffer.parse_policy s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ " parsed"))
    [ "sample:0"; "sample:-3"; "sample:"; "sample:x" ];
  match Trace_buffer.create ~policy:(Trace_buffer.Sample 1) ~depth:8 sel with
  | _ -> ()

let () =
  Alcotest.run "runtime"
    [
      ( "journal",
        [
          Alcotest.test_case "bit-flip mid-file is RT005" `Quick test_journal_bitflip_is_error;
          Alcotest.test_case "wrong version is RT003" `Quick test_journal_wrong_version;
          Alcotest.test_case "garbage is RT002" `Quick test_journal_not_a_journal;
          Alcotest.test_case "unreadable is RT001" `Quick test_journal_unreadable;
          Alcotest.test_case "lying end record is RT007" `Quick test_journal_broken_seal;
          Alcotest.test_case "truncation at every offset recovers (RT006)" `Quick
            test_journal_truncation_exhaustive;
          Alcotest.test_case "Log round-trips and rejects wrong kind" `Quick test_log_roundtrip;
          Alcotest.test_case "Log truncation at every offset recovers" `Quick
            test_log_truncation_exhaustive;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_journal_roundtrip; prop_journal_truncation_recovers ] );
      ( "fixtures",
        [
          Alcotest.test_case "earlier-build checkpoints re-render" `Quick
            test_fixture_checkpoints;
          Alcotest.test_case "earlier-build session files re-render" `Quick
            test_fixture_sessions;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "delay is pure in (seed, task, attempt)" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "bounded exponential with additive jitter" `Quick
            test_backoff_exponential_capped;
          Alcotest.test_case "retries under backoff stay bit-identical" `Quick
            test_supervised_backoff_bit_identical;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "supervised = plain (jobs 1/2/4)" `Quick
            test_supervised_equals_plain;
          Alcotest.test_case "transient faults retried, bit-identical" `Quick
            test_transient_faults_bit_identical;
          Alcotest.test_case "permanent fault keeps siblings" `Quick
            test_permanent_fault_keeps_siblings;
        ] );
      ( "checkpoint/resume",
        [
          Alcotest.test_case "stop+resume bit-identical (jobs 1/2/4)" `Quick
            test_resume_bit_identical;
          Alcotest.test_case "mismatched journal is RT004" `Quick test_resume_rejects_other_run;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "expired deadline degrades to greedy" `Quick
            test_expired_deadline_greedy_fallback;
          Alcotest.test_case "max-candidates degrades to anytime" `Quick
            test_core_max_candidates_anytime;
          Alcotest.test_case "deadline expiry detected within one stride" `Quick
            test_budget_stride_bound;
          Alcotest.test_case "limit decided once for every front door" `Quick
            test_limit_decided_once;
          Alcotest.test_case "anytime total is the exact count" `Quick test_anytime_total_exact;
          Alcotest.test_case "capped supervised = capped core (jobs 1)" `Quick
            test_front_doors_agree_under_caps;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_unexpired_budget_identical ] );
      ( "guards",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "Sample k<=0 rejected at construction" `Quick
            test_sample_zero_rejected;
        ] );
    ]
