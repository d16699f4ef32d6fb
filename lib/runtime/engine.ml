open Flowtrace_core
open Flowtrace_analysis
module Tel = Flowtrace_telemetry.Telemetry

let c_ckpt_writes = Tel.Counter.v "runtime.checkpoint.writes"
let c_skipped = Tel.Counter.v "runtime.task.skipped"

(* same counter the core engine bumps on degraded results — Counter.v
   memoizes by name, so both layers feed one total *)
let c_degraded = Tel.Counter.v "select.degraded"

type status = Complete | Partial

type outcome = {
  o_result : Select.result;
  o_status : status;
  o_total_tasks : int;
  o_done_tasks : int;
  o_resumed_tasks : int;
  o_failed_tasks : int list;
  o_retries : int;
  o_diags : Diagnostic.t list;
}

let completeness o =
  if o.o_total_tasks = 0 then 1.0 else float_of_int o.o_done_tasks /. float_of_int o.o_total_tasks

let pp_outcome ppf o =
  Format.fprintf ppf "supervision: %d/%d tasks done" o.o_done_tasks o.o_total_tasks;
  if o.o_resumed_tasks > 0 then
    Format.fprintf ppf " (%d resumed from checkpoint)" o.o_resumed_tasks;
  if o.o_retries > 0 then
    Format.fprintf ppf ", %d retr%s" o.o_retries (if o.o_retries = 1 then "y" else "ies");
  (match o.o_failed_tasks with
  | [] -> ()
  | ids ->
      Format.fprintf ppf ", %d task%s failed permanently (%s)" (List.length ids)
        (if List.length ids = 1 then "" else "s")
        (String.concat ", " (List.map string_of_int ids)));
  match o.o_status with
  | Complete -> Format.fprintf ppf " — complete"
  | Partial -> Format.fprintf ppf " — partial (%.0f%% of the search)" (100.0 *. completeness o)

exception Reject of Diagnostic.t list

(* Re-score a journalled best on the kernel. The ascending-slot sum is
   the walk's own float association, so a journal written by any run of
   this spec revision re-derives its stored IEEE-754 bits exactly — and a
   journal paired with the wrong spec revision (same names, different
   interleavings) is caught. *)
let rebuild_best k path (b : Journal.best) =
  let reject msg = raise (Reject [ Rt.v "RT004" (Srcspan.none path) "%s" msg ]) in
  match Kernel.candidate_of_names k b.b_names with
  | None -> reject "journal best references messages absent from this flow spec"
  | Some c ->
      if Int64.bits_of_float c.Kernel.c_gain <> b.b_gain || c.Kernel.c_bits <> b.b_bits then
        reject
          "journal best does not re-score identically; the spec or scoring changed since the \
           checkpoint was written";
      c

let select ?(strategy = Select.Exact) ?(limit = Combination.default_limit) ?(jobs = 1)
    ?(retries = 2) ?backoff ?deadline ?max_candidates ?checkpoint ?(resume = false)
    ?(checkpoint_every = 1) ?pack ?scale_partial ?inject inter ~buffer_width =
  if resume && checkpoint = None then
    invalid_arg "Engine.select: ~resume needs a ~checkpoint path to load";
  let checkpoint_every = max 1 checkpoint_every in
  match strategy with
  | Select.Greedy ->
      (* nothing to split, supervise or journal *)
      let r = Select.select ~strategy ?pack ?scale_partial inter ~buffer_width in
      Ok
        {
          o_result = r;
          o_status = Complete;
          o_total_tasks = 0;
          o_done_tasks = 0;
          o_resumed_tasks = 0;
          o_failed_tasks = [];
          o_retries = 0;
          o_diags = [];
        }
  | Select.Exact | Select.Exact_maximal -> (
      try
        Tel.with_span "runtime.select" (fun () ->
            let only_maximal = strategy = Select.Exact_maximal in
            let k = Kernel.make inter in
            let plan = Kernel.plan k ~buffer_width in
            let ntasks = Combination.n_tasks plan in
            let fp =
              Fingerprint.v ~pool:(Interleave.messages inter) ~buffer_width ~strategy
                ~n_tasks:ntasks
            in
            (* -------- resume -------- *)
            let done_ = Array.make ntasks false in
            let best = ref None in
            let task_bests = Array.make ntasks None in
            let explored0 = ref 0 in
            let diags = ref [] in
            (match checkpoint with
            | Some path when resume && Sys.file_exists path -> (
                match Journal.load path with
                | Error ds -> raise (Reject ds)
                | Ok (snap, warns) ->
                    if snap.Journal.s_fingerprint <> fp || snap.Journal.s_total_tasks <> ntasks
                    then
                      raise
                        (Reject
                           [
                             Rt.v "RT004" (Srcspan.none path)
                               "journal was written by a different run (fingerprint %s over %d \
                                tasks; this run is %s over %d) — different spec, buffer width or \
                                strategy"
                               snap.Journal.s_fingerprint snap.Journal.s_total_tasks fp ntasks;
                           ]);
                    Array.blit snap.Journal.s_done 0 done_ 0 ntasks;
                    best := Option.map (rebuild_best k path) snap.Journal.s_best;
                    List.iter
                      (fun (id, b) -> task_bests.(id) <- Some (rebuild_best k path b))
                      snap.Journal.s_task_bests;
                    explored0 := snap.Journal.s_explored;
                    diags := warns)
            | _ -> ());
            let resumed = Array.fold_left (fun n d -> if d then n + 1 else n) 0 done_ in
            if resumed > 0 then Tel.Counter.add c_skipped resumed;
            let pending =
              Array.of_list
                (List.filter (fun t -> not done_.(t)) (List.init ntasks (fun t -> t)))
            in
            (* -------- checkpointing -------- *)
            let budget = Budget.make ?deadline ?max_candidates () in
            let mutex = Mutex.create () in
            let since = ref 0 in
            let ckpt_on = ref (checkpoint <> None) in
            let write_ckpt () =
              (* call with [mutex] held *)
              match checkpoint with
              | Some path when !ckpt_on -> (
                  let persist c =
                    {
                      Journal.b_names = Kernel.key k c;
                      b_gain = Int64.bits_of_float c.Kernel.c_gain;
                      b_bits = c.Kernel.c_bits;
                    }
                  in
                  let snap =
                    {
                      Journal.s_fingerprint = fp;
                      s_total_tasks = ntasks;
                      s_done = Array.copy done_;
                      s_best = Option.map persist !best;
                      s_task_bests =
                        Array.to_list task_bests
                        |> List.mapi (fun id p -> (id, p))
                        |> List.filter_map (fun (id, p) ->
                               if done_.(id) then Option.map (fun p -> (id, persist p)) p
                               else None);
                      s_explored = !explored0 + Budget.explored budget;
                    }
                  in
                  try
                    Journal.write ~path snap;
                    Tel.Counter.incr c_ckpt_writes
                  with Vfs.Io_error { e_msg; _ } ->
                    (* a dead checkpoint target must not kill the
                       selection: report it and carry on un-journalled *)
                    ckpt_on := false;
                    diags :=
                      !diags
                      @ [
                          Rt.v "RT001" (Srcspan.none path)
                            "cannot write checkpoint (%s); checkpointing disabled for this run"
                            e_msg;
                        ])
              | _ -> ()
            in
            (* compaction: a journal resumed from a recovered (truncated)
               tail is rewritten sealed before any new work, so the next
               crash recovers from a clean file instead of compounding
               damage *)
            if !diags <> [] && !ckpt_on then begin
              Mutex.protect mutex write_ckpt;
              diags :=
                !diags
                @ [
                    (match checkpoint with
                    | Some path ->
                        Rt.v "RT010" (Srcspan.none path)
                          "recovered journal compacted (sealed prefix rewritten)"
                    | None -> assert false);
                  ]
            end;
            (* a task stopped by budget expiry offers its best-so-far to the
               anytime answer; it is neither marked done nor journalled *)
            let partial = ref None in
            let publish t c =
              Mutex.protect mutex (fun () ->
                  best := Kernel.merge k !best c;
                  task_bests.(t) <- c;
                  done_.(t) <- true;
                  incr since;
                  if !since >= checkpoint_every then begin
                    since := 0;
                    write_ckpt ()
                  end)
            in
            (* -------- the supervised run -------- *)
            let run_task a t =
              let cell = Kernel.cell k in
              match
                Kernel.walk_task a plan t ~only_maximal ~incumbent:neg_infinity ~budget cell
              with
              | () -> publish t (Kernel.best cell)
              | exception (Budget.Expired as e) ->
                  Mutex.protect mutex (fun () ->
                      partial := Kernel.merge k !partial (Kernel.best cell));
                  raise e
            in
            let summary =
              if Budget.already_expired budget then
                (* don't even start walking; fall through to degradation *)
                { Supervisor.statuses = Array.make (Array.length pending) Supervisor.Not_run;
                  retried = 0;
                  stopped = Array.length pending > 0;
                }
              else begin
                let a = Kernel.admit k ~limit ~max_candidates ~buffer_width in
                Supervisor.run ~jobs ~retries ?backoff
                  ~should_stop:(function Budget.Expired -> true | _ -> false)
                  ?inject ~tasks:pending (run_task a)
              end
            in
            Mutex.protect mutex (fun () ->
                since := 0;
                write_ckpt ());
            let failed =
              List.filteri (fun i _ -> match summary.Supervisor.statuses.(i) with
                  | Supervisor.Gave_up _ -> true
                  | _ -> false)
                (Array.to_list pending)
            in
            let done_count = Array.fold_left (fun n d -> if d then n + 1 else n) 0 done_ in
            let explored = !explored0 + Budget.explored budget in
            let finalize tier combo gain status =
              {
                o_result =
                  Select.finalize ?pack ?scale_partial ~tier ~kernel:k inter ~combo ~gain
                    ~buffer_width;
                o_status = status;
                o_total_tasks = ntasks;
                o_done_tasks = done_count;
                o_resumed_tasks = resumed;
                o_failed_tasks = failed;
                o_retries = summary.Supervisor.retried;
                o_diags = !diags;
              }
            in
            if done_count = ntasks && failed = [] then
              match !best with
              | Some c -> finalize Select.Tier.Exact (Kernel.messages k c) c.Kernel.c_gain Complete
              | None -> invalid_arg "Select: no message fits the trace buffer"
            else begin
              Tel.Counter.incr c_degraded;
              match Kernel.merge k !best !partial with
              | Some c ->
                  let total = Kernel.count_candidates k ~buffer_width in
                  finalize
                    (Select.Tier.Anytime { explored; total })
                    (Kernel.messages k c) c.Kernel.c_gain Partial
              | None ->
                  let combo, gain = Select.greedy k ~buffer_width in
                  finalize Select.Tier.Greedy_fallback combo gain Partial
            end)
        |> Result.ok
      with Reject ds -> Error ds)
