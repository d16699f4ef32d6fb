module Diagnostic = Flowtrace_analysis.Diagnostic

type config = {
  socket : string;
  state_dir : string option;
  shards : int;
  max_inflight : int;
  retries : int;
  backoff_seed : int;
  chaos : bool;
  resume : bool;
  queue_grace : float option;
  max_line : int;
  max_out : int;
  max_conn_queue : int;
}

let default =
  {
    socket = "flowtraced.sock";
    state_dir = None;
    shards = 4;
    max_inflight = 64;
    retries = 2;
    backoff_seed = 0;
    chaos = false;
    resume = false;
    queue_grace = None;
    max_line = 1 lsl 20;
    max_out = 8 lsl 20;
    max_conn_queue = 64;
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  inbuf : Buffer.t;
  outbuf : Buffer.t;
  mutable out : string;  (** partial write in progress *)
  mutable out_off : int;
  mutable next_seq : int;  (** next request sequence number to assign *)
  mutable next_write : int;  (** next sequence to emit, enforcing order *)
  pending : (int, string) Hashtbl.t;  (** finished out of order *)
  mutable eof : bool;
  mutable close_after_flush : bool;
}

type job = { j_cid : int; j_seq : int; j_line : string; j_deadline : float option }
type shard_q = { sq_mu : Mutex.t; sq_cv : Condition.t; sq_q : job Queue.t }

let conn_outstanding c = c.next_seq - c.next_write
let conn_wants_write c = c.out <> "" || Buffer.length c.outbuf > 0

(* Move finished responses into the out buffer, strictly in sequence. *)
let promote c =
  let rec go () =
    match Hashtbl.find_opt c.pending c.next_write with
    | Some resp ->
        Hashtbl.remove c.pending c.next_write;
        Buffer.add_string c.outbuf resp;
        Buffer.add_char c.outbuf '\n';
        c.next_write <- c.next_write + 1;
        go ()
    | None -> ()
  in
  go ()

let worker disp stop completed comp_mu pipe_w sq =
  let wake = Bytes.make 1 '!' in
  let rec next () =
    Mutex.lock sq.sq_mu;
    let rec take () =
      if not (Queue.is_empty sq.sq_q) then Some (Queue.pop sq.sq_q)
      else if Atomic.get stop then None
      else begin
        Condition.wait sq.sq_cv sq.sq_mu;
        take ()
      end
    in
    let j = take () in
    Mutex.unlock sq.sq_mu;
    match j with
    | None -> ()
    | Some j ->
        let resp, _ = Dispatch.handle ?drop_deadline:j.j_deadline ~admitted:true disp j.j_line in
        Mutex.protect comp_mu (fun () -> Queue.push (j.j_cid, j.j_seq, resp) completed);
        (try ignore (Unix.write pipe_w wake 0 1) with Unix.Unix_error _ -> ());
        next ()
  in
  next ()

let run ?(ready = fun () -> ()) ?(on_diags = fun _ -> ()) cfg =
  let disp, diags =
    Dispatch.create ?state_dir:cfg.state_dir ~shards:cfg.shards ~max_inflight:cfg.max_inflight
      ~retries:cfg.retries ~backoff_seed:cfg.backoff_seed ~chaos:cfg.chaos ~resume:cfg.resume ()
  in
  on_diags diags;
  (* ---- socket ---- *)
  (* A socket file left behind by a crashed daemon must not block restart,
     but a live daemon's socket must never be stolen out from under it.
     Probe: a listener answering means the address is genuinely in use; a
     refused connection means the file is stale and safe to unlink. *)
  (if Sys.file_exists cfg.socket then
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX cfg.socket) with
     | () ->
         (try Unix.close probe with Unix.Unix_error _ -> ());
         raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", cfg.socket))
     | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
         (try Unix.close probe with Unix.Unix_error _ -> ());
         if Sys.file_exists cfg.socket then Sys.remove cfg.socket
     | exception e ->
         (try Unix.close probe with Unix.Unix_error _ -> ());
         raise e);
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  (* ---- signals: a graceful stop, same path as the shutdown op ---- *)
  let sig_stop = Atomic.make false in
  let old_handlers =
    if Domain.is_main_domain () then begin
      let install s =
        (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set sig_stop true)))
      in
      let pipe = (Sys.sigpipe, Sys.signal Sys.sigpipe Sys.Signal_ignore) in
      [ install Sys.sigterm; install Sys.sigint; pipe ]
    end
    else []
  in
  (* ---- workers: one domain per shard ---- *)
  let worker_stop = Atomic.make false in
  let completed = Queue.create () in
  let comp_mu = Mutex.create () in
  let shard_qs =
    Array.init cfg.shards (fun _ ->
        { sq_mu = Mutex.create (); sq_cv = Condition.create (); sq_q = Queue.create () })
  in
  let workers =
    Array.map
      (fun sq -> Domain.spawn (fun () -> worker disp worker_stop completed comp_mu pipe_w sq))
      shard_qs
  in
  (* ---- connection table ---- *)
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  let jobs_outstanding = ref 0 in
  let stopping = ref false in
  let listen_closed = ref false in
  let drain_deadline = ref infinity in
  let begin_stop () =
    if not !stopping then begin
      stopping := true;
      drain_deadline := Unix.gettimeofday () +. 5.0;
      if not !listen_closed then begin
        listen_closed := true;
        Unix.close listen_fd
      end
    end
  in
  let drop c =
    if Hashtbl.mem conns c.cid then begin
      Hashtbl.remove conns c.cid;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let complete c seq resp =
    Hashtbl.replace c.pending seq resp;
    promote c
  in
  let handle_line c line =
    let seq = c.next_seq in
    c.next_seq <- c.next_seq + 1;
    match Proto.parse line with
    | Error _ ->
        (* re-dispatch for the canonical error rendering (and counting) *)
        let resp, _ = Dispatch.handle disp line in
        complete c seq resp
    | Ok rq when not (Proto.needs_session rq.Proto.rq_op) ->
        let resp, stop = Dispatch.handle disp line in
        complete c seq resp;
        if stop then begin_stop ()
    | Ok rq ->
        let sid = Option.get rq.Proto.rq_session in
        if Dispatch.admit disp then begin
          let deadline = Option.map (fun g -> Unix.gettimeofday () +. g) cfg.queue_grace in
          let sq = shard_qs.(Dispatch.shard_of disp sid) in
          Mutex.protect sq.sq_mu (fun () ->
              Queue.push
                { j_cid = c.cid; j_seq = seq; j_line = line; j_deadline = deadline }
                sq.sq_q;
              Condition.signal sq.sq_cv);
          incr jobs_outstanding
        end
        else
          complete c seq
            (Dispatch.busy_response disp ?id:rq.Proto.rq_id
               ~op:(Proto.op_name rq.Proto.rq_op) ())
  in
  let oversize c =
    Buffer.clear c.inbuf;
    let seq = c.next_seq in
    c.next_seq <- c.next_seq + 1;
    complete c seq
      (Proto.error ~op:"invalid"
         (Printf.sprintf "request line exceeds %d bytes" cfg.max_line));
    c.eof <- true;
    c.close_after_flush <- true
  in
  let process_inbuf c =
    let s = Buffer.contents c.inbuf in
    let n = String.length s in
    let start = ref 0 in
    let i = ref 0 in
    while !i < n && not c.close_after_flush do
      if s.[!i] = '\n' then begin
        (* a complete line past the cap is rejected too, not just an
           unterminated one that is still accumulating *)
        if !i - !start > cfg.max_line then oversize c
        else handle_line c (String.sub s !start (!i - !start));
        start := !i + 1
      end;
      incr i
    done;
    if not c.close_after_flush then begin
      Buffer.clear c.inbuf;
      if !start < n then Buffer.add_substring c.inbuf s !start (n - !start);
      if Buffer.length c.inbuf > cfg.max_line then oversize c
    end
  in
  let read_buf = Bytes.create 65536 in
  let do_read c =
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 ->
        c.eof <- true;
        (* serve the complete lines a half-closing client already sent *)
        process_inbuf c
    | n ->
        Buffer.add_subbytes c.inbuf read_buf 0 n;
        process_inbuf c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop c
  in
  let do_write c =
    if c.out = "" && Buffer.length c.outbuf > 0 then begin
      c.out <- Buffer.contents c.outbuf;
      c.out_off <- 0;
      Buffer.clear c.outbuf
    end;
    if c.out <> "" then
      match Unix.write_substring c.fd c.out c.out_off (String.length c.out - c.out_off) with
      | n ->
          c.out_off <- c.out_off + n;
          if c.out_off >= String.length c.out then begin
            c.out <- "";
            c.out_off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> drop c
  in
  let drain_completed () =
    let items =
      Mutex.protect comp_mu (fun () ->
          let items = List.of_seq (Queue.to_seq completed) in
          Queue.clear completed;
          items)
    in
    List.iter
      (fun (cid, seq, resp) ->
        decr jobs_outstanding;
        match Hashtbl.find_opt conns cid with
        | Some c -> complete c seq resp
        | None -> () (* client vanished; the response has nowhere to go *))
      items
  in
  (* one buffer for every wake-up: 4 KiB is past the minor-heap size
     limit, so a fresh one per drain would be a major-heap allocation *)
  let drain_buf = Bytes.create 4096 in
  let drain_pipe () =
    let rec go () =
      match Unix.read pipe_r drain_buf 0 4096 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let accept () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          incr next_cid;
          let c =
            {
              fd;
              cid = !next_cid;
              inbuf = Buffer.create 256;
              outbuf = Buffer.create 256;
              out = "";
              out_off = 0;
              next_seq = 0;
              next_write = 0;
              pending = Hashtbl.create 4;
              eof = false;
              close_after_flush = false;
            }
          in
          Hashtbl.replace conns c.cid c;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  ready ();
  (* ---- the loop ---- *)
  let finished () =
    !stopping
    && (!jobs_outstanding = 0
        && Hashtbl.fold (fun _ c acc -> acc && not (conn_wants_write c)) conns true
       || Unix.gettimeofday () > !drain_deadline)
  in
  while not (finished ()) do
    if Atomic.get sig_stop then begin_stop ();
    let conn_list = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    (* a slow reader past the buffer cap is dropped, not buffered forever *)
    List.iter
      (fun c ->
        if Buffer.length c.outbuf + String.length c.out > cfg.max_out then drop c)
      conn_list;
    let conn_list = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    let reads =
      (if !stopping || !listen_closed then [] else [ listen_fd ])
      @ [ pipe_r ]
      @ List.filter_map
          (fun c ->
            if
              (not c.eof) && (not !stopping)
              && conn_outstanding c < cfg.max_conn_queue
            then Some c.fd
            else None)
          conn_list
    in
    let writes = List.filter_map (fun c -> if conn_wants_write c then Some c.fd else None) conn_list in
    let rs, _, _ =
      match Unix.select reads writes [] 0.25 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq pipe_r rs then drain_pipe ();
    drain_completed ();
    if (not !listen_closed) && List.memq listen_fd rs then accept ();
    List.iter
      (fun c -> if List.memq c.fd rs && Hashtbl.mem conns c.cid then do_read c)
      conn_list;
    drain_completed ();
    (* every connection with bytes to send, not only those [select]
       reported writable: a response drained just now belongs to a
       connection that was idle when [select] was called, and waiting
       for the next round would delay it by one [select]. A full socket
       answers EAGAIN and keeps its bytes for the next round. *)
    List.iter
      (fun c -> if conn_wants_write c && Hashtbl.mem conns c.cid then do_write c)
      conn_list;
    (* retire connections that are fully served *)
    List.iter
      (fun c ->
        if
          Hashtbl.mem conns c.cid
          && (not (conn_wants_write c))
          && conn_outstanding c = 0
          && (c.eof || c.close_after_flush)
        then drop c)
      conn_list
  done;
  (* ---- teardown ---- *)
  Atomic.set worker_stop true;
  Array.iter (fun sq -> Mutex.protect sq.sq_mu (fun () -> Condition.broadcast sq.sq_cv)) shard_qs;
  Array.iter Domain.join workers;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  if not !listen_closed then Unix.close listen_fd;
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  if Sys.file_exists cfg.socket then Sys.remove cfg.socket;
  List.iter (fun (s, h) -> Sys.set_signal s h) old_handlers
