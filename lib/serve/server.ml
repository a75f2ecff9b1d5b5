(* The daemon: accept loop + one systhread per connection + a dedicated
   domain pool for compute.

   Threads do the blocking I/O (systhreads share one domain, so they
   cost nothing while parked in [read]/[accept]); every Run/Eval/Sleep
   request is handed to the domain pool through {!Analysis.Domain_pool}
   [submit] and the connection thread parks on a condition variable
   until its result cell fills. Admission is a plain atomic counter
   against [max_queue]: a request over the bound is answered [Busy] with
   a retry hint and never enqueued, so the queue — and the daemon's
   memory — stays bounded no matter how many clients pile on.

   Connection lifecycle discipline (what the chaos harness enforces):
   every accepted connection is registered with an idle/busy flag and a
   last-activity clock, reads are bounded by [conn_timeout_s] (a silent
   peer can never park a thread forever), the connection population is
   bounded by [max_conns] with oldest-idle eviction, a vanished peer
   costs exactly its own connection (SIGPIPE is ignored; EPIPE is a
   counted per-connection loss), and graceful shutdown closes idle
   connections instead of waiting on them. *)

module Dp = Analysis.Domain_pool

(* One registered connection. [c_busy]/[c_last] are written by the
   owning thread and read under [reg_lock] by the evictor and the drain
   sweep; [c_gone] flags a connection whose fd has been shut down (by
   eviction or drain) so nobody shuts it down twice. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_busy : bool;
  mutable c_last : float;  (* Monoclock of last activity *)
  mutable c_gone : bool;
}

type t = {
  session : Session.t;
  pool : Dp.t;
  workers : int;
  max_queue : int;
  inflight : int Atomic.t;
  conn_timeout_s : float option;
  max_conns : int;  (* 0 = unbounded *)
  chaos : Chaos.t;
  io_faults : Protocol.faults option;
  listen_fd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  (* Self-pipe: [shutdown] writes one byte so the [select] parked before
     [accept] wakes even with no client connecting. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  (* Connection threads still running, joined at drain time. *)
  conns : int Atomic.t;
  registry : (int, conn) Hashtbl.t;
  reg_lock : Mutex.t;
  next_conn_id : int Atomic.t;
  conn_timeouts : int Atomic.t;
  conn_evicted : int Atomic.t;
  conn_rejected : int Atomic.t;
  conn_lost : int Atomic.t;
}

let sockaddr t = t.sockaddr
let session t = t.session
let chaos t = t.chaos

let unlink_if_unix = function
  | Unix.ADDR_UNIX path when path <> "" -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()

let create ?config ?(max_queue = 16) ?workers ?conn_timeout_s
    ?(max_conns = 0) ?chaos ?checkpoints ?idem_cap sockaddr =
  let chaos =
    match chaos with
    | Some c -> c
    | None -> (
      match Option.bind config (fun c -> c.Core.Config.chaos) with
      | None -> Chaos.none
      | Some spec -> (
        match Chaos.parse spec with
        | Ok c -> c
        | Error e -> invalid_arg e))
  in
  let listen_fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr)
      Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  unlink_if_unix sockaddr;
  Unix.bind listen_fd sockaddr;
  Unix.listen listen_fd 64;
  let pool = Dp.create ?size:workers () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  if Chaos.is_active chaos then Chaos.install_persist chaos;
  {
    session = Session.create ?config ?checkpoints ?idem_cap ();
    pool;
    workers = Dp.size pool;
    max_queue = max 1 max_queue;
    inflight = Atomic.make 0;
    conn_timeout_s;
    max_conns = max 0 max_conns;
    chaos;
    io_faults = Chaos.io_faults chaos;
    listen_fd;
    (* The address actually bound — port 0 requests resolve here, so
       tests can listen on an ephemeral port. *)
    sockaddr = Unix.getsockname listen_fd;
    wake_r;
    wake_w;
    stopping = Atomic.make false;
    conns = Atomic.make 0;
    registry = Hashtbl.create 64;
    reg_lock = Mutex.create ();
    next_conn_id = Atomic.make 0;
    conn_timeouts = Atomic.make 0;
    conn_evicted = Atomic.make 0;
    conn_rejected = Atomic.make 0;
    conn_lost = Atomic.make 0;
  }

let shutdown t =
  if not (Atomic.exchange t.stopping true) then
    (* A failed write only means shutdown raced a previous one. *)
    try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
    with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Connection registry                                                 *)
(* ------------------------------------------------------------------ *)

let register t fd =
  let c =
    {
      c_id = Atomic.fetch_and_add t.next_conn_id 1;
      c_fd = fd;
      c_busy = false;
      c_last = Core.Monoclock.now ();
      c_gone = false;
    }
  in
  Mutex.lock t.reg_lock;
  Hashtbl.replace t.registry c.c_id c;
  Mutex.unlock t.reg_lock;
  c

let unregister t c =
  Mutex.lock t.reg_lock;
  Hashtbl.remove t.registry c.c_id;
  Mutex.unlock t.reg_lock

(* Wake a parked reader with EOF without invalidating its fd (the owner
   thread still owns the [close]): [shutdown] on the socket unblocks a
   blocked [read]/[select] immediately, no signal needed. Caller holds
   [reg_lock]. *)
let nudge c =
  if not c.c_gone then begin
    c.c_gone <- true;
    try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

(* At the connection cap: shut down the longest-idle connection to make
   room. A connection mid-request is never a victim — its exchange is
   about to finish and closing it would break the one-response-per-
   request contract. *)
let evict_oldest_idle t =
  Mutex.lock t.reg_lock;
  let victim =
    Hashtbl.fold
      (fun _ c acc ->
        if c.c_busy || c.c_gone then acc
        else
          match acc with
          | Some v when v.c_last <= c.c_last -> acc
          | _ -> Some c)
      t.registry None
  in
  (match victim with
  | Some c ->
    nudge c;
    Atomic.incr t.conn_evicted
  | None -> ());
  Mutex.unlock t.reg_lock;
  victim <> None

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Hand the request to the pool and park until the result cell fills.
   [Session.execute] never raises, so the cell always fills — but the
   job also runs under the pool's exception shield, so even a bug there
   (or an injected [job_crash]) could only lose this one response, never
   a worker domain. *)
let dispatch t ~deadline request =
  let cell = ref None in
  let lock = Mutex.create () in
  let filled = Condition.create () in
  Dp.submit t.pool (fun () ->
      let resp =
        try
          if Chaos.job_crashes t.chaos then
            raise (Chaos.Injected "job_crash");
          Session.execute t.session ~deadline request
        with e ->
          Protocol.Failed { code = "crashed"; detail = Printexc.to_string e }
      in
      Mutex.lock lock;
      cell := Some resp;
      Condition.signal filled;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !cell = None do
    Condition.wait filled lock
  done;
  Mutex.unlock lock;
  Option.get !cell

let stats_response t =
  let num n = Protocol.Json.Num (float_of_int n) in
  let extra =
    [
      ("connections",
       Protocol.Json.Obj
         [
           ("open", num (Atomic.get t.conns));
           ("max_conns", num t.max_conns);
           ("timeouts", num (Atomic.get t.conn_timeouts));
           ("evicted", num (Atomic.get t.conn_evicted));
           ("rejected", num (Atomic.get t.conn_rejected));
           ("lost", num (Atomic.get t.conn_lost));
         ]);
    ]
    @
    if Chaos.is_active t.chaos then
      [ ("chaos", Chaos.stats_json t.chaos) ]
    else []
  in
  Protocol.Completed
    {
      op = "stats";
      body =
        Session.stats_body t.session
          ~queue_depth:(Atomic.get t.inflight)
          ~max_queue:t.max_queue ~workers:t.workers
          ~pool_failed:(Dp.failed_jobs t.pool)
          ~extra ();
    }

(* Queue-wait is part of the request's budget, so the deadline is fixed
   at admission, not at execution start. *)
let admit t ~timeout_s request =
  let n = Atomic.fetch_and_add t.inflight 1 in
  if n >= t.max_queue then begin
    Atomic.decr t.inflight;
    Session.note_busy t.session;
    (* Hint scales with the backlog: with [w] workers each busy slot is
       roughly one request of service time ahead of the caller. *)
    let backlog = float_of_int (n + 1 - t.max_queue + 1) in
    Protocol.Busy
      { retry_after_s = Float.max 0.1 (backlog /. float_of_int (max 1 t.workers)) }
  end
  else begin
    let deadline =
      Option.map (fun s -> Core.Monoclock.now () +. s) timeout_s
    in
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.inflight)
      (fun () -> dispatch t ~deadline request)
  end

(* ------------------------------------------------------------------ *)
(* The response write (where chaos corrupts frames)                    *)
(* ------------------------------------------------------------------ *)

(* Returns whether the connection survives the write. Injected
   corruption always ends the connection — the failure being simulated
   is a daemon that wrote garbage and died, and a response frame the
   peer cannot trust poisons every later exchange on the stream. *)
let respond t c response =
  let write json = Protocol.write_frame ?faults:t.io_faults c.c_fd json in
  let write_raw b =
    try Protocol.really_write c.c_fd b
    with Unix.Unix_error _ -> ()
  in
  let hdr n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    b
  in
  match Chaos.plan_response t.chaos with
  | Chaos.Deliver ->
    write (Protocol.encode_response response);
    true
  | Chaos.Drop_before -> false
  | Chaos.Drop_after ->
    (try write (Protocol.encode_response response)
     with Unix.Unix_error _ -> ());
    false
  | Chaos.Garbage ->
    (* Well-framed, unparseable payload. *)
    let junk = Bytes.of_string "\xff\xfe{{ not json" in
    write_raw (hdr (Bytes.length junk));
    write_raw junk;
    false
  | Chaos.Truncate ->
    (* Header promising a payload that never fully arrives. *)
    let payload =
      Bytes.of_string
        (Protocol.Json.to_compact_string (Protocol.encode_response response))
    in
    let n = Bytes.length payload in
    write_raw (hdr n);
    write_raw (Bytes.sub payload 0 (n / 2));
    false
  | Chaos.Oversize ->
    write_raw (hdr (Protocol.max_frame + 1));
    false

let handle_request t c request =
  match request with
  | Protocol.Ping ->
    respond t c
      (Protocol.Completed { op = "ping"; body = Protocol.Json.Null })
  | Protocol.Stats -> respond t c (stats_response t)
  | Protocol.Shutdown ->
    let _alive =
      respond t c
        (Protocol.Completed { op = "shutdown"; body = Protocol.Json.Null })
    in
    shutdown t;
    false
  | Protocol.Run { timeout_s; _ }
  | Protocol.Eval { timeout_s; _ }
  | Protocol.Sleep { timeout_s; _ } ->
    respond t c (admit t ~timeout_s request)

let handle_conn t fd =
  let c = register t fd in
  let rec loop () =
    match
      Protocol.read_payload ?timeout_s:t.conn_timeout_s ?faults:t.io_faults fd
    with
    | None -> ()
    | Some payload ->
      c.c_last <- Core.Monoclock.now ();
      let keep_going =
        match Result.bind payload Protocol.decode_request with
        | Ok request ->
          c.c_busy <- true;
          Fun.protect
            ~finally:(fun () ->
              c.c_busy <- false;
              c.c_last <- Core.Monoclock.now ())
            (fun () -> handle_request t c request)
        | Error detail ->
          respond t c (Protocol.Failed { code = "bad_request"; detail })
      in
      if keep_going then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* Decrement before unregistering: a connection that has left the
         count but not yet the registry only risks a harmless transient
         over the cap, whereas the reverse order makes a full daemon
         reject newcomers for a connection that is already gone. *)
      Atomic.decr t.conns;
      unregister t c;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* A peer that vanishes mid-frame, breaks the framing, stalls past
         the connection deadline or triggers EPIPE only loses its own
         connection — each outcome is counted. An intact frame whose
         payload does not parse is answered [bad_request] above. *)
      try loop () with
      | Protocol.Framing_error _ -> Atomic.incr t.conn_lost
      | Protocol.Timeout -> Atomic.incr t.conn_timeouts
      | Unix.Unix_error _ -> Atomic.incr t.conn_lost)

let serve t =
  (* A peer that disconnects before its response is written must cost a
     write error on its own connection, not a process-fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.) with
      | readable, _, _ ->
        if List.memq t.listen_fd readable && not (Atomic.get t.stopping) then begin
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
            let admit_conn =
              t.max_conns = 0
              || Atomic.get t.conns < t.max_conns
              || evict_oldest_idle t
              (* The evicted thread needs a moment to exit, so the
                 population may transiently run one over the cap. *)
            in
            if admit_conn then begin
              Atomic.incr t.conns;
              ignore (Thread.create (fun () -> handle_conn t fd) ())
            end
            else begin
              (* Every connection is mid-request: tell the peer we are
                 full instead of parking one more thread. *)
              Atomic.incr t.conn_rejected;
              (try
                 Protocol.write_frame fd
                   (Protocol.encode_response
                      (Protocol.Busy { retry_after_s = 1.0 }))
               with Protocol.Framing_error _ | Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
          | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _)
            -> ()
          | exception Unix.Unix_error _ ->
            (* Most likely EMFILE/ENFILE under a connection storm: the
               listener must outlive fd exhaustion, and the pause keeps a
               persistent error from turning into a hot spin. *)
            Unix.sleepf 0.05
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: close idle connections instead of waiting on them (a parked
     client must not wedge shutdown), let in-flight exchanges finish
     (each bounded by its own deadline), then the pool joins. The sweep
     repeats so a connection that finishes its request after one pass is
     closed by the next. *)
  while Atomic.get t.conns > 0 || Atomic.get t.inflight > 0 do
    Mutex.lock t.reg_lock;
    Hashtbl.iter (fun _ c -> if not c.c_busy then nudge c) t.registry;
    Mutex.unlock t.reg_lock;
    Thread.yield ();
    Unix.sleepf 0.002
  done;
  Dp.shutdown t.pool;
  if Chaos.is_active t.chaos then Chaos.uninstall_persist ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  unlink_if_unix t.sockaddr
