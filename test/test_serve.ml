(* The serve daemon and the lifetime bugfixes that ride with it (ISSUE 8):
   protocol round-trips, cross-request cache reuse, bounded-queue
   backpressure, per-request deadlines — plus regressions for the pool
   exception shield, the inline-submit serialization, the Fcache clock
   eviction and the runner's spec validation. *)

module Protocol = Serve.Protocol
module Client = Serve.Client
module Server = Serve.Server
module Json = Suite.Report.Json
module Dp = Analysis.Domain_pool
module Tr = Analysis.Transient
module Rcnet = Analysis.Rcnet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

(* ---------- protocol ---------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Run
        { spec = "ti:200"; timeout_s = Some 12.5; request_key = None };
      Protocol.Run
        { spec = "grid:4"; timeout_s = None; request_key = Some "k-1" };
      Protocol.Eval
        { spec = "f11"; timeout_s = Some 0.25; request_key = Some "k-2" };
      Protocol.Sleep { seconds = 1.5; timeout_s = None };
      Protocol.Stats;
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> check_bool "request round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    requests;
  let responses =
    [
      Protocol.Completed
        { op = "run"; body = Json.Obj [ ("skew_ps", Json.Num 1.25) ] };
      Protocol.Completed { op = "ping"; body = Json.Null };
      Protocol.Busy { retry_after_s = 0.5 };
      Protocol.Failed { code = "deadline"; detail = "budget exceeded" };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> check_bool "response round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    responses;
  (* Garbage shapes decode to errors, not exceptions. *)
  List.iter
    (fun bad ->
      check_bool "bad request json rejected" true
        (match Protocol.decode_request bad with
        | Error _ -> true
        | Ok _ -> false))
    [ Json.Null; Json.Obj []; Json.Obj [ ("op", Json.Str "warp") ] ];
  (* Fuzzed frames: whatever parses as JSON decodes to a request or an
     error, never an exception. *)
  Fuzz.never_raises "decode_request"
    (fun s -> Result.map Protocol.decode_request (Json.of_string s))
    (Fuzz.inputs ~seed:13 ~count:1000
       (List.map
          (fun r -> Json.to_compact_string (Protocol.encode_request r))
          requests))

let test_framing () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let payload =
        Json.Obj [ ("op", Json.Str "ping"); ("n", Json.Num 42.) ]
      in
      Protocol.write_frame a payload;
      Protocol.write_frame a (Json.Str "second");
      (match Protocol.read_frame b with
      | Some j -> check_bool "first frame intact" true (j = payload)
      | None -> Alcotest.fail "unexpected EOF");
      (match Protocol.read_frame b with
      | Some j -> check_bool "second frame intact" true (j = Json.Str "second")
      | None -> Alcotest.fail "unexpected EOF");
      (* Clean EOF at a frame boundary is None, not an error. *)
      Unix.close a;
      check_bool "clean EOF" true (Protocol.read_frame b = None))

(* ---------- daemon fixture ---------- *)

let with_server ?config ?max_queue ?workers ?idem_cap f =
  let dir = Filename.temp_dir "contango_serve" "" in
  let path = Filename.concat dir "d.sock" in
  let server =
    Server.create ?config ?max_queue ?workers ?idem_cap (Unix.ADDR_UNIX path)
  in
  let addr = Server.sockaddr server in
  let thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      (match Client.oneshot addr Protocol.Shutdown with
      | Ok _ | Error _ -> ()
      | exception Unix.Unix_error _ -> Server.shutdown server);
      Thread.join thread)
    (fun () ->
      check_bool "daemon comes up" true (Client.wait_ready addr);
      f addr)

let cache_field body name =
  match
    Json.to_float (Option.bind (Json.member "cache" body) (Json.member name))
  with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "response body lacks cache.%s" name

let run_ok addr spec =
  match
    Client.oneshot addr
      (Protocol.Run { spec; timeout_s = Some 120.; request_key = None })
  with
  | Ok (Protocol.Completed { body; _ }) -> body
  | Ok (Protocol.Busy _) -> Alcotest.fail "unexpected Busy"
  | Ok (Protocol.Failed { code; detail }) ->
    Alcotest.failf "request failed (%s): %s" code detail
  | Error e -> Alcotest.fail e

(* ---------- daemon behaviour ---------- *)

(* The tentpole's acceptance scenario: a second identical request must be
   served out of the shared stage/factorisation store — nonzero hits,
   zero misses — and still report the identical result. *)
let test_cache_reuse () =
  with_server (fun addr ->
      let first = run_ok addr "ti:40" in
      let second = run_ok addr "ti:40" in
      check_bool "first request misses the store" true
        (cache_field first "store_misses" > 0);
      check_bool "repeat hits the store" true
        (cache_field second "store_hits" > 0);
      check_int "repeat never misses" 0 (cache_field second "store_misses");
      let skew body =
        Json.to_float
          (Option.bind (Json.member "result" body) (Json.member "skew_ps"))
      in
      check_bool "identical result" true (skew first = skew second));
  (* Concurrent replay: one warm-up run per spec fills the shared store,
     then 4 clients × 6 requests replay the same specs at once. The
     cross-request hit rate (store hits over store lookups) must be
     nonzero. Each client records its own counts; failures surface after
     the join, not inside a thread. *)
  with_server ~max_queue:32 (fun addr ->
      let specs = [| "ti:60"; "ti:100"; "grid:4" |] in
      let clients = 4 and per_client = 6 in
      Array.iter (fun spec -> ignore (run_ok addr spec)) specs;
      let counts = Array.make clients (Ok (0, 0)) in
      let threads =
        List.init clients (fun c ->
            Thread.create
              (fun () ->
                counts.(c) <-
                  (try
                     let hits = ref 0 and lookups = ref 0 in
                     for i = 0 to per_client - 1 do
                       let body =
                         run_ok addr specs.((c + i) mod Array.length specs)
                       in
                       let h = cache_field body "store_hits" in
                       hits := !hits + h;
                       lookups := !lookups + h + cache_field body "store_misses"
                     done;
                     Ok (!hits, !lookups)
                   with e -> Error (Printexc.to_string e)))
              ())
      in
      List.iter Thread.join threads;
      let hits, lookups =
        Array.fold_left
          (fun (h, l) -> function
            | Ok (h', l') -> (h + h', l + l')
            | Error e -> Alcotest.failf "replay client failed: %s" e)
          (0, 0) counts
      in
      check_bool
        (Printf.sprintf "replay hit rate is nonzero (%d of %d lookups)" hits
           lookups)
        true
        (lookups > 0 && hits > 0))

let stats_field addr name =
  match Client.oneshot addr Protocol.Stats with
  | Ok (Protocol.Completed { body; _ }) -> (
    match Json.to_float (Json.member name body) with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "stats lacks %s" name)
  | Ok _ | Error _ -> Alcotest.fail "stats request failed"

let eval_ok addr spec =
  match
    Client.oneshot addr
      (Protocol.Eval { spec; timeout_s = Some 120.; request_key = None })
  with
  | Ok (Protocol.Completed { body; _ }) -> body
  | Ok (Protocol.Busy _) -> Alcotest.fail "unexpected Busy"
  | Ok (Protocol.Failed { code; detail }) ->
    Alcotest.failf "request failed (%s): %s" code detail
  | Error e -> Alcotest.fail e

let result_field body name =
  Option.bind (Json.member "result" body) (Json.member name)

let is_memo_hit body = cache_field body "memo_hit" = 1

(* ---------- response cache ---------- *)

(* A fixture file under test/, from the test directory (dune runtest)
   or the repository root (dune exec). *)
let fixture name =
  if Sys.file_exists name then name else Filename.concat "test" name

(* The 1st Run computes, the 2nd is served by the stage store, the 3rd
   comes from the content cache: no evaluation, no store traffic, and
   the result fields as they went over the wire the first times. Eval
   repeats the same admission. Every reply counts in [served]. *)
let test_memo_third_run () =
  with_server (fun addr ->
      let first = run_ok addr "ti:40" in
      let second = run_ok addr "ti:40" in
      let third = run_ok addr "ti:40" in
      check_bool "1st computes" false (is_memo_hit first);
      check_bool "1st misses the store" true
        (cache_field first "store_misses" > 0);
      check_bool "2nd computes" false (is_memo_hit second);
      check_bool "2nd hits the store" true (cache_field second "store_hits" > 0);
      check_int "2nd never misses" 0 (cache_field second "store_misses");
      check_bool "3rd is a cache hit" true (is_memo_hit third);
      check_bool "3rd ran no evaluation" true
        (Json.to_float (result_field third "eval_runs") = Some 0.);
      List.iter
        (fun k -> check_int ("3rd " ^ k) 0 (cache_field third k))
        [ "local_hits"; "local_misses"; "store_hits"; "store_misses" ];
      List.iter
        (fun k ->
          check_string ("3rd " ^ k ^ " on the wire")
            (Json.to_compact_string (Option.get (result_field first k)))
            (Json.to_compact_string (Option.get (result_field third k))))
        [ "skew_ps"; "clr_ps"; "t_max_ps"; "buffers" ];
      let evals = List.init 3 (fun _ -> eval_ok addr "grid:4") in
      check_bool "eval: only the 3rd is a hit" true
        (List.map is_memo_hit evals = [ false; false; true ]);
      check_bool "eval hit keeps the skew" true
        (result_field (List.nth evals 2) "skew_ps"
        = result_field (List.hd evals) "skew_ps");
      check_int "memo_hits" 2 (stats_field addr "memo_hits");
      check_int "memo_entries" 2 (stats_field addr "memo_entries");
      check_int "hits count in served" 6 (stats_field addr "served"))

(* The content key is the loaded instance, not the spec string: a [.cts]
   path rewritten with one sink moved is recomputed. *)
let test_memo_edited_cts () =
  let dir = Filename.temp_dir "contango_memo" "" in
  let path = Filename.concat dir "edited.cts" in
  let b = Suite.Runner.load_bench "ti:30" in
  Suite.Format_io.write_file path b;
  with_server (fun addr ->
      let replies = List.init 3 (fun _ -> run_ok addr path) in
      check_bool "unedited file: 3rd run is a hit" true
        (List.map is_memo_hit replies = [ false; false; true ]);
      let sinks = Array.copy b.Suite.Format_io.sinks in
      let s0 = sinks.(0) in
      sinks.(0) <-
        { s0 with
          Dme.Zst.pos =
            Geometry.Point.make (s0.Dme.Zst.pos.Geometry.Point.x + 1000)
              s0.Dme.Zst.pos.Geometry.Point.y };
      Suite.Format_io.write_file path { b with Suite.Format_io.sinks };
      let edited = run_ok addr path in
      check_bool "edited file is recomputed" false (is_memo_hit edited);
      check_bool "edited file ran evaluations" true
        (Json.to_float (result_field edited "eval_runs") > Some 0.);
      check_int "one hit in all" 1 (stats_field addr "memo_hits"))

(* A run whose flow logged an incident (here an injected numerical
   failure and its degraded retry) never enters the content cache. *)
let test_memo_skips_incidents () =
  let config =
    { Core.Config.default with Core.Config.inject_numerical_failures = 1 }
  in
  with_server ~config (fun addr ->
      for i = 1 to 3 do
        check_bool
          (Printf.sprintf "run %d is computed" i)
          false
          (is_memo_hit (run_ok addr "ti:20"))
      done;
      check_int "no memo hits" 0 (stats_field addr "memo_hits");
      check_int "no memo entries" 0 (stats_field addr "memo_entries"))

(* Failed replies are never cached: an infeasible Eval and an expired
   Run fail the same way on every repeat. *)
let test_memo_skips_failures () =
  with_server (fun addr ->
      for _ = 1 to 3 do
        (match
           Client.oneshot addr
             (Protocol.Eval
                { spec = fixture "infeasible_sink.cts"; timeout_s = None;
                  request_key = None })
         with
        | Ok (Protocol.Failed { code; _ }) ->
          check_string "code" "infeasible" code
        | Ok _ -> Alcotest.fail "expected an infeasible failure"
        | Error e -> Alcotest.fail e);
        match
          Client.oneshot addr
            (Protocol.Run
               { spec = "ti:100"; timeout_s = Some 0.002; request_key = None })
        with
        | Ok (Protocol.Failed { code; _ }) -> check_string "code" "deadline" code
        | Ok _ -> Alcotest.fail "expected a deadline failure"
        | Error e -> Alcotest.fail e
      done;
      check_int "no memo hits" 0 (stats_field addr "memo_hits");
      check_int "no memo entries" 0 (stats_field addr "memo_entries"))

(* Client-key and content entries share [idem_cap]: across many distinct
   specs, each admitted, the cache never holds more than the cap, and
   the most recent admission survives. *)
let test_memo_cap () =
  let cap = 3 in
  with_server ~idem_cap:cap (fun addr ->
      let entries () =
        stats_field addr "memo_entries" + stats_field addr "idempotent_entries"
      in
      for n = 20 to 27 do
        let spec = Printf.sprintf "ti:%d" n in
        ignore (run_ok addr spec);
        (match
           Client.oneshot addr
             (Protocol.Run
                { spec; timeout_s = Some 120.;
                  request_key = Some (spec ^ "-key") })
         with
        | Ok (Protocol.Completed _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "keyed run failed");
        check_bool
          (Printf.sprintf "entries within the cap after %s" spec)
          true
          (entries () <= cap)
      done;
      check_int "cache is full" cap (entries ());
      check_bool "latest admission is a hit" true
        (is_memo_hit (run_ok addr "ti:27")))

let test_deadline () =
  with_server (fun addr ->
      (* Budget expires mid-hold: the cooperative sleep notices within a
         few ms and answers a structured deadline error. *)
      (match
         Client.oneshot addr
           (Protocol.Sleep { seconds = 30.; timeout_s = Some 0.05 })
       with
      | Ok (Protocol.Failed { code; _ }) -> check_string "code" "deadline" code
      | Ok _ -> Alcotest.fail "expected a deadline failure"
      | Error e -> Alcotest.fail e);
      (* Same through the flow's own cooperative checks. *)
      match
        Client.oneshot addr
          (Protocol.Run
             { spec = "ti:100"; timeout_s = Some 0.002; request_key = None })
      with
      | Ok (Protocol.Failed { code; _ }) -> check_string "code" "deadline" code
      | Ok _ -> Alcotest.fail "expected a deadline failure"
      | Error e -> Alcotest.fail e)

(* An Eval honours its budget while it runs, not only at dequeue: the
   baseline flow checks the deadline between its insertion tries and
   evaluations. ti:5000 takes about a second; a 0.1 s budget passes the
   start-of-execution check and expires inside the baseline. *)
let test_eval_deadline () =
  with_server (fun addr ->
      let expired0 = stats_field addr "deadline_expired" in
      (match
         Client.oneshot addr
           (Protocol.Eval
              { spec = "ti:5000"; timeout_s = Some 0.1; request_key = None })
       with
      | Ok (Protocol.Failed { code; _ }) -> check_string "code" "deadline" code
      | Ok _ -> Alcotest.fail "expected a deadline failure"
      | Error e -> Alcotest.fail e);
      check_int "deadline_expired counted" (expired0 + 1)
        (stats_field addr "deadline_expired");
      check_int "no crashed requests" 0 (stats_field addr "crashed"))

(* An Eval whose spec no buffering can make slew-legal (one sink heavier
   than the insertion ceiling) is the spec's fault: a structured
   [infeasible] reply naming the sink, and no crash counted. *)
let test_eval_infeasible () =
  with_server (fun addr ->
      (match
         Client.oneshot addr
           (Protocol.Eval
              { spec = fixture "infeasible_sink.cts"; timeout_s = None;
                request_key = None })
       with
      | Ok (Protocol.Failed { code; detail }) ->
        check_string "code" "infeasible" code;
        check_bool "detail names the load" true (contains detail "exceeds")
      | Ok _ -> Alcotest.fail "expected an infeasible failure"
      | Error e -> Alcotest.fail e);
      check_int "no crashed requests" 0 (stats_field addr "crashed"))

let test_bad_spec_request () =
  with_server (fun addr ->
      List.iter
        (fun (spec, fragment) ->
          match
            Client.oneshot addr
              (Protocol.Run { spec; timeout_s = None; request_key = None })
          with
          | Ok (Protocol.Failed { code; detail }) ->
            check_string (spec ^ " code") "bad_request" code;
            check_bool (spec ^ " detail names the sink count") true
              (contains detail fragment)
          | Ok _ -> Alcotest.failf "%s: expected bad_request" spec
          | Error e -> Alcotest.fail e)
        [ ("ti:-5", "positive"); ("ti:135001", "at most 135000") ];
      (* An intact frame holding a million-deep nest is answered with a
         structured error, and the connection carries on. *)
      Client.with_connection addr (fun fd ->
          let payload = Bytes.of_string Fuzz.deep_nest in
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length payload));
          Protocol.really_write fd hdr;
          Protocol.really_write fd payload;
          (match Option.map Protocol.decode_response (Protocol.read_frame fd) with
          | Some (Ok (Protocol.Failed { code; detail })) ->
            check_string "deep nest code" "bad_request" code;
            check_bool "detail names the cap" true
              (contains detail "nesting deeper than")
          | _ -> Alcotest.fail "expected a bad_request reply to the deep nest");
          match Client.request fd Protocol.Ping with
          | Ok (Protocol.Completed _) -> ()
          | Ok _ | Error _ -> Alcotest.fail "connection should survive");
      (* A bad request is the caller's error, not a worker crash. *)
      match Client.oneshot addr Protocol.Stats with
      | Ok (Protocol.Completed { body; _ }) ->
        check_bool "no crashed requests" true
          (Json.to_float (Json.member "crashed" body) = Some 0.)
      | Ok _ | Error _ -> Alcotest.fail "stats request failed")

let queue_depth addr = stats_field addr "queue_depth"

let test_backpressure () =
  with_server ~max_queue:2 (fun addr ->
      (* Two Sleep requests occupy both queue slots; Stats is answered
         inline, so we can poll for the moment both are admitted without
         racing the connection threads. *)
      let sleepers =
        List.init 2 (fun _ ->
            Thread.create
              (fun () ->
                Client.oneshot addr
                  (Protocol.Sleep { seconds = 2.0; timeout_s = Some 30. }))
              ())
      in
      let give_up = Core.Monoclock.now () +. 10. in
      while queue_depth addr < 2 && Core.Monoclock.now () < give_up do
        Thread.yield ()
      done;
      check_int "queue full" 2 (queue_depth addr);
      (match
         Client.oneshot addr (Protocol.Sleep { seconds = 0.1; timeout_s = None })
       with
      | Ok (Protocol.Busy { retry_after_s }) ->
        check_bool "retry hint positive" true (retry_after_s > 0.)
      | Ok _ -> Alcotest.fail "expected Busy over the queue bound"
      | Error e -> Alcotest.fail e);
      (* Stats stays answerable while saturated, and counted the reject. *)
      (match Client.oneshot addr Protocol.Stats with
      | Ok (Protocol.Completed { body; _ }) ->
        check_bool "busy_rejected counted" true
          (Json.to_float (Json.member "busy_rejected" body) = Some 1.)
      | Ok _ | Error _ -> Alcotest.fail "stats request failed");
      List.iter
        (fun t ->
          match Thread.join t with
          | () -> ())
        sleepers;
      (* Slots free up again once the sleepers drain. *)
      match
        Client.oneshot addr (Protocol.Sleep { seconds = 0.; timeout_s = None })
      with
      | Ok (Protocol.Completed _) -> ()
      | Ok _ -> Alcotest.fail "queue should have drained"
      | Error e -> Alcotest.fail e)

(* ---------- connection lifecycle regressions ---------- *)

(* Regression for the graceful-shutdown hang: an idle connection kept
   [conns > 0] with nothing in flight, so the drain loop waited on it
   forever. The drain now closes idle connections, so shutdown completes
   while a parked client is still connected. *)
let test_shutdown_with_idle_conn () =
  let dir = Filename.temp_dir "contango_serve" "" in
  let path = Filename.concat dir "d.sock" in
  let server = Server.create (Unix.ADDR_UNIX path) in
  let addr = Server.sockaddr server in
  let thread = Thread.create Server.serve server in
  check_bool "daemon comes up" true (Client.wait_ready addr);
  (* Park a connection that never sends a request. *)
  let idle = Client.connect addr in
  (match Client.oneshot addr Protocol.Shutdown with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let joined = Atomic.make false in
  let joiner =
    Thread.create
      (fun () ->
        Thread.join thread;
        Atomic.set joined true)
      ()
  in
  let give_up = Core.Monoclock.now () +. 10. in
  while (not (Atomic.get joined)) && Core.Monoclock.now () < give_up do
    Unix.sleepf 0.01
  done;
  check_bool "drain does not wait on the idle connection" true
    (Atomic.get joined);
  Client.close idle;
  Thread.join joiner

(* Pin the ready condition: any decoded response counts, even one from a
   daemon that answers everything Busy — readiness means "the socket
   speaks the protocol", not "the daemon has capacity". *)
let test_wait_ready_accepts_busy () =
  let dir = Filename.temp_dir "contango_serve" "" in
  let path = Filename.concat dir "busy.sock" in
  let addr = Unix.ADDR_UNIX path in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd addr;
  Unix.listen fd 4;
  let stop = Atomic.make false in
  let accepter =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.accept fd with
          | c, _ ->
            (try
               ignore (Protocol.read_frame c);
               Protocol.write_frame c
                 (Protocol.encode_response
                    (Protocol.Busy { retry_after_s = 0.5 }))
             with Protocol.Framing_error _ | Unix.Unix_error _ -> ());
            (try Unix.close c with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error _ -> Atomic.set stop true
        done)
      ()
  in
  check_bool "busy answers count as ready" true
    (Client.wait_ready ~timeout_s:5. addr);
  Atomic.set stop true;
  (* Unblock the accept so the thread can exit. *)
  (try Client.close (Client.connect addr) with Unix.Unix_error _ -> ());
  Unix.close fd;
  Thread.join accepter

(* Pin [oneshot]'s close-on-raise: a server that answers with an
   oversize header makes every exchange raise Framing_error, and the
   process fd population must not grow — the connection is closed on the
   way out of the raise. *)
let test_oneshot_closes_on_raise () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let dir = Filename.temp_dir "contango_serve" "" in
  let path = Filename.concat dir "evil.sock" in
  let addr = Unix.ADDR_UNIX path in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd addr;
  Unix.listen fd 16;
  let rounds = 10 in
  let accepter =
    Thread.create
      (fun () ->
        for _ = 1 to rounds do
          match Unix.accept fd with
          | c, _ ->
            (try
               ignore (Protocol.read_frame c);
               (* Header claiming an impossible frame; no payload. *)
               let b = Bytes.create 4 in
               Bytes.set_int32_be b 0
                 (Int32.of_int (Protocol.max_frame + 1));
               Protocol.really_write c b
             with Protocol.Framing_error _ | Unix.Unix_error _ -> ());
            (try Unix.close c with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error _ -> ()
        done)
      ()
  in
  let before = count_fds () in
  for _ = 1 to rounds do
    match Client.oneshot addr Protocol.Ping with
    | Ok _ | Error _ -> Alcotest.fail "expected a framing error"
    | exception Protocol.Framing_error _ -> ()
  done;
  Thread.join accepter;
  Unix.close fd;
  (* Transient fds (the readdir handle, the accepter's live connection)
     can make the baseline wobble by one downward; a leak would grow the
     population by one per round. *)
  check_bool "no fd leaked across raising exchanges" true
    (count_fds () <= before)

(* ---------- pool regressions ---------- *)

(* A raising submitted job must neither kill a worker domain (shrinking
   the pool) nor poison later work; it is counted instead. *)
let test_pool_survives_raising_job () =
  let pool = Dp.create ~size:1 () in
  Fun.protect
    ~finally:(fun () -> Dp.shutdown pool)
    (fun () ->
      Dp.submit pool (fun () -> failwith "boom");
      let give_up = Core.Monoclock.now () +. 10. in
      while Dp.failed_jobs pool < 1 && Core.Monoclock.now () < give_up do
        Thread.yield ()
      done;
      check_int "failure counted" 1 (Dp.failed_jobs pool);
      check_int "pool not shrunk" 1 (Dp.size pool);
      let doubled = Dp.map pool (fun x -> 2 * x) [| 1; 2; 3 |] in
      check_bool "map still works" true (doubled = [| 2; 4; 6 |]))

(* Size-0 pools run jobs inline on the submitting thread — and systhreads
   of one domain interleave preemptively, so without serialization two
   inline jobs corrupt the domain-exclusive scratch they assume they own
   (the daemon crash on single-core hosts). The overlap detector below
   fails on the unserialized submit. *)
let test_inline_submit_serialized () =
  let pool = Dp.create ~size:0 () in
  let inside = Atomic.make 0 in
  let overlap = Atomic.make false in
  let threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 5 do
              Dp.submit pool (fun () ->
                  if Atomic.fetch_and_add inside 1 <> 0 then
                    Atomic.set overlap true;
                  Thread.yield ();
                  Thread.delay 0.002;
                  Atomic.decr inside)
            done)
          ())
  in
  List.iter Thread.join threads;
  check_bool "inline jobs never overlap" false (Atomic.get overlap)

(* ---------- Fcache clock eviction ---------- *)

let mk_rc seed =
  let n = 8 in
  let parent = Array.init n (fun i -> i - 1) in
  let res = Array.init n (fun i -> 50. +. float_of_int ((seed * 37) + i)) in
  let cap = Array.init n (fun i -> 2. +. float_of_int ((seed * 11) + i)) in
  let taps = [| (n - 1, Rcnet.Tap_sink 0) |] in
  { Rcnet.parent; res; cap; taps; size = n }

(* At capacity, insertion evicts exactly one cold entry — never the entry
   being inserted (the pre-fix whole-table reset dropped it too, so the
   very next lookup refactored it). *)
let test_fcache_insert_at_cap () =
  let c = Tr.Fcache.create ~cap:2 () in
  let rc1 = mk_rc 1 and rc2 = mk_rc 2 and rc3 = mk_rc 3 in
  let _ = Tr.Fcache.get c rc1 ~step:0.5 in
  let _ = Tr.Fcache.get c rc2 ~step:0.5 in
  check_int "at capacity" 2 (Tr.Fcache.length c);
  let f3 = Tr.Fcache.get c rc3 ~step:0.5 in
  check_bool "stays within cap" true (Tr.Fcache.length c <= 2);
  check_bool "just-inserted entry retained" true
    (Tr.Fcache.get c rc3 ~step:0.5 == f3)

(* Entries hit since their last inspection survive the rotation: the warm
   entry outlives the cold one. *)
let test_fcache_second_chance () =
  let c = Tr.Fcache.create ~cap:2 () in
  let rc1 = mk_rc 4 and rc2 = mk_rc 5 and rc3 = mk_rc 6 in
  let f1 = Tr.Fcache.get c rc1 ~step:0.5 in
  let _ = Tr.Fcache.get c rc2 ~step:0.5 in
  (* Mark rc1 used, leave rc2 cold; the insert evicts rc2. *)
  check_bool "hit returns the cached factor" true
    (Tr.Fcache.get c rc1 ~step:0.5 == f1);
  let _ = Tr.Fcache.get c rc3 ~step:0.5 in
  check_bool "warm entry survives eviction" true
    (Tr.Fcache.get c rc1 ~step:0.5 == f1);
  Tr.Fcache.clear c;
  check_int "clear empties" 0 (Tr.Fcache.length c);
  check_bool "refactors after clear" true
    (Tr.Fcache.get c rc1 ~step:0.5 != f1)

(* A shared factorisation table is consulted on local misses and fed by
   local factorisations, so a second cache sees the first one's work. *)
let test_fcache_store_backing () =
  let store =
    Analysis.Cache.Shared.create ~stripes:16 ~cap:16_384
      ~stripe_of:(fun (fp, _) -> Int64.to_int fp)
  in
  let c1 = Tr.Fcache.create ~store () in
  let rc = mk_rc 7 in
  let f = Tr.Fcache.get c1 rc ~step:0.5 in
  check_bool "published to the store" true
    (Analysis.Cache.Shared.length store > 0);
  let c2 = Tr.Fcache.create ~store () in
  check_bool "fresh cache hits the store" true
    (Tr.Fcache.get c2 rc ~step:0.5 == f)

(* ---------- runner spec validation ---------- *)

let arnoldi_config =
  { Core.Config.default with Core.Config.engine = Analysis.Evaluator.Arnoldi }

let test_bad_specs_are_structured () =
  List.iter
    (fun (s, fragment) ->
      match Suite.Runner.spec_of_string s with
      | Suite.Runner.Bad_spec { bs_name; bs_detail } ->
        check_string "bad spec keeps its name" s bs_name;
        check_bool
          (Printf.sprintf "detail of %S mentions %S" s fragment)
          true
          (contains bs_detail fragment)
      | _ -> Alcotest.failf "%S should parse as Bad_spec" s)
    [
      ("ti:-5", "positive");
      ("grid:0", "positive");
      ("ti:many", "positive integer");
      ("ti:135001", "at most 135000 sinks");
      ("grid:400", "at most 135000 sinks");
      ("grid:4000000000", "at most 135000 sinks");
      ("no-such-bench.cts", "");
    ]

let test_bad_spec_runs_as_crashed () =
  let dir = Filename.temp_dir "contango_serve_suite" "" in
  let specs = List.map Suite.Runner.spec_of_string [ "ti:-5"; "ti:30" ] in
  let result =
    Suite.Runner.run ~out_dir:dir ~jobs:0 ~config:arnoldi_config specs
  in
  (match result.Suite.Runner.reports with
  | [ bad; good ] ->
    (match bad.Suite.Runner.status with
    | Suite.Runner.Failed { reason = Suite.Runner.Crashed; detail } ->
      check_bool "failure carries the validation message" true
        (contains detail "positive")
    | _ -> Alcotest.fail "bad spec should report Crashed");
    (match good.Suite.Runner.status with
    | Suite.Runner.Completed _ -> ()
    | _ -> Alcotest.fail "valid instance must still complete")
  | _ -> Alcotest.fail "expected two instance reports");
  check_int "exactly one failure" 1
    (List.length (Suite.Runner.failures result))

let () =
  Alcotest.run "serve"
    [
      ("protocol",
       [ Alcotest.test_case "request/response round-trip" `Quick
           test_protocol_roundtrip;
         Alcotest.test_case "framing" `Quick test_framing ]);
      ("daemon",
       [ Alcotest.test_case "cross-request cache reuse" `Slow test_cache_reuse;
         Alcotest.test_case "deadline expiry" `Quick test_deadline;
         Alcotest.test_case "eval deadline" `Quick test_eval_deadline;
         Alcotest.test_case "eval infeasible" `Quick test_eval_infeasible;
         Alcotest.test_case "bad spec" `Quick test_bad_spec_request;
         Alcotest.test_case "backpressure at max-queue" `Slow
           test_backpressure ]);
      ("response cache",
       [ Alcotest.test_case "3rd run is a hit" `Quick test_memo_third_run;
         Alcotest.test_case "edited .cts recomputed" `Quick
           test_memo_edited_cts;
         Alcotest.test_case "incidents never cached" `Quick
           test_memo_skips_incidents;
         Alcotest.test_case "failures never cached" `Quick
           test_memo_skips_failures;
         Alcotest.test_case "entries within the cap" `Slow test_memo_cap ]);
      ("lifecycle",
       [ Alcotest.test_case "shutdown with idle connection" `Quick
           test_shutdown_with_idle_conn;
         Alcotest.test_case "wait_ready accepts busy" `Quick
           test_wait_ready_accepts_busy;
         Alcotest.test_case "oneshot closes on raise" `Quick
           test_oneshot_closes_on_raise ]);
      ("pool",
       [ Alcotest.test_case "raising job survives" `Quick
           test_pool_survives_raising_job;
         Alcotest.test_case "inline submit serialized" `Quick
           test_inline_submit_serialized ]);
      ("fcache",
       [ Alcotest.test_case "insert at capacity" `Quick
           test_fcache_insert_at_cap;
         Alcotest.test_case "second chance" `Quick test_fcache_second_chance;
         Alcotest.test_case "store backing" `Quick test_fcache_store_backing ]);
      ("runner",
       [ Alcotest.test_case "bad specs are structured" `Quick
           test_bad_specs_are_structured;
         Alcotest.test_case "bad spec runs as Crashed" `Slow
           test_bad_spec_runs_as_crashed ]);
    ]
