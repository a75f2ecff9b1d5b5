(* Chaos harness drills (ISSUE 10): the fault-injection spec grammar and
   its seeded determinism, the hardened frame-I/O loops under injected
   EINTR/stall/short-write storms, read deadlines, persist-layer disk
   faults, and end-to-end daemon drills — every fault class fires, the
   daemon never dies, and a retried request with an idempotency key is
   answered without recomputation. *)

module Protocol = Serve.Protocol
module Client = Serve.Client
module Server = Serve.Server
module Chaos = Serve.Chaos
module Json = Suite.Report.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse_exn spec =
  match Chaos.parse spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "spec %S should parse: %s" spec e

(* ---------- spec grammar ---------- *)

let test_parse_table () =
  let ok =
    [
      "";
      "drop_pre=0.5";
      "drop_pre=1@3";
      "seed=9,job_crash=1@3,stall_s=0.2,short_bytes=4";
      "frame_garbage=0.1, frame_truncate=0.1 ,frame_oversize=0@0";
      "eintr=0.25,short_write=0.25,stall=0.1,persist=1,drop_post=0.5";
    ]
  in
  List.iter
    (fun spec ->
      match Chaos.parse spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S should parse: %s" spec e)
    ok;
  let bad =
    [
      "warp=1";           (* unknown fault class *)
      "drop_pre=2";       (* probability out of range *)
      "drop_pre=-0.1";
      "drop_pre=0.5@x";   (* malformed budget *)
      "drop_pre=0.5@-1";
      "seed=abc";
      "stall_s=-1";
      "short_bytes=0";
      "drop_pre";         (* not an assignment *)
    ]
  in
  List.iter
    (fun spec ->
      match Chaos.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" spec)
    bad;
  Fuzz.never_raises "Chaos.parse" Chaos.parse
    (Fuzz.inputs ~seed:14 ~count:1000 (ok @ bad));
  check_bool "none is inactive" false (Chaos.is_active Chaos.none);
  check_bool "seed alone is inactive" false
    (Chaos.is_active (parse_exn "seed=5"));
  check_bool "an armed class is active" true
    (Chaos.is_active (parse_exn "drop_pre=0.01"))

(* ---------- seeded determinism and budgets ---------- *)

let plans spec n =
  let c = parse_exn spec in
  List.init n (fun _ -> Chaos.plan_response c)

let test_determinism () =
  check_bool "same seed, same plan stream" true
    (plans "seed=42,drop_pre=0.5" 60 = plans "seed=42,drop_pre=0.5" 60);
  check_bool "different seed, different stream" true
    (plans "seed=42,drop_pre=0.5" 60 <> plans "seed=43,drop_pre=0.5" 60);
  check_bool "chaos off delivers everything" true
    (List.for_all (( = ) Chaos.Deliver) (plans "seed=1" 20))

let test_budget () =
  let c = parse_exn "seed=7,drop_pre=1@2" in
  let dropped =
    List.init 100 (fun _ -> Chaos.plan_response c)
    |> List.filter (( <> ) Chaos.Deliver)
  in
  check_int "budget caps lifetime injections" 2 (List.length dropped);
  check_bool "every injection is the armed class" true
    (List.for_all (( = ) Chaos.Drop_before) dropped);
  check_int "counter agrees" 2 (Chaos.total_injected c);
  check_int "counted under its class" 2
    (List.assoc "drop_pre" (Chaos.injected c))

(* ---------- frame I/O under injected storms ---------- *)

(* A fault hook that fires [n] times, then goes quiet — an always-firing
   EINTR hook would starve the retry loop forever by design. *)
let firing n fault =
  let left = ref n in
  {
    Protocol.on_io =
      (fun _ ->
        if !left > 0 then begin
          decr left;
          Some fault
        end
        else None);
  }

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_io_fault_loops () =
  let payload =
    Json.Obj [ ("op", Json.Str "ping"); ("blob", Json.Str (String.make 800 'x')) ]
  in
  let table =
    [
      ("eintr storm", firing 5 Protocol.Fault_eintr);
      ("short writes", firing 50 (Protocol.Fault_short 1));
      ("mid-frame stalls", firing 2 (Protocol.Fault_stall 0.01));
    ]
  in
  List.iter
    (fun (name, faults) ->
      with_socketpair (fun a b ->
          Protocol.write_frame ~faults a payload;
          match Protocol.read_frame ~faults b with
          | Some j ->
            check_bool (name ^ ": frame survives intact") true (j = payload)
          | None -> Alcotest.failf "%s: unexpected EOF" name))
    table;
  (* The Chaos-produced hook wires the same classes. *)
  check_bool "io classes arm the hook" true
    (Chaos.io_faults (parse_exn "eintr=0.5") <> None);
  check_bool "non-io classes do not" true
    (Chaos.io_faults (parse_exn "drop_pre=1") = None)

let test_read_deadline () =
  with_socketpair (fun _a b ->
      (* Silent peer: the deadline fires while waiting for the header. *)
      match Protocol.read_frame ~timeout_s:0.05 b with
      | exception Protocol.Timeout -> ()
      | _ -> Alcotest.fail "expected Timeout on a silent peer");
  with_socketpair (fun a b ->
      (* Stalled peer: header arrives, the payload never does — the
         deadline covers the whole frame, not just the first byte. *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 64l;
      Protocol.really_write a hdr;
      match Protocol.read_frame ~timeout_s:0.1 b with
      | exception Protocol.Timeout -> ()
      | _ -> Alcotest.fail "expected Timeout mid-frame")

(* ---------- persist-layer disk faults ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_persist_faults () =
  let dir = Filename.temp_dir "contango_chaos_persist" "" in
  let path = Filename.concat dir "snap.json" in
  Core.Persist.write_atomic path "original";
  let chaos = parse_exn "seed=11,persist=1" in
  Chaos.install_persist chaos;
  Fun.protect ~finally:Chaos.uninstall_persist (fun () ->
      (* Consecutive injections cycle the three failure points; whichever
         fires, the destination keeps its old content and no temp file
         survives. *)
      List.iter
        (fun expect ->
          match Core.Persist.write_atomic path "replacement" with
          | () -> Alcotest.fail "expected an injected disk fault"
          | exception Core.Persist.Injected_fault f ->
            check_string "faults cycle" expect (Core.Persist.fault_name f);
            check_string "destination intact" "original" (read_file path);
            check_int "no temp file left behind" 1
              (Array.length (Sys.readdir dir)))
        [ "fsync"; "rename"; "torn-tmp" ]);
  (* Hook removed: writes land again. *)
  Core.Persist.write_atomic path "replacement";
  check_string "uninstalled hook injects nothing" "replacement"
    (read_file path)

(* ---------- end-to-end daemon drills ---------- *)

let with_server ?chaos ?conn_timeout_s ?max_conns f =
  let dir = Filename.temp_dir "contango_chaos" "" in
  let path = Filename.concat dir "d.sock" in
  let chaos = Option.map parse_exn chaos in
  let server =
    Server.create ?chaos ?conn_timeout_s ?max_conns (Unix.ADDR_UNIX path)
  in
  let addr = Server.sockaddr server in
  let thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      (* The programmatic path, not a wire Shutdown: under a connection
         cap or an armed chaos spec the wire exchange itself can be
         rejected or corrupted, and the fixture must always stop the
         daemon. *)
      Server.shutdown server;
      Thread.join thread)
    (fun () -> f addr)

let get_stats addr =
  match Client.oneshot addr Protocol.Stats with
  | Ok (Protocol.Completed { body; _ }) -> body
  | Ok _ | Error _ -> Alcotest.fail "stats request failed"

let num_field body name =
  match Json.to_float (Json.member name body) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stats lacks %s" name

let sub_field body obj name =
  match
    Json.to_float (Option.bind (Json.member obj body) (Json.member name))
  with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stats lacks %s.%s" obj name

(* The tentpole's acceptance drill: the daemon drops the connection after
   computing but before writing the response; the client's keyed retry is
   answered from the idempotency cache — the work happened exactly once. *)
let test_drop_pre_idempotent_retry () =
  with_server ~chaos:"seed=1,drop_pre=1@1" (fun addr ->
      (match
         Client.request_with_retry ~retries:3 addr
           (Protocol.Run
              { spec = "ti:20"; timeout_s = Some 120.;
                request_key = Some "drill-1" })
       with
      | Ok (Protocol.Completed _) -> ()
      | Ok _ -> Alcotest.fail "expected a completed retry"
      | Error e -> Alcotest.fail e);
      let body = get_stats addr in
      check_int "the drop was injected" 1 (sub_field body "chaos" "drop_pre");
      check_int "retry served from the idempotency cache (no recompute)" 1
        (num_field body "idempotent_hits"))

let test_job_crash_retried () =
  with_server ~chaos:"seed=2,job_crash=1@1" (fun addr ->
      (match
         Client.request_with_retry ~retries:3 addr
           (Protocol.Run
              { spec = "ti:20"; timeout_s = Some 120.;
                request_key = Some "drill-2" })
       with
      | Ok (Protocol.Completed _) -> ()
      | Ok _ -> Alcotest.fail "expected the retry to complete"
      | Error e -> Alcotest.fail e);
      let body = get_stats addr in
      check_int "the crash was injected" 1
        (sub_field body "chaos" "job_crash");
      (* A crashed attempt is never cached — the retry recomputed. *)
      check_int "no phantom cache entry" 0 (num_field body "idempotent_hits"))

(* Each frame-corruption class: the first exchange dies on the client
   (framing error or early close), the daemon survives and the next
   exchange is clean. *)
let test_frame_corruption_classes () =
  List.iter
    (fun cls ->
      with_server ~chaos:(Printf.sprintf "seed=3,%s=1@1" cls) (fun addr ->
          (match Client.oneshot addr Protocol.Ping with
          | exception Protocol.Framing_error _ -> ()
          | Error _ -> ()
          | Ok _ ->
            Alcotest.failf "%s: first response should be corrupted" cls);
          match Client.oneshot addr Protocol.Ping with
          | Ok (Protocol.Completed _) -> ()
          | Ok _ | Error _ ->
            Alcotest.failf "%s: daemon should answer cleanly after" cls
          | exception Protocol.Framing_error e ->
            Alcotest.failf "%s: daemon still corrupting: %s" cls e))
    [ "frame_garbage"; "frame_truncate"; "frame_oversize" ]

let test_conn_timeout () =
  with_server ~conn_timeout_s:0.1 (fun addr ->
      let fd = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          let t0 = Core.Monoclock.now () in
          check_bool "daemon closes the silent connection" true
            (Protocol.read_frame fd = None);
          check_bool "well before the test would notice a hang" true
            (Core.Monoclock.now () -. t0 < 5.));
      let body = get_stats addr in
      check_bool "timeout counted" true
        (sub_field body "connections" "timeouts" >= 1))

let test_max_conns_eviction () =
  with_server ~max_conns:1 (fun addr ->
      let c1 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c1)
        (fun () ->
          (match Client.request c1 Protocol.Ping with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (* Let c1's handler finish marking itself idle. *)
          Unix.sleepf 0.05;
          let c2 = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c2)
            (fun () ->
              (match Client.request c2 Protocol.Ping with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              check_bool "oldest idle connection evicted" true
                (Protocol.read_frame c1 = None);
              match Client.request c2 Protocol.Stats with
              | Ok (Protocol.Completed { body; _ }) ->
                check_int "eviction counted" 1
                  (sub_field body "connections" "evicted")
              | Ok _ | Error _ -> Alcotest.fail "stats request failed")))

let test_max_conns_reject_when_busy () =
  with_server ~max_conns:1 (fun addr ->
      let c1 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c1)
        (fun () ->
          Protocol.write_frame c1
            (Protocol.encode_request
               (Protocol.Sleep { seconds = 1.0; timeout_s = Some 30. }));
          (* Let the daemon mark the connection busy. *)
          Unix.sleepf 0.1;
          (* No idle victim: the newcomer gets an unsolicited busy frame
             and a close. Read-only on purpose — writing a request here
             races the server's close (an EPIPE a real retrying client
             absorbs, but a test must not depend on). *)
          let c2 = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c2)
            (fun () ->
              match Protocol.read_frame c2 with
              | Some j -> (
                match Protocol.decode_response j with
                | Ok (Protocol.Busy { retry_after_s }) ->
                  check_bool "retry hint positive" true (retry_after_s > 0.)
                | Ok _ | Error _ -> Alcotest.fail "expected a busy rejection")
              | None -> Alcotest.fail "expected a busy frame before close");
          (* The busy connection itself was never a victim. *)
          match Protocol.read_frame c1 with
          | Some j -> (
            match Protocol.decode_response j with
            | Ok (Protocol.Completed _) -> ()
            | _ -> Alcotest.fail "sleep should complete")
          | None -> Alcotest.fail "busy connection must survive the cap"))

(* ---------- request-key plumbing ---------- *)

let test_request_key_plumbing () =
  let run =
    Protocol.Run { spec = "ti:9"; timeout_s = None; request_key = None }
  in
  check_bool "keyless by default" true (Protocol.request_key run = None);
  let keyed = Protocol.with_request_key run "k9" in
  check_bool "key attached" true (Protocol.request_key keyed = Some "k9");
  (match Protocol.decode_request (Protocol.encode_request keyed) with
  | Ok r -> check_bool "key survives the wire" true (r = keyed)
  | Error e -> Alcotest.fail e);
  check_bool "keyless ops are untouched" true
    (Protocol.with_request_key Protocol.Ping "k" = Protocol.Ping)

let () =
  Alcotest.run "chaos"
    [
      ("spec",
       [ Alcotest.test_case "parse table" `Quick test_parse_table;
         Alcotest.test_case "seeded determinism" `Quick test_determinism;
         Alcotest.test_case "injection budgets" `Quick test_budget ]);
      ("io",
       [ Alcotest.test_case "frame loops under storms" `Quick
           test_io_fault_loops;
         Alcotest.test_case "read deadline" `Quick test_read_deadline ]);
      ("persist",
       [ Alcotest.test_case "disk fault cycle" `Quick test_persist_faults ]);
      ("daemon",
       [ Alcotest.test_case "drop_pre + idempotent retry" `Slow
           test_drop_pre_idempotent_retry;
         Alcotest.test_case "job crash retried" `Slow test_job_crash_retried;
         Alcotest.test_case "frame corruption classes" `Quick
           test_frame_corruption_classes;
         Alcotest.test_case "connection timeout" `Quick test_conn_timeout;
         Alcotest.test_case "oldest-idle eviction" `Quick
           test_max_conns_eviction;
         Alcotest.test_case "reject when all busy" `Quick
           test_max_conns_reject_when_busy ]);
      ("protocol",
       [ Alcotest.test_case "request-key plumbing" `Quick
           test_request_key_plumbing ]);
    ]
