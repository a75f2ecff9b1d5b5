(* Minimal scripted client for the serve protocol: one connection, one
   request/response exchange per call. Used by the [contango client]
   subcommand, the serve tests and perfbench's serve_mix workload. *)

let connect sockaddr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr)
      Unix.SOCK_STREAM 0
  in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let request fd req =
  Protocol.write_frame fd (Protocol.encode_request req);
  match Protocol.read_frame fd with
  | None -> Error "connection closed before the response arrived"
  | Some json -> Protocol.decode_response json

let with_connection sockaddr f =
  let fd = connect sockaddr in
  Fun.protect ~finally:(fun () -> close fd) (fun () -> f fd)

let oneshot sockaddr req = with_connection sockaddr (fun fd -> request fd req)

(* ------------------------------------------------------------------ *)
(* Idempotent retries                                                  *)
(* ------------------------------------------------------------------ *)

(* Process-unique request keys: pid + wall clock + a counter. Uniqueness
   across retries of *different* requests is all that matters — retries
   of the same request must reuse the same key, which [request_with_retry]
   guarantees by stamping the request once, before the first attempt. *)
let key_counter = Atomic.make 0

let fresh_key () =
  Printf.sprintf "c%d-%.6f-%d" (Unix.getpid ()) (Unix.gettimeofday ())
    (Atomic.fetch_and_add key_counter 1)

(* Deterministic-enough jitter without touching the global Random state:
   a splitmix64-style mix of a private counter. *)
let jitter_counter = Atomic.make 0

let jitter () =
  let x = Int64.of_int (Atomic.fetch_and_add jitter_counter 1) in
  let open Int64 in
  let x = add x 0x9e3779b97f4a7c15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  (* -> [0.5, 1.0): full backoff scale, never collapses to zero *)
  0.5 +. (Int64.to_float (shift_right_logical x 12) /. 4503599627370496. /. 2.)

let retryable_exn = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.EINTR
        | Unix.ETIMEDOUT | Unix.EAGAIN ),
        _,
        _ )
  | Protocol.Framing_error _ ->
    true
  | _ -> false

let request_with_retry ?(retries = 4) ?(backoff_s = 0.05)
    ?(max_backoff_s = 2.) sockaddr req =
  (* Stamp Run/Eval with a request key once, so every wire attempt
     carries the same key and the daemon can answer a retry of an
     already-executed request from its idempotency cache instead of
     recomputing (or double-running) it. *)
  let req =
    match Protocol.request_key req with
    | Some _ -> req
    | None -> Protocol.with_request_key req (fresh_key ())
  in
  let sleep attempt ~hint =
    let exp = backoff_s *. (2. ** float_of_int attempt) *. jitter () in
    let s = Float.min max_backoff_s (Float.max exp (Option.value hint ~default:0.)) in
    if s > 0. then Unix.sleepf s
  in
  let rec go attempt last_err =
    if attempt > retries then
      Error (Printf.sprintf "gave up after %d attempts: %s" (retries + 1) last_err)
    else
      match oneshot sockaddr req with
      | Ok (Protocol.Busy { retry_after_s }) ->
        (* The daemon's own hint takes precedence over our schedule. *)
        sleep attempt ~hint:(Some retry_after_s);
        go (attempt + 1) "daemon busy"
      | Ok (Protocol.Failed { code = "crashed"; detail }) ->
        (* A crashed worker job is transient (and under chaos, injected);
           deadline / bad_request failures are the caller's problem and
           retrying them cannot help. *)
        sleep attempt ~hint:None;
        go (attempt + 1) (Printf.sprintf "worker crashed: %s" detail)
      | Ok _ as ok -> ok
      | Error e ->
        sleep attempt ~hint:None;
        go (attempt + 1) e
      | exception e when retryable_exn e ->
        sleep attempt ~hint:None;
        go (attempt + 1) (Printexc.to_string e)
  in
  go 0 "no attempt made"

(* Retry [connect] until the daemon's socket accepts — for scripts that
   just forked the server. *)
let wait_ready ?(timeout_s = 10.) sockaddr =
  let give_up = Core.Monoclock.now () +. timeout_s in
  let rec go () =
    match with_connection sockaddr (fun fd -> request fd Protocol.Ping) with
    | Ok _ -> true
    | Error _ | (exception Unix.Unix_error _) ->
      if Core.Monoclock.now () > give_up then false
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()
