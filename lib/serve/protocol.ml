(* Wire protocol of the serve daemon: length-prefixed JSON frames over a
   stream socket. A frame is a 4-byte big-endian payload length followed
   by that many bytes of compact JSON ({!Suite.Report.Json}); both
   directions use the same framing, one request frame begets exactly one
   response frame, and a connection carries any number of request/response
   pairs sequentially. *)

module Json = Suite.Report.Json

exception Framing_error of string
exception Timeout

(* Generous for any realistic response (a stats or run summary is a few
   hundred bytes) while bounding what a broken or hostile peer can make
   the daemon allocate. *)
let max_frame = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Injectable I/O faults                                               *)
(* ------------------------------------------------------------------ *)

(* The chaos harness hands the framing layer a decision function that is
   consulted before every syscall. [Fault_eintr] simulates a signal
   landing mid-syscall (the loops below must retry, not surface a lost
   connection); [Fault_stall] parks the thread mid-frame (the deadline
   machinery must bound it); [Fault_short n] caps one write at [n]
   bytes (the write loop must finish the rest). *)
type io_fault =
  | Fault_eintr
  | Fault_stall of float
  | Fault_short of int

type faults = { on_io : [ `Read | `Write ] -> io_fault option }

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* Wait until [fd] is readable or [deadline] (Monoclock scale) passes.
   EINTR during the park is not an event, just a reason to re-arm. *)
let rec wait_readable fd deadline =
  let remaining = deadline -. Core.Monoclock.now () in
  if remaining <= 0. then raise Timeout
  else
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> raise Timeout
    | _ :: _, _, _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd deadline

let apply_fault faults dir name =
  match faults with
  | None -> ()
  | Some { on_io } -> (
    match on_io dir with
    | None -> ()
    | Some Fault_eintr -> raise (Unix.Unix_error (Unix.EINTR, name, "injected"))
    | Some (Fault_stall s) -> Unix.sleepf s
    | Some (Fault_short _) -> ())

(* A short-write cap, when the fault injector orders one. *)
let write_cap faults n =
  match faults with
  | None -> n
  | Some { on_io } -> (
    match on_io `Write with
    | Some (Fault_short c) -> max 1 (min c n)
    | Some Fault_eintr -> raise (Unix.Unix_error (Unix.EINTR, "write", "injected"))
    | Some (Fault_stall s) ->
      Unix.sleepf s;
      n
    | None -> n)

let really_write ?faults fd buf =
  let n = Bytes.length buf in
  let rec go off =
    if off < n then
      match
        let len = write_cap faults (n - off) in
        Unix.write fd buf off len
      with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* A signal mid-write is not a lost connection: the kernel wrote
           nothing, the offset is still right — go again. *)
        go off
  in
  go 0

(* [None] on clean EOF at a frame boundary; raises {!Framing_error} on a
   torn frame, {!Timeout} once [deadline] passes with the read
   incomplete. *)
let really_read ?deadline ?faults fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Some buf
    else begin
      (match deadline with
      | Some d -> wait_readable fd d
      | None -> ());
      match
        apply_fault faults `Read "read";
        Unix.read fd buf off (n - off)
      with
      | 0 -> if off = 0 then None else raise (Framing_error "truncated frame")
      | r -> go (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

let write_frame ?faults fd json =
  let payload = Bytes.of_string (Json.to_compact_string json) in
  let n = Bytes.length payload in
  if n > max_frame then raise (Framing_error "frame too large");
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  really_write ?faults fd hdr;
  really_write ?faults fd payload

(* [timeout_s] bounds the whole frame, idle wait included: the deadline
   is fixed before the first header byte, so neither a silent peer nor a
   mid-frame staller can hold the fd past it. *)
let read_payload ?timeout_s ?faults fd =
  let deadline = Option.map (fun s -> Core.Monoclock.now () +. s) timeout_s in
  match really_read ?deadline ?faults fd 4 with
  | None -> None
  | Some hdr ->
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if n < 0 || n > max_frame then
      raise (Framing_error (Printf.sprintf "bad frame length %d" n));
    (match really_read ?deadline ?faults fd n with
    | None -> raise (Framing_error "truncated frame")
    | Some payload -> Some (Json.of_string (Bytes.to_string payload)))

let read_frame ?timeout_s ?faults fd =
  match read_payload ?timeout_s ?faults fd with
  | None -> None
  | Some (Ok json) -> Some json
  | Some (Error e) -> raise (Framing_error ("bad frame payload: " ^ e))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Run of { spec : string; timeout_s : float option; request_key : string option }
  | Eval of { spec : string; timeout_s : float option; request_key : string option }
  | Sleep of { seconds : float; timeout_s : float option }
  | Stats
  | Ping
  | Shutdown

let request_key = function
  | Run { request_key; _ } | Eval { request_key; _ } -> request_key
  | Sleep _ | Stats | Ping | Shutdown -> None

let with_request_key request key =
  match request with
  | Run r -> Run { r with request_key = Some key }
  | Eval r -> Eval { r with request_key = Some key }
  | Sleep _ | Stats | Ping | Shutdown -> request

let timeout_field = function
  | None -> []
  | Some s -> [ ("timeout_s", Json.Num s) ]

let key_field = function
  | None -> []
  | Some k -> [ ("request_key", Json.Str k) ]

let encode_request = function
  | Run { spec; timeout_s; request_key } ->
    Json.Obj
      ([ ("op", Json.Str "run"); ("spec", Json.Str spec) ]
      @ timeout_field timeout_s @ key_field request_key)
  | Eval { spec; timeout_s; request_key } ->
    Json.Obj
      ([ ("op", Json.Str "eval"); ("spec", Json.Str spec) ]
      @ timeout_field timeout_s @ key_field request_key)
  | Sleep { seconds; timeout_s } ->
    Json.Obj
      ([ ("op", Json.Str "sleep"); ("seconds", Json.Num seconds) ]
      @ timeout_field timeout_s)
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let decode_request json =
  let timeout_s = Json.to_float (Json.member "timeout_s" json) in
  let request_key = Json.to_str (Json.member "request_key" json) in
  match Json.to_str (Json.member "op" json) with
  | Some "run" -> (
    match Json.to_str (Json.member "spec" json) with
    | Some spec -> Ok (Run { spec; timeout_s; request_key })
    | None -> Error "run request needs a \"spec\" string")
  | Some "eval" -> (
    match Json.to_str (Json.member "spec" json) with
    | Some spec -> Ok (Eval { spec; timeout_s; request_key })
    | None -> Error "eval request needs a \"spec\" string")
  | Some "sleep" -> (
    match Json.to_float (Json.member "seconds" json) with
    | Some seconds -> Ok (Sleep { seconds; timeout_s })
    | None -> Error "sleep request needs a \"seconds\" number")
  | Some "stats" -> Ok Stats
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "request needs an \"op\" string"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type response =
  | Completed of { op : string; body : Json.t }
  | Busy of { retry_after_s : float }
  | Failed of { code : string; detail : string }

let encode_response = function
  | Completed { op; body } ->
    Json.Obj
      [ ("status", Json.Str "ok"); ("op", Json.Str op); ("body", body) ]
  | Busy { retry_after_s } ->
    Json.Obj
      [ ("status", Json.Str "busy"); ("retry_after_s", Json.Num retry_after_s) ]
  | Failed { code; detail } ->
    Json.Obj
      [ ("status", Json.Str "error"); ("code", Json.Str code);
        ("detail", Json.Str detail) ]

let decode_response json =
  match Json.to_str (Json.member "status" json) with
  | Some "ok" -> (
    match Json.member "op" json |> Json.to_str with
    | Some op ->
      let body =
        Option.value (Json.member "body" json) ~default:Json.Null
      in
      Ok (Completed { op; body })
    | None -> Error "ok response needs an \"op\" string")
  | Some "busy" -> (
    match Json.to_float (Json.member "retry_after_s" json) with
    | Some retry_after_s -> Ok (Busy { retry_after_s })
    | None -> Error "busy response needs a \"retry_after_s\" number")
  | Some "error" -> (
    match (Json.to_str (Json.member "code" json),
           Json.to_str (Json.member "detail" json)) with
    | Some code, Some detail -> Ok (Failed { code; detail })
    | _ -> Error "error response needs \"code\" and \"detail\" strings")
  | Some s -> Error (Printf.sprintf "unknown status %S" s)
  | None -> Error "response needs a \"status\" string"
