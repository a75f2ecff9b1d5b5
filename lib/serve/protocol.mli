(** Wire protocol of the [contango serve] daemon.

    Frames: a 4-byte big-endian payload length followed by that many
    bytes of compact JSON ({!Suite.Report.Json}). Both directions use
    the same framing; one request frame begets exactly one response
    frame, and a connection carries any number of request/response pairs
    sequentially. See doc/EXTENDING.md ("The serve protocol") for the
    field-level schema. *)

module Json = Suite.Report.Json

(** Torn, oversized or unparseable frame. A clean EOF between frames is
    never an error — {!read_frame} returns [None] for it. *)
exception Framing_error of string

(** A framed read outlived its [timeout_s] budget — either the peer sat
    idle past it or stalled mid-frame. The frame is unrecoverable (bytes
    may already be consumed); close the connection. *)
exception Timeout

(** Frame payload cap, bytes (16 MiB). *)
val max_frame : int

(** Injectable I/O faults, consulted by the framing loops before every
    syscall (the chaos harness supplies the decision function):
    [Fault_eintr] simulates a signal landing mid-syscall — the loops
    must retry, not surface a lost connection; [Fault_stall s] parks the
    thread [s] seconds mid-frame — the [timeout_s] deadline must bound
    it; [Fault_short n] caps one write at [n] bytes — the write loop
    must finish the rest. *)
type io_fault =
  | Fault_eintr
  | Fault_stall of float
  | Fault_short of int

type faults = { on_io : [ `Read | `Write ] -> io_fault option }

(** Write all of [buf], retrying [EINTR] and short writes; exposed for
    the framing tests. *)
val really_write : ?faults:faults -> Unix.file_descr -> Bytes.t -> unit

(** Read exactly [n] bytes ([None] on immediate clean EOF), retrying
    [EINTR] and short reads. [deadline] is on the {!Core.Monoclock}
    scale; reads past it raise {!Timeout} (select-based, so a silent
    peer cannot park the thread).
    @raise Framing_error on EOF mid-buffer. *)
val really_read :
  ?deadline:float -> ?faults:faults -> Unix.file_descr -> int ->
  Bytes.t option

val write_frame : ?faults:faults -> Unix.file_descr -> Json.t -> unit

(** One whole frame, its payload parsed: [Some (Error _)] when the frame
    is intact but its payload is not JSON (or nests deeper than
    {!Json.max_depth}), so the connection can carry on. [None] on clean
    EOF at a frame boundary. [timeout_s] bounds the whole frame, idle
    wait included.
    @raise Framing_error on torn/oversized frames.
    @raise Timeout once [timeout_s] passes with the frame incomplete. *)
val read_payload :
  ?timeout_s:float -> ?faults:faults -> Unix.file_descr ->
  (Json.t, string) result option

(** {!read_payload}, with an unparseable payload raised as a
    {!Framing_error}.
    @raise Framing_error on torn/oversized/unparseable frames.
    @raise Timeout once [timeout_s] passes with the frame incomplete. *)
val read_frame :
  ?timeout_s:float -> ?faults:faults -> Unix.file_descr -> Json.t option

type request =
  | Run of { spec : string; timeout_s : float option; request_key : string option }
      (** full-flow synthesis of a benchmark spec (anything
          {!Suite.Runner.load_bench} accepts); [timeout_s] is a
          per-request budget measured from the moment the request is
          accepted — queue wait counts against it. [request_key] is an
          optional client-chosen idempotency key: the daemon remembers
          the completed response under it, so a retry of the same key is
          answered from that cache instead of recomputed — what makes
          blind retries after a lost connection safe *)
  | Eval of { spec : string; timeout_s : float option; request_key : string option }
      (** greedy-CTS baseline construction + evaluation of a spec; same
          [request_key] contract as [Run] *)
  | Sleep of { seconds : float; timeout_s : float option }
      (** diagnostic: occupy one worker slot for [seconds] — gives tests
          and drills a deterministic way to fill the queue *)
  | Stats   (** daemon telemetry; answered inline, never queued *)
  | Ping    (** liveness probe; answered inline *)
  | Shutdown  (** stop accepting, drain in-flight work, exit *)

type response =
  | Completed of { op : string; body : Json.t }
      (** the op-specific payload — e.g. a [run] body carries
          [result.{skew_ps,clr_ps,t_max_ps,buffers,eval_runs,seconds}]
          and [cache.{local_hits,local_misses,store_hits,store_misses,
          memo_hit}] (an [eval] body the same without [buffers] and
          [eval_runs]). [memo_hit] 1 marks an answer from the daemon's
          content cache: the stored result fields, [eval_runs] 0, its own
          [seconds] and zero [local_*]/[store_*] counts *)
  | Busy of { retry_after_s : float }
      (** bounded queue full — retry after the hinted delay *)
  | Failed of { code : string; detail : string }
      (** [code] is ["deadline"] (budget exceeded, before or during
          execution), ["bad_request"] (unloadable spec / malformed
          request), ["infeasible"] (an [eval] whose sinks no buffer
          insertion can drive within the slew limit) or ["crashed"] *)

(** The idempotency key of a [Run]/[Eval] request ([None] for the rest). *)
val request_key : request -> string option

(** Attach an idempotency key to a [Run]/[Eval] request (identity on the
    keyless ops). *)
val with_request_key : request -> string -> request

val encode_request : request -> Json.t
val decode_request : Json.t -> (request, string) result
val encode_response : response -> Json.t
val decode_response : Json.t -> (response, string) result
