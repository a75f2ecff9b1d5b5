(** Scripted client for the serve protocol — the [contango client]
    subcommand, the serve tests and perfbench's serve_mix workload all
    go through these calls. *)

(** Connect a stream socket to the daemon.
    @raise Unix.Unix_error when the daemon is not listening. *)
val connect : Unix.sockaddr -> Unix.file_descr

val close : Unix.file_descr -> unit

(** One request/response exchange on an open connection. [Error] carries
    a decode problem or an early close; framing problems raise
    {!Protocol.Framing_error}. *)
val request :
  Unix.file_descr -> Protocol.request -> (Protocol.response, string) result

(** [with_connection addr f] — connect, run [f], always close. *)
val with_connection : Unix.sockaddr -> (Unix.file_descr -> 'a) -> 'a

(** Connect, send one request, close. *)
val oneshot :
  Unix.sockaddr -> Protocol.request -> (Protocol.response, string) result

(** [request_with_retry ?retries ?backoff_s ?max_backoff_s addr req] —
    {!oneshot} with up to [retries] (default 4) additional attempts and
    jittered exponential backoff starting at [backoff_s] (default 0.05),
    capped at [max_backoff_s] (default 2).

    Retries on: connection-level failures (refused/reset/EPIPE/framing
    errors/early close), [Busy] (sleeping at least the daemon's
    [retry_after_s] hint), and [Failed] with code ["crashed"] (a
    transient worker loss). Does {e not} retry [deadline] or
    [bad_request] failures — those are deterministic.

    A [Run]/[Eval] without a [request_key] is stamped with a fresh
    process-unique key before the first attempt, so every retry carries
    the same key and a request whose response was lost in flight is
    answered from the daemon's idempotency cache rather than recomputed.
    [Error] reports the last failure once attempts are exhausted. *)
val request_with_retry :
  ?retries:int -> ?backoff_s:float -> ?max_backoff_s:float ->
  Unix.sockaddr -> Protocol.request -> (Protocol.response, string) result

(** Poll [Ping] until the daemon answers — any decoded response counts
    as ready, including [Busy] or [Failed]; [false] once [timeout_s]
    (default 10) elapses first. For scripts that just forked the
    server. *)
val wait_ready : ?timeout_s:float -> Unix.sockaddr -> bool
