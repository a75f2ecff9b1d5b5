(** Shared evaluation state of the daemon, plus the execution of one
    request against it.

    One daemon serves one flow configuration, so one
    {!Analysis.Evaluator.Store} {e is} the config family: every request
    evaluates under numerically identical kernel settings — the
    correctness condition for sharing solved stages and factorisations
    across requests. ({!Core.Flow} itself detaches the store on degraded
    retries, whose relaxed numerics would poison the shared entries.)

    All counters are atomic; {!execute} may run on any worker domain. *)

type t

(** [create ?config ?checkpoints ?idem_cap ()] — fresh shared state
    around an empty store. [config] (default {!Core.Config.default})
    seeds every request's flow configuration; its [deadline] and [store]
    fields are overwritten per request. [checkpoints] makes every [Run]
    write verified per-stage checkpoints under
    [<checkpoints>/<sanitised spec>/] (an unwritable checkpoint is a
    recorded incident, never a failed request). [idem_cap] (default 256)
    bounds the response cache: its client-key and content-key entries
    together, and separately the set of instances completed once. *)
val create :
  ?config:Core.Config.t -> ?checkpoints:string -> ?idem_cap:int -> unit -> t

(** The shared cross-request store (exposed for tests and telemetry). *)
val store : t -> Analysis.Evaluator.Store.t

(** Record a backpressure rejection (the server answers those without
    entering {!execute}). *)
val note_busy : t -> unit

(** Seconds since [create], monotonic. *)
val uptime : t -> float

(** Requests answered from the idempotency cache (never recomputed). *)
val idempotent_hits : t -> int

(** The ["stats"] response body: uptime, queue/pool shape, request
    outcome counters, response-cache counters ([idempotent_hits],
    [idempotent_entries], [memo_hits], [memo_entries]) and cumulative
    cache telemetry.
    [extra] fields (the server's connection/chaos counters) are appended
    verbatim. *)
val stats_body :
  t -> queue_depth:int -> max_queue:int -> workers:int -> pool_failed:int ->
  ?extra:(string * Suite.Report.Json.t) list -> unit -> Suite.Report.Json.t

(** Execute one queued request. [deadline] is on the {!Core.Monoclock}
    scale and is re-checked at entry (queue wait counts against the
    budget) and cooperatively during execution via
    {!Core.Config.deadline}. Never raises: failures come back as
    {!Protocol.Failed} ([deadline] / [bad_request] / [crashed]).

    A [Run]/[Eval] request carrying a [request_key] is first looked up
    in the bounded response cache under that client key — before the
    deadline check, so a retry of an already-answered key succeeds even
    on a spent budget; its [Completed] response is remembered afterwards
    and served verbatim.

    Every [Run]/[Eval] then loads its spec once and looks up its content
    key: the MD5 of the op and the loaded instance (never the spec
    string, so an edited [.cts] file misses). A content entry is admitted
    when the same content completes a second time with no flow incident;
    from then on a repeat is answered from it: the stored result fields,
    [eval_runs] 0, its own [seconds], zero [local_*]/[store_*] counts and
    [cache.memo_hit] 1. Hits count in [served] and [memo_hits]. A hit
    writes no checkpoint.
    [Stats]/[Ping]/[Shutdown] are answered inline by the server and
    rejected here. *)
val execute :
  t -> deadline:float option -> Protocol.request -> Protocol.response
