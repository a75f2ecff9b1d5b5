(* Shared evaluation state of the daemon plus the execution of one
   request against it. One daemon serves one flow configuration, so one
   {!Analysis.Evaluator.Store} is the config family — every request
   evaluates under numerically identical kernel settings, which is the
   correctness condition for sharing solved stages and factorisations
   (Flow itself drops the store on degraded retries, whose relaxed
   numerics would poison the shared entries). *)

module Ev = Analysis.Evaluator
module Json = Suite.Report.Json

(* Bounded cache of completed responses under two kinds of key, sharing
   one capacity and one eviction policy (second chance, see
   {!Analysis.Cache}).

   [Client k] is the client's idempotency key. A retry of a key the
   daemon already answered is served from here verbatim — zero
   recomputation — which is what makes blind client retries after a lost
   connection safe.

   [Content d] is the digest of the op and the loaded instance (see
   {!content_key}). The flow is deterministic for one instance under the
   daemon's fixed configuration, so a repeat of the same work is answered
   from the stored result at lookup cost. An entry is admitted only on
   the digest's second clean completion: [seen] remembers first
   completions (bounded; only ever queried with [mem], so the oldest is
   forgotten first), so the first repeat is still answered by the stage
   store and one-off traffic never churns the cache.

   Only [Completed] responses are remembered: caching a transient failure
   would make every retry of that key fail forever. Mutex-protected:
   lookups come from connection systhreads and worker domains. *)
module Memo = struct
  module Cache = Analysis.Cache

  type key = Client of string | Content of Digest.t

  type cache = {
    lock : Mutex.t;
    tbl : (key, Protocol.response) Cache.t;
    seen : (Digest.t, unit) Cache.t;
  }

  let create cap =
    { lock = Mutex.create (); tbl = Cache.create ~cap; seen = Cache.create ~cap }

  let locked c f =
    Mutex.lock c.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

  let find c key = locked c (fun () -> Cache.find c.tbl key)

  (* First writer wins: concurrent same-key requests may both compute,
     but retries see one stable answer. *)
  let add c key resp = locked c (fun () -> Cache.add c.tbl key resp)

  (* A clean completion of content [d]: admitted if [d] completed
     before, otherwise remembered as seen once. *)
  let completed c d resp =
    locked c (fun () ->
        if Cache.mem c.seen d then Cache.add c.tbl (Content d) resp
        else Cache.add c.seen d ())

  (* Entries of each kind: (client, content). *)
  let lengths c =
    locked c (fun () ->
        Cache.fold
          (fun k _ (cl, co) ->
            match k with Client _ -> (cl + 1, co) | Content _ -> (cl, co + 1))
          c.tbl (0, 0))
end

type t = {
  config : Core.Config.t;
  store : Ev.Store.t;
  checkpoints : string option;
  memo : Memo.cache;
  started : float;  (* Monoclock origin of uptime *)
  served : int Atomic.t;
  busy_rejected : int Atomic.t;
  deadline_expired : int Atomic.t;
  crashed : int Atomic.t;
  idempotent_hits : int Atomic.t;
  memo_hits : int Atomic.t;
  cum_local_hits : int Atomic.t;
  cum_local_misses : int Atomic.t;
  cum_store_hits : int Atomic.t;
  cum_store_misses : int Atomic.t;
}

let default_idem_cap = 256

let create ?(config = Core.Config.default) ?checkpoints
    ?(idem_cap = default_idem_cap) () =
  {
    config;
    store = Ev.Store.create ();
    checkpoints;
    memo = Memo.create idem_cap;
    started = Core.Monoclock.now ();
    served = Atomic.make 0;
    busy_rejected = Atomic.make 0;
    deadline_expired = Atomic.make 0;
    crashed = Atomic.make 0;
    idempotent_hits = Atomic.make 0;
    memo_hits = Atomic.make 0;
    cum_local_hits = Atomic.make 0;
    cum_local_misses = Atomic.make 0;
    cum_store_hits = Atomic.make 0;
    cum_store_misses = Atomic.make 0;
  }

let store t = t.store
let note_busy t = Atomic.incr t.busy_rejected
let uptime t = Core.Monoclock.now () -. t.started
let idempotent_hits t = Atomic.get t.idempotent_hits

let stats_body t ~queue_depth ~max_queue ~workers ~pool_failed
    ?(extra = []) () =
  let client_entries, content_entries = Memo.lengths t.memo in
  Json.Obj
    ([
      ("uptime_s", Json.Num (uptime t));
      ("queue_depth", Json.Num (float_of_int queue_depth));
      ("max_queue", Json.Num (float_of_int max_queue));
      ("workers", Json.Num (float_of_int workers));
      ("served", Json.Num (float_of_int (Atomic.get t.served)));
      ("busy_rejected", Json.Num (float_of_int (Atomic.get t.busy_rejected)));
      ("deadline_expired",
       Json.Num (float_of_int (Atomic.get t.deadline_expired)));
      ("crashed", Json.Num (float_of_int (Atomic.get t.crashed)));
      ("pool_failed_jobs", Json.Num (float_of_int pool_failed));
      ("idempotent_hits",
       Json.Num (float_of_int (Atomic.get t.idempotent_hits)));
      ("idempotent_entries", Json.Num (float_of_int client_entries));
      ("memo_hits", Json.Num (float_of_int (Atomic.get t.memo_hits)));
      ("memo_entries", Json.Num (float_of_int content_entries));
      ("cache",
       Json.Obj
         [
           ("local_hits",
            Json.Num (float_of_int (Atomic.get t.cum_local_hits)));
           ("local_misses",
            Json.Num (float_of_int (Atomic.get t.cum_local_misses)));
           ("store_hits",
            Json.Num (float_of_int (Atomic.get t.cum_store_hits)));
           ("store_misses",
            Json.Num (float_of_int (Atomic.get t.cum_store_misses)));
           ("store_results", Json.Num (float_of_int (Ev.Store.length t.store)));
           ("store_evictions",
            Json.Num (float_of_int (Ev.Store.evictions t.store)));
         ]);
    ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* Request execution (runs on a worker domain)                         *)
(* ------------------------------------------------------------------ *)

let cache_json ?(memo_hit = false) ~local_hits ~local_misses ~store_hits
    ~store_misses () =
  Json.Obj
    [
      ("local_hits", Json.Num (float_of_int local_hits));
      ("local_misses", Json.Num (float_of_int local_misses));
      ("store_hits", Json.Num (float_of_int store_hits));
      ("store_misses", Json.Num (float_of_int store_misses));
      ("memo_hit", Json.Num (if memo_hit then 1. else 0.));
    ]

let deadline_failed t =
  Atomic.incr t.deadline_expired;
  Protocol.Failed
    { code = "deadline"; detail = "request exceeded its time budget" }

let crash_failed t e bt =
  Atomic.incr t.crashed;
  let detail =
    let raw = Printexc.raw_backtrace_to_string bt in
    if raw = "" then Printexc.to_string e
    else Printf.sprintf "%s\n%s" (Printexc.to_string e) raw
  in
  Protocol.Failed { code = "crashed"; detail }

(* Per-spec checkpoint directory, when the daemon persists at all: the
   spec string sanitised to a path component. *)
let sanitize_spec spec =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    spec

let checkpoint_dir t spec =
  Option.map (fun d -> Filename.concat d (sanitize_spec spec)) t.checkpoints

(* A [Run] of the loaded instance [b], and whether its flow recorded no
   incident: only such a clean result may enter the content cache (a
   degraded retry's relaxed numerics are not what a repeat computes). *)
let run_request t ~deadline spec (b : Suite.Format_io.t) =
  let handle = Ev.Store.handle t.store in
  let config = { t.config with Core.Config.deadline; store = Some handle } in
  let t0 = Core.Monoclock.now () in
  (* Per-request local cache counters: each trace entry carries the
     per-step delta, so the sum over the streamed entries is the
     request's session total. *)
  let local_hits = ref 0 and local_misses = ref 0 in
  let on_step (e : Core.Flow.trace_entry) =
    local_hits := !local_hits + e.Core.Flow.cache_hits;
    local_misses := !local_misses + e.Core.Flow.cache_misses
  in
  let incidents = ref 0 in
  let on_incident _ = incr incidents in
  match
    Core.Flow.run_regional ~config ~on_step ~on_incident
      ?checkpoint_dir:(checkpoint_dir t spec)
      ~tech:b.Suite.Format_io.tech ~source:b.Suite.Format_io.source
      ~obstacles:b.Suite.Format_io.obstacles b.Suite.Format_io.sinks
  with
  | exception Core.Ivc.Deadline_exceeded -> (deadline_failed t, false)
  | exception e -> (crash_failed t e (Printexc.get_raw_backtrace ()), false)
  | rr ->
    let r = rr.Core.Flow.r_flow in
    let final = r.Core.Flow.final in
    let store_hits = Ev.Store.hits handle in
    let store_misses = Ev.Store.misses handle in
    Atomic.incr t.served;
    ignore (Atomic.fetch_and_add t.cum_local_hits !local_hits);
    ignore (Atomic.fetch_and_add t.cum_local_misses !local_misses);
    ignore (Atomic.fetch_and_add t.cum_store_hits store_hits);
    ignore (Atomic.fetch_and_add t.cum_store_misses store_misses);
    ( Protocol.Completed
        {
          op = "run";
          body =
            Json.Obj
              [
                ("spec", Json.Str spec);
                ("result",
                 Json.Obj
                   [
                     ("skew_ps", Json.Num final.Ev.skew);
                     ("clr_ps", Json.Num final.Ev.clr);
                     ("t_max_ps", Json.Num final.Ev.t_max);
                     ("buffers",
                      Json.Num
                        (float_of_int
                           final.Ev.stats.Ctree.Stats.buffer_count));
                     ("eval_runs",
                      Json.Num (float_of_int r.Core.Flow.eval_runs));
                     ("seconds", Json.Num (Core.Monoclock.now () -. t0));
                   ]);
                ("cache",
                 cache_json ~local_hits:!local_hits
                   ~local_misses:!local_misses ~store_hits ~store_misses ());
              ];
        },
      !incidents = 0 )

(* An [Eval] of the loaded instance [b]; the baseline records no
   incidents, so every completion is clean. *)
let eval_request t ~deadline spec (b : Suite.Format_io.t) =
  let config = { t.config with Core.Config.deadline } in
  match Suite.Baseline.run ~config b with
  | exception Core.Ivc.Deadline_exceeded -> (deadline_failed t, false)
  | exception Buffering.Fast_vg.Infeasible detail ->
    (* No buffering meets the slew limit: a property of the spec, not
       a worker failure. *)
    (Protocol.Failed { code = "infeasible"; detail }, false)
  | exception e -> (crash_failed t e (Printexc.get_raw_backtrace ()), false)
  | r ->
    Atomic.incr t.served;
    let eval = r.Suite.Baseline.eval in
    ( Protocol.Completed
        {
          op = "eval";
          body =
            Json.Obj
              [
                ("spec", Json.Str spec);
                ("result",
                 Json.Obj
                   [
                     ("skew_ps", Json.Num eval.Ev.skew);
                     ("clr_ps", Json.Num eval.Ev.clr);
                     ("t_max_ps", Json.Num eval.Ev.t_max);
                     ("seconds", Json.Num r.Suite.Baseline.seconds);
                   ]);
                (* The baseline consults neither the session caches nor
                   the store. *)
                ("cache",
                 cache_json ~local_hits:0 ~local_misses:0 ~store_hits:0
                   ~store_misses:0 ());
              ];
        },
      true )

(* The content key of a [Run]/[Eval]: the MD5 of the op and an exact
   serialisation of the loaded instance — never the spec string, so an
   edited [.cts] file misses. The daemon's configuration is fixed per
   session, so it needs no place in the key. *)
let content_key op (b : Suite.Format_io.t) =
  Digest.string (Marshal.to_string (op, b) [ Marshal.No_sharing ])

(* A content-cache hit: the stored result fields under the request's own
   spec and telemetry — no evaluation ran, no cache was consulted, and
   [seconds] is this request's own lookup time. *)
let memo_reply t ~t0 spec = function
  | Protocol.Completed { op; body } ->
    Atomic.incr t.served;
    Atomic.incr t.memo_hits;
    let result =
      match Json.member "result" body with
      | Some (Json.Obj fields) ->
        List.map
          (fun (k, v) ->
            match k with
            | "eval_runs" -> (k, Json.Num 0.)
            | "seconds" -> (k, Json.Num (Core.Monoclock.now () -. t0))
            | _ -> (k, v))
          fields
      | _ -> []
    in
    Protocol.Completed
      {
        op;
        body =
          Json.Obj
            [
              ("spec", Json.Str spec);
              ("result", Json.Obj result);
              ("cache",
               cache_json ~memo_hit:true ~local_hits:0 ~local_misses:0
                 ~store_hits:0 ~store_misses:0 ());
            ];
      }
  | resp -> resp

(* Load the spec once, answer from the content cache when the same work
   already completed twice, else compute — and let a clean completion
   count towards admission. *)
let memoized t ~t0 ~op spec compute =
  match Suite.Runner.load_bench spec with
  | exception Failure detail -> Protocol.Failed { code = "bad_request"; detail }
  | b -> (
    let key = content_key op b in
    match Memo.find t.memo (Memo.Content key) with
    | Some resp -> memo_reply t ~t0 spec resp
    | None ->
      let resp, clean = compute spec b in
      (match resp with
      | Protocol.Completed _ when clean -> Memo.completed t.memo key resp
      | _ -> ());
      resp)

let sleep_request t ~deadline seconds =
  let finish = Core.Monoclock.now () +. Float.max 0. seconds in
  (* Cooperative like the flow: sleep in slices so the budget is honoured
     within ~5 ms even mid-hold. *)
  let rec hold () =
    let now = Core.Monoclock.now () in
    match deadline with
    | Some d when now > d -> deadline_failed t
    | _ ->
      if now >= finish then begin
        Atomic.incr t.served;
        Protocol.Completed
          {
            op = "sleep";
            body = Json.Obj [ ("slept_s", Json.Num seconds) ];
          }
      end
      else begin
        Unix.sleepf (Float.min 0.005 (finish -. now));
        hold ()
      end
  in
  hold ()

(* Budget checked once more at execution start: a request can spend its
   whole budget waiting in the queue. *)
let execute_uncached t ~deadline request =
  let t0 = Core.Monoclock.now () in
  match deadline with
  | Some d when t0 > d -> deadline_failed t
  | _ -> (
    match request with
    | Protocol.Run { spec; _ } ->
      memoized t ~t0 ~op:"run" spec (run_request t ~deadline)
    | Protocol.Eval { spec; _ } ->
      memoized t ~t0 ~op:"eval" spec (eval_request t ~deadline)
    | Protocol.Sleep { seconds; _ } -> sleep_request t ~deadline seconds
    | Protocol.Stats | Protocol.Ping | Protocol.Shutdown ->
      (* Inline ops never reach the queue; see Server. *)
      Protocol.Failed
        { code = "bad_request"; detail = "op is answered inline, not queued" })

(* The client key is consulted before the deadline: a retry whose
   answer is already computed deserves it even on a spent budget —
   serving it costs nothing and recomputing is exactly what the key
   exists to prevent. Only [Completed] responses are remembered. *)
let execute t ~deadline request =
  match Protocol.request_key request with
  | None -> execute_uncached t ~deadline request
  | Some key -> (
    match Memo.find t.memo (Memo.Client key) with
    | Some resp ->
      Atomic.incr t.idempotent_hits;
      resp
    | None ->
      let resp = execute_uncached t ~deadline request in
      (match resp with
      | Protocol.Completed _ -> Memo.add t.memo (Memo.Client key) resp
      | Protocol.Busy _ | Protocol.Failed _ -> ());
      resp)
