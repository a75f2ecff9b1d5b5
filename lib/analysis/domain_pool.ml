(* A tiny fixed-size pool of OCaml 5 domains for coarse-grained fan-out
   (one job per corner × transition evaluation pass). Stdlib-only: a
   mutex/condition protected queue feeds the workers; the caller also
   drains the queue itself ("caller helps") so a pool of size 0 — the
   right size on a single-core host — degrades to plain sequential
   execution with no domain spawned at all. *)

type job = unit -> unit

type t = {
  mutable domains : unit Domain.t list;
  queue : job Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closing : bool;
  failed : int Atomic.t;
}

(* Every queued job runs through this shield: an exception escaping a
   job would otherwise kill the worker domain silently — permanently
   shrinking the pool for the rest of the process — and resurface much
   later out of [shutdown]'s [Domain.join]. [map_order] captures per-job
   errors itself (and re-raises them at the call site); raw [submit]ted
   jobs have no caller to report to, so their failures are only
   counted. *)
let run_protected pool job =
  try job () with _ -> Atomic.incr pool.failed

(* True for the whole life of a worker domain of any pool, false on
   every other domain (the main one, domains spawned elsewhere). *)
let worker_key = Domain.DLS.new_key (fun () -> false)

let on_worker () = Domain.DLS.get worker_key

let worker_loop pool =
  Domain.DLS.set worker_key true;
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.closing do
      Condition.wait pool.nonempty pool.lock
    done;
    if Queue.is_empty pool.queue && pool.closing then Mutex.unlock pool.lock
    else begin
      let job = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      run_protected pool job;
      loop ()
    end
  in
  loop ()

let create ?size () =
  let size =
    match size with
    | Some s -> max 0 s
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    { domains = []; queue = Queue.create (); lock = Mutex.create ();
      nonempty = Condition.create (); closing = false;
      failed = Atomic.make 0 }
  in
  pool.domains <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = List.length pool.domains

let failed_jobs pool = Atomic.get pool.failed

(* Fire-and-forget: the job runs on a worker as soon as one is free (its
   exceptions are swallowed and counted, see [run_protected]). On a
   size-0 pool there is no worker to ever drain the queue, so the job
   runs inline — the same degradation [map] makes — but serialized under
   the pool lock: concurrent submitters are systhreads interleaving on
   one domain, and jobs assume they own the domain's scratch (DLS
   workspaces, stage builders) exactly as they would on a dedicated
   worker domain. Running two inline jobs interleaved would corrupt that
   scratch mid-solve. A job must therefore never [submit] back into the
   pool that is running it inline. *)
let submit pool job =
  if size pool = 0 then begin
    Mutex.lock pool.lock;
    (* [run_protected] swallows every exception, so the unlock runs. *)
    run_protected pool job;
    Mutex.unlock pool.lock
  end
  else begin
    Mutex.lock pool.lock;
    Queue.add job pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.lock
  end

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closing <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* Try to pop and run one queued job; false when the queue is empty. *)
let help_one pool =
  Mutex.lock pool.lock;
  match Queue.pop pool.queue with
  | job ->
    Mutex.unlock pool.lock;
    run_protected pool job;
    true
  | exception Queue.Empty ->
    Mutex.unlock pool.lock;
    false

(* [order] is a permutation of [0, n): the submission schedule. Results
   land in input order regardless; only which job the workers see first —
   and which one the caller crunches itself — changes. *)
let map_order pool ~order f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if size pool = 0 || n = 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = Atomic.make n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let run i =
      (match f xs.(i) with
      | y -> results.(i) <- Some y
      | exception e -> errors.(i) <- Some e);
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock done_lock;
        Condition.broadcast all_done;
        Mutex.unlock done_lock
      end
    in
    Mutex.lock pool.lock;
    for k = 1 to n - 1 do
      let i = order.(k) in
      Queue.add (fun () -> run i) pool.queue
    done;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock;
    (* The caller takes the schedule's first job itself, then helps
       drain the queue. *)
    run order.(0);
    while help_one pool do () done;
    Mutex.lock done_lock;
    while Atomic.get remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    Array.init n (fun i ->
        match errors.(i) with
        | Some e -> raise e
        | None -> (
          match results.(i) with
          | Some y -> y
          | None -> assert false))
  end

let map pool f xs =
  map_order pool ~order:(Array.init (Array.length xs) Fun.id) f xs

let map_weighted pool ~weight f xs =
  let n = Array.length xs in
  let w = Array.map weight xs in
  let order = Array.init n Fun.id in
  (* Heaviest first, ties broken by input index so the schedule — and
     with it any counter interleaving — is deterministic. *)
  Array.sort
    (fun a b ->
      match Int.compare w.(b) w.(a) with 0 -> Int.compare a b | c -> c)
    order;
  map_order pool ~order f xs

(* Lazily created process-wide pool, reaped at exit so multicore hosts do
   not hang on dangling domains. *)
let global_pool = ref None

let global () =
  match !global_pool with
  | Some p -> p
  | None ->
    let p = create () in
    global_pool := Some p;
    at_exit (fun () ->
        match !global_pool with
        | Some p ->
          global_pool := None;
          shutdown p
        | None -> ());
    p
