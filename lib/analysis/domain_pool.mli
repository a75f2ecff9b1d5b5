(** A small fixed pool of OCaml 5 domains for coarse-grained parallel
    fan-out (stdlib-only: [Domain], [Mutex], [Condition], [Atomic]).

    Jobs must not share mutable state unless they synchronise themselves;
    the evaluator hands each job its own output slot and per-slot caches,
    so runs are deterministic regardless of scheduling. *)

type t

(** [create ?size ()] spawns [size] worker domains (default
    [Domain.recommended_domain_count () - 1], floored at 0). A pool of
    size 0 runs everything on the calling domain. *)
val create : ?size:int -> unit -> t

(** Number of worker domains (excludes the calling domain). *)
val size : t -> int

(** [submit pool job] enqueues a fire-and-forget job. Workers run every
    job behind an exception shield — a raising job can never take its
    domain down (which would silently shrink the pool for the rest of
    the process) — so a [submit]ted job's exception is swallowed and
    counted in {!failed_jobs}; jobs that must report failures should
    capture them in their own state (as {!map} does internally). On a
    size-0 pool the job runs inline on the calling domain, serialized
    against other inline submitters: concurrent [submit]s from
    systhreads of one domain run one at a time, preserving the
    domain-exclusive scratch (DLS workspaces) jobs rely on. A job must
    not [submit] into the pool running it inline, or it deadlocks. *)
val submit : t -> (unit -> unit) -> unit

(** Jobs whose exception was caught by the worker shield since the pool
    was created. [map]/[map_weighted] jobs capture and re-raise their
    own errors, so they never count here. *)
val failed_jobs : t -> int

(** Join all workers. The pool must not be used afterwards. *)
val shutdown : t -> unit

(** Parallel [Array.map], order-preserving. The calling domain executes
    jobs too, so a size-0 pool is exactly sequential [Array.map]. If any
    job raises, the exception for the lowest index is re-raised after all
    jobs finish. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_weighted pool ~weight f xs] — {!map}, but jobs are submitted to
    the queue heaviest-first (ties broken by input index), so a big job
    scheduled last in input order cannot become the tail the whole pool
    waits on. The calling domain takes the heaviest job itself. Results
    stay in input order; on a size-0 pool this is plain sequential
    [Array.map], like {!map}. *)
val map_weighted : t -> weight:('a -> int) -> ('a -> 'b) -> 'a array -> 'b array

(** Whether the calling domain is a worker of some pool. Jobs
    running there already hold one of the cores the outer pool was
    sized for; a nested fan-out from them adds domains, not cores. *)
val on_worker : unit -> bool

(** The shared lazily-created pool (default size), joined automatically
    at process exit. *)
val global : unit -> t
