(** Clock-Network Evaluation (CNE): full-tree timing with a pluggable
    engine.

    The tree is compiled into a {!Ctree.Arena} snapshot and decomposed
    into driver stages held in one {!Rcflat} stage pool — the single
    stage representation every engine evaluates over. Each stage is
    solved with the selected engine and the results chained — buffer
    input arrival plus the buffer's (corner-scaled) intrinsic and
    slew-dependent delay gives the next stage's launch time. Rising and
    falling source transitions are propagated separately (inverters flip
    the edge per stage), at every corner of the technology.

    Every call increments a global evaluation counter, mirroring the
    paper's count of SPICE runs (Table V). *)

type engine =
  | Elmore_model  (** construction-time estimates only *)
  | Arnoldi       (** two-pole moment matching, fast and accurate *)
  | Spice         (** backward-Euler transient — the reference *)

type transition = Rise | Fall

val flip : transition -> transition

type run = {
  corner : Tech.Corner.t;
  transition : transition;  (** at the clock source output *)
  latency : float array;
      (** node id → arrival of the 50 % crossing, meaningful at sinks and
          buffer inputs *)
  slew : float array;       (** node id → 10–90 % slew at that pin *)
  worst_slew : float;
  worst_slew_node : int;
}

type t = {
  runs : run list;
  sinks : int array;
  skew_rise : float;  (** nominal-corner skew for the source-rise runs *)
  skew_fall : float;
  skew : float;       (** max of the two, ps *)
  t_min : float;      (** least nominal sink latency over both transitions *)
  t_max : float;      (** greatest nominal sink latency *)
  clr : float;
      (** max over transitions of (max latency at the slow corner − min
          latency at the fast corner); equals skew when only one corner is
          configured *)
  slew_violations : int;  (** taps beyond the slew limit, over all runs *)
  cap_ok : bool;
  stats : Ctree.Stats.t;
}

(** [transient_step]/[transient_mode] tune the [Spice] engine's
    backward-Euler kernel (fine timestep in ps and stepping controller —
    see {!Transient.mode}); both default to the kernel's own defaults and
    are ignored by the other engines.

    Every engine reads its stages out of the same {!Rcflat} pool. [flat]
    (default false) only picks the kernel that marches a [Spice] stage:
    the streaming kernel over the pool slice ({!Transient.Flat}) instead
    of the boxed kernel ({!Transient.solve}) on the stage's
    {!Rcflat.stage_rc} copy. Cache keys and adaptive rate choices are
    bit-identical between the two; crossing times agree to
    sub-femtosecond (~1e-6 ps at 100K-node stages). [Arnoldi] and
    [Elmore_model] solve the {!Rcflat.stage_rc} copy and ignore
    [flat].

    The corners fan out over {!Domain_pool.global}: one job per corner
    runs the Rise then the Fall pass, sharing that corner's
    factorisation cache and the executing domain's workspace, and no
    mutable state crosses jobs. Runs are assembled in corner ×
    transition order and a cached factor is bit-identical to a
    recomputed one, so results do not depend on the pool size or on
    scheduling. A call made on a worker domain of any pool
    ({!Domain_pool.on_worker}) runs its corners one after another on
    that domain instead: the outer pool already holds the cores.
    [evaluate] is [screen ~max_slew:infinity].

    A call borrows its arena snapshot and stage pool from a
    lock-guarded process-wide free list (safe from any thread or
    domain) and gives them back, unbound from the tree, when it
    returns: repeated calls recompile them in place instead of
    allocating, with results bit-identical to a fresh compile. *)
val evaluate :
  ?engine:engine -> ?flat:bool -> ?seg_len:int -> ?transient_step:float ->
  ?transient_mode:Transient.mode -> Ctree.Tree.t -> t

(** [screen ~max_slew tree] — {!evaluate} with an early exit for
    accept/reject sweeps. Every pass checks its running worst tap slew
    after each stage and stops as soon as it exceeds [max_slew]; the
    call then returns [None]. So [None] exactly when the full
    evaluation's largest [worst_slew] over all runs exceeds [max_slew],
    and otherwise [Some] of exactly what {!evaluate} returns. Counts as
    one evaluator run either way.

    A pass stopped early never solves its later stages, so it cannot
    raise {!Numerics.Numerical_failure} from them: such a tree is
    rejected ([None]), not crashed. Stops and failures are resolved in
    corner × transition order, as if the passes ran one after another:
    once an earlier corner has stopped, a later corner's failure is not
    reported. *)
val screen :
  ?engine:engine -> ?flat:bool -> ?seg_len:int -> ?transient_step:float ->
  ?transient_mode:Transient.mode -> max_slew:float -> Ctree.Tree.t ->
  t option

(** The nominal-corner run for a source transition. *)
val nominal_run : t -> transition -> run

(** Corner identity is the {e name}, never physical equality: callers
    legitimately rebuild corner records (variation sweeps, serialisation
    round-trips), so matching runs to corners with [==] silently drops
    them. Every consumer of {!run.corner} should compare through this. *)
val corner_equal : Tech.Corner.t -> Tech.Corner.t -> bool

(** [ok t] — no slew violations and within the capacitance budget. *)
val ok : t -> bool

val eval_count : unit -> int
val reset_eval_count : unit -> unit

val pp_summary : Format.formatter -> t -> unit

(** Cross-session stage-result store for long-lived processes (the serve
    daemon): a {!Cache.Shared} table of solved stage results under the
    same content-derived [(fingerprint, r_drv, s_drv)] keys the per-slot
    caches use, plus one of backward-Euler factorisations that the
    sessions' {!Transient.Fcache}s read through. Result arrays are
    written once and only read afterwards, so sharing them across
    domains is race-free.

    {b Caveat}: the keys do not encode the evaluation config — every
    session attached to one store must be numerically identical (same
    engine, transient step and mode, flatness). Owners enforce this by
    keying stores per config family; [Flow] additionally skips the store
    on degraded retries, whose relaxed kernel settings would otherwise
    poison the shared entries. *)
module Store : sig
  type t

  (** An empty store: at most 262144 stage results and 16384
      factorisations, each table in 16 independently locked stripes. A
      full stripe evicts one cold entry per insertion (see {!Cache}). *)
  val create : unit -> t

  (** A per-request view of a store: the same shared tables, plus this
      request's own atomic hit/miss counters — so concurrent requests
      each report their own cross-request reuse. *)
  type handle

  val handle : t -> handle

  (** Store lookups this handle answered from the shared table /
      had to compute. *)
  val hits : handle -> int

  val misses : handle -> int

  (** Live stage results across all stripes (takes each stripe lock). *)
  val length : t -> int

  (** Stage results evicted since creation. *)
  val evictions : t -> int

  (** Drop all shared state, factorisations included. *)
  val clear : t -> unit
end

type cache_stats = {
  hits : int;            (** stage solves answered from cache *)
  misses : int;          (** stage solves that ran an engine *)
  refreshes : int;       (** total {!Incremental.refresh} calls *)
  fast_refreshes : int;  (** refreshes short-circuited by the revision memo *)
  dirty_refreshes : int;
      (** refreshes that re-extracted only journal-dirtied stages *)
  entries : int;         (** live cached stage results across all slots *)
  factored_entries : int;
      (** live backward-Euler factorisations across all per-job caches *)
  store_hits : int;
      (** local misses answered by the shared {!Store} (0 when detached) *)
  store_misses : int;    (** local misses the shared store missed too *)
}

(** A journaled edit: the tree revision it started from and the node ids
    it touched (see {!Ctree.Tree.Journal.touched}). Passed to
    {!Incremental.refresh} / {!Incremental.note_edits}, it lets a session
    chain edits from the state it last saw and re-extract only the dirty
    stages instead of re-fingerprinting the whole tree. *)
type edit_hint = { base_revision : int; nodes : int list }

(** Session-based incremental evaluation.

    A session owns per-(corner × transition) caches of stage results keyed
    by the stage's content fingerprint (see {!Rcnet.fingerprint}) and the
    driver parameters, plus — for the [Spice] engine — a table of
    backward-Euler factorisations reusable across driver resistances.
    [refresh] recomputes only stages whose electrical content or launch
    conditions changed since any earlier refresh and is numerically
    identical to a from-scratch {!evaluate} with the same engine and
    [seg_len]; see doc/EXTENDING.md for the invalidation rules.

    Sessions are not thread-safe: call [refresh] from one domain at a
    time. Internally, refresh groups the corner × transition passes into
    jobs — with the boxed [Spice] kernel a corner's Rise and Fall march
    in lockstep and solve the stages both miss as one
    {!Transient.solve_pair}; otherwise one pass per job — and may fan the
    jobs out over a small domain pool ([parallel], default true). Each
    pass owns its cache slot and each job its kernel state, so results,
    hits and misses are deterministic and identical to running the passes
    one after another. *)
module Incremental : sig
  type session

  (** [create tree] prepares a session; no evaluation happens yet.
      [engine]/[flat]/[seg_len]/[transient_step]/[transient_mode] default
      like {!evaluate}.

      Every session keeps a {!Ctree.Arena} snapshot and an {!Rcflat}
      stage pool alongside its caches, for every engine: a full refresh
      recompiles them in place (reusing the grown buffers) and the
      dirty-set fast path patches only the touched arena nodes and
      re-extracts the dirty stages inside the pool. [flat] only picks
      the [Spice] march kernel, as in {!evaluate}. A parallel refresh
      fans the jobs out over the domain pool; with
      [flat] it instead batches each stage-DAG level's cache misses into
      contiguous index-range chunks across the domain pool. Flat results
      agree with the boxed kernel's to sub-femtosecond (~1e-6 ps at
      100K-node stages).

      [store] attaches a shared {!Store} handle: slot-cache misses
      consult the shared table before running an engine, computed
      results are published back, and the per-job factorisation caches
      read through the store's shared factorisation table. See the
      {!Store} caveat on numerically-identical configs. *)
  val create :
    ?engine:engine -> ?flat:bool -> ?seg_len:int -> ?parallel:bool ->
    ?transient_step:float -> ?transient_mode:Transient.mode ->
    ?store:Store.handle -> Ctree.Tree.t -> session

  (** Re-evaluate the session's tree, reusing every cached stage that
      still matches. [?tree] rebinds the session to a replacement tree
      (e.g. after {!Ctree.Tree.compact}); caches carry over because keys
      are content-derived, not id-derived. Counts as one evaluator run.

      [?edits] is the dirty-set fast path: when the hint's
      [base_revision] matches the revision the session's stage extraction
      describes (its anchor, advanced by {!note_edits}), only the stages
      containing the hinted nodes' parent wires (plus the driven stage of
      any hinted buffer) are re-extracted and re-fingerprinted; all other
      stages are answered from the per-slot caches, and the downstream
      arrival cone is recomputed by the propagation itself. A stale or
      unmappable hint silently falls back to a full extraction, so the
      result is always identical to a refresh without the hint. *)
  val refresh : ?tree:Ctree.Tree.t -> ?edits:edit_hint -> session -> t

  (** Report tree mutations that happened {e without} a refresh — a
      rolled-back speculative edit, or a winner journal replayed onto
      this session's tree. [edits = Some h] with [h.base_revision] equal
      to the session's anchor extends the anchor chain to
      [new_revision] and accumulates [h.nodes] into the pending dirty
      set; [None] (or a mismatched base) drops the anchor so the next
      refresh does a full extraction. Never evaluates. *)
  val note_edits :
    session -> edits:edit_hint option -> new_revision:int -> unit

  val stats : session -> cache_stats
end
