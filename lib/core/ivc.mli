(** Improvement- & Violation-Checking (the IVC boxes of Fig. 1).

    Every optimization round produces candidate mutations, re-evaluates
    them, and keeps a change only when the objective improved without
    introducing slew or capacitance violations; otherwise the tree is
    rolled back and the flow moves on.

    Candidate exploration is speculative: each candidate runs under a
    {!Ctree.Tree.Journal} (rollback is O(edit), never a tree copy) and —
    when {!Flow} installed a {!Speculate} context — candidates are
    evaluated concurrently on per-lane tree replicas. Winner selection
    is deterministic: the lowest-indexed candidate passing the IVC
    acceptance rule, a pure function of candidate order — so every
    speculation width produces bit-identical trees and evaluations.
    Width changes only wall-clock time and how many losing candidates get
    evaluated before being discarded (serial exploration stops at the
    winner). *)

type objective =
  | Skew   (** nominal skew, CLR as tie-breaker *)
  | Clr    (** CLR, nominal skew as tie-breaker *)
  | Insertion_delay  (** max sink latency (used by speed-up steps) *)

(** [better obj ~candidate ~baseline] — did the objective strictly
    improve? (Violations are checked separately.) *)
val better :
  objective -> candidate:Analysis.Evaluator.t -> baseline:Analysis.Evaluator.t ->
  bool

(** Raised by {!evaluate} (and the speculative loops, once per round)
    when [config.deadline] has passed on the monotonic clock
    ({!Monoclock.now} scale) — the cooperative cancellation used by the
    suite runner's per-instance wall-clock budget. The tree is left
    exactly as the last completed evaluation saw it. *)
exception Deadline_exceeded

(** @raise Deadline_exceeded when [config.deadline] has passed. *)
val check_deadline : Config.t -> unit

(** Process-wide counters of candidate attempts and accepted candidates
    across every IVC loop (atomic: flows and speculative evaluations run
    on domains). {!Flow} reports per-step deltas in its trace. *)
val attempts : unit -> int

val accepts : unit -> int

(** The configured evaluation: the main-lane hooks of [config.spec] when
    set ({!Speculate.hooks}; Flow points them at an incremental session),
    otherwise a from-scratch [Evaluator.evaluate] under the config's
    engine and kernel settings. Optimization passes should call this
    instead of {!Analysis.Evaluator.evaluate} directly. [?journal]
    forwards the journal's dirty hint to the session when the journaled
    edit qualifies (value-only and consistent).
    @raise Deadline_exceeded when [config.deadline] is in the past. *)
val evaluate :
  ?journal:Ctree.Tree.journal -> Config.t -> Ctree.Tree.t ->
  Analysis.Evaluator.t

(** Roll a journal back and report the rollback to the configured
    session so its dirty-anchor chain stays unbroken. Use this (not
    {!Ctree.Tree.Journal.rollback} directly) to undo exploratory edits
    made outside {!speculate} — {!Probes.calibrate}, the regional
    polish. The rollback is reported from the tree's current revision,
    so the journaled edit must already have been reported — evaluated
    with [evaluate ~journal] — or the session drops its anchor.
    @raise Invalid_argument if the journal is inconsistent. *)
val rollback : Config.t -> Ctree.Tree.t -> Ctree.Tree.journal -> unit

(** [speculate config tree ~baseline ~objective candidates] explores the
    candidates speculatively (see {!Speculate.explore_first}),
    deterministically selects the {e first} survivor in index order —
    passing the violation rules and strictly better than [baseline]; put
    the preferred candidate first — and commits it to [tree] (and every
    replica lane). Returns the winning index and its evaluation, or
    [None] when no candidate survived (the tree is then unchanged).
    A candidate introducing violations is rejected even if the objective
    improved; a baseline that already had violations only needs to not
    get worse. A one-element array is the single-candidate trial every
    {!iterate} round makes. Counts [Array.length candidates]
    attempts (submitted, identical at every width) and at most one
    accept.
    @raise Deadline_exceeded when [config.deadline] is in the past. *)
val speculate :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t ->
  objective:objective -> (Ctree.Tree.t -> unit) array ->
  (int * Analysis.Evaluator.t) option

(** Run single-candidate rounds (at most [config.max_rounds]), feeding
    each accepted evaluation back as the next baseline. [plan tree
    baseline] runs once per round on the un-mutated tree and returns the
    mutation closure — hoisting the per-round analysis out of the
    candidate application, which may run on a replica. Returns the final
    evaluation and the number of accepted rounds. *)
val iterate :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t ->
  objective:objective ->
  (Ctree.Tree.t -> Analysis.Evaluator.t -> Ctree.Tree.t -> unit) ->
  Analysis.Evaluator.t * int

(** Like {!iterate} with a damping scale: each round plans once, then
    explores the scale ladder [s, s/2, s/4, s/8] as one speculative
    candidate batch (the linear T_ws/T_wn models overshoot on large
    slacks — §IV-F notes the accuracy/rounds trade-off). The first
    surviving rung wins — serial exploration evaluates the ladder
    lazily, a try/halve/retry schedule, while parallel lanes precompute
    the smaller rungs concurrently. The
    winning rung's scale grows by 1.3× (capped at 1) for the next
    round; a round with no survivor stops the loop (the ladder is
    exactly the serial loop's four halvings). Stops after
    [config.max_rounds] total submitted candidates or when the scale
    underflows. Returns the final evaluation, accepted rounds, and
    total candidate attempts. *)
val adaptive_iterate :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t ->
  objective:objective ->
  (Ctree.Tree.t -> Analysis.Evaluator.t ->
   scale:float -> Ctree.Tree.t -> unit) ->
  Analysis.Evaluator.t * int * int
