(** Speculative parallel candidate search for the IVC loops.

    A speculation context owns the {e main} tree plus, when [width > 1],
    [width] content-identical {e replica} trees, each paired with its own
    incremental evaluation session (passed in as {!hooks}). A round hands
    K candidate mutations to {!explore_first}: each candidate is applied
    to a lane's tree under a {!Ctree.Tree.Journal}, evaluated (the
    journal's touched set feeds the session's dirty-set fast path), and
    rolled back — O(edit), no tree copies. The first candidate the
    caller's rule admits wins, and {!commit} replays the winner's
    journal onto the main tree and every replica, so all lanes stay
    bit-identical. Parallel batches run on the replicas only; the main
    lane evaluates in the serial lazy scan.

    {b Determinism}: candidates are generated before exploration, the
    evaluation of each candidate depends only on tree content (stage
    solves are content-addressed), and the winner is a pure function of
    candidate order — so any [width], including the serial [width = 1]
    mode that runs candidates on the main tree itself, produces
    bit-identical trees and evaluations. Parallelism changes only
    wall-clock time and how many losing candidates get (discarded)
    evaluations. *)

module Tree = Ctree.Tree
module Evaluator = Analysis.Evaluator

(** The evaluation interface of one lane. [eval] evaluates the lane's
    tree (forwarding a dirty {!Analysis.Evaluator.edit_hint} when the
    journaled edit qualifies); [note] reports content changes that happen
    without an evaluation (rollbacks, winner replays) so the lane's
    session can keep its anchor chain — see
    {!Analysis.Evaluator.Incremental.note_edits}. Lanes without a session
    use a [note] that ignores its arguments. *)
type hooks = {
  eval : ?edits:Evaluator.edit_hint -> Tree.t -> Evaluator.t;
  note :
    edits:Evaluator.edit_hint option -> new_revision:int -> unit;
}

type t

(** One explored candidate: its evaluation and the closed journal whose
    redo log {!commit} replays. *)
type outcome = { ev : Evaluator.t; journal : Tree.journal }

(** [create ~width ~main ~main_hooks ~slot_hooks] builds a context with
    [width] replica lanes next to the main lane. [slot_hooks] is called
    once per replica to build its session; replica sessions should be
    created with [~parallel:false] (they already run inside
    {!Analysis.Domain_pool.global}). [width <= 1] builds the serial
    context (no replicas). *)
val create :
  width:int -> main:Tree.t -> main_hooks:hooks ->
  slot_hooks:(Tree.t -> hooks) -> t

(** Serial context on [main] with no replicas: candidates run (and roll
    back) on the main tree through [hooks]. {!Flow} installs one as
    [Config.spec] until the tree identity is final, and {!Ivc} builds one
    when a pass is invoked on a tree the configured context does not
    own. *)
val serial : main:Tree.t -> hooks:hooks -> t

val main : t -> Tree.t

(** The main lane's hooks: the evaluation every {!Ivc.evaluate} under
    this context goes through. *)
val hooks : t -> hooks

(** The dirty hint a journal justifies: its base revision and touched
    nodes when every recorded edit was a value edit and nothing bypassed
    the journal; [None] otherwise (structural or inconsistent journals
    must not steer the incremental fast path). *)
val hint_of_journal : Tree.journal -> Evaluator.edit_hint option

(** First-survivor exploration: return the lowest-indexed candidate that
    [accept] admits, with its outcome — or [None] when none survives.
    Order candidates by preference (the IVC scale ladder puts the
    largest scale first). The winner is a pure function of candidate
    order, identical at every width; serial mode evaluates lazily and
    stops at the winner, parallel mode evaluates [width]-sized batches
    eagerly and discards the precomputed losers. A context whose domain
    pool has no workers (a single-core machine) falls back to the lazy
    scan — eager batches without concurrency only waste evaluations.

    A candidate that mutated its tree outside the journal cannot be
    rolled back or replayed: it is skipped and its replica is resynced
    with a deep assign before reuse — except on the main lane, which has
    no pristine source: a bypass there raises [Invalid_argument] rather
    than corrupt silently. Candidate closures receive the tree to mutate
    — the main tree in serial mode, a replica otherwise — and must route
    every mutation through the public {!Ctree.Tree} mutators. An
    exception from a candidate propagates after its lane is restored (or
    marked stale).

    [measured] receives every evaluated outcome of the deterministic
    prefix (the candidates the serial scan would evaluate: everything
    up to and including the winner), in index order, on the caller's
    thread — so losing evaluations feed the surrogate calibration
    buffer instead of being discarded. Eager losers beyond the winner
    exist only at widths > 1 and are deliberately {e not} fed: feeding
    them would make the calibration state width-dependent.

    [lazy_only] (default false) forces the serial lazy scan on the main
    lane even when replica lanes exist — the machine-independent
    schedule surrogate warm-up rounds require. *)
val explore_first :
  ?measured:(int -> outcome -> unit) -> ?lazy_only:bool ->
  t -> (Tree.t -> unit) array -> accept:(outcome -> bool) ->
  (int * outcome) option

(** Replay the winning outcome's journal onto the main tree and every
    in-sync replica, notifying each lane's session of the touched
    nodes. After [commit] all lanes are content-identical again. *)
val commit : t -> outcome -> unit
