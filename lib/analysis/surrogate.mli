(** Calibrated surrogate model for speculative candidate ranking.

    Every candidate the IVC loops explore pays a full transient (or
    Arnoldi) evaluation today. SwiftCTS-style predictors show that a
    cheap model over features the flow already computes — per-edit
    wirelength/capacitance/drive deltas weighted by where the touched
    nodes sit in the baseline latency window — ranks candidates with
    enough fidelity to prune most of the expensive runs.

    A {!t} holds one linear model per (technology bundle × objective)
    key, calibrated online: callers feed every measured
    (features, objective delta) pair through {!observe} (a bounded ring
    buffer per key); the model refits by ordinary least squares (tiny
    ridge term for conditioning) every few observations once enough
    samples exist, and tracks its own RMS residual as a {e trust
    radius}. {!predict} returns [None] until the key is calibrated —
    consumers treat that as "evaluate everything", so a cold model can
    never change results.

    Determinism: no randomness anywhere. The model state is a pure
    function of the observation sequence, so two runs feeding identical
    pairs in identical order rank identically — the property the
    width-independence oracle tests. States are cheap, are expected to
    be per-flow (never shared across domains), and are not
    thread-safe. *)

module Tree = Ctree.Tree

(** Number of features in a vector (see {!edit_features}). *)
val dim : int

(** [snapshot tree ids] — the post-edit capture of a probe: wire
    length/cap and driver strength of each touched node, packed
    [ids]-ordered into one flat float array. Ids that do not exist on
    [tree] or are out of range contribute zeros. *)
val snapshot : Tree.t -> int list -> float array

(** Latency-position weight from a baseline evaluation: node id ↦
    position of its nominal arrival inside the [t_min, t_max] window,
    scaled to [-1, 1] (early sinks negative — added delay there {e
    reduces} skew; late sinks positive). Ids without a meaningful
    latency weigh 0. *)
val position_fn : Evaluator.t -> int -> float

(** Feature vector of one candidate edit (see doc/EXTENDING.md for the
    layout): unweighted and position-weighted deltas between [post] —
    the {!snapshot} of [ids] taken after the edit — and the same nodes'
    state read off [tree], which must be the restored pre-edit tree.
    Ids missing from [tree] (a rolled-back node insertion) read as
    zeros. *)
val edit_features :
  pos:(int -> float) -> ids:int list -> post:float array -> Tree.t ->
  float array

(** Closed-form ordinary least squares used by the refit: returns the
    [dim samples + 1] coefficient vector (bias term last) minimising
    the squared error of [x · coeffs] over the samples, with a tiny
    scale-aware ridge term for rank-deficient windows. Exposed for the
    refit-correctness fixture test. *)
val ols : (float array * float) array -> float array

type t

val create : unit -> t

(** Feed one measured pair into [key]'s ring buffer (and refit when
    due). [y] is the measured objective delta in ps (negative =
    improvement). *)
val observe : t -> key:string -> float array -> float -> unit

(** [Some (predicted_delta, trust_radius)] once [key] is calibrated;
    [None] while cold. A measured delta within
    [predicted ± trust_radius] is in-model; outside it the caller
    should count a mispredict ({!note_mispredict}) and fall back to
    evaluating the full candidate set. *)
val predict : t -> key:string -> float array -> (float * float) option

(** Margin for ruling candidates out {e without} evaluating them: the
    window RMS residual (1σ — deliberately tighter than the 3σ trust
    radius the mispredict guard uses), floored like the trust radius.
    [infinity] while [key] is cold, so a cold model never prunes. *)
val prune_radius : t -> key:string -> float

(** Persistent rank-widening for [key]: starts at 0, bumped by every
    {!note_mispredict}, added to the configured top-R so a model that
    keeps misranking pays for it with wider evaluation chunks. *)
val widening : t -> key:string -> int

val note_mispredict : t -> key:string -> unit

(** Record an in-trust ranked win for [key]: decays the {!widening} by
    one (floor 0), so a burst of mispredicts widens R quickly and a run
    of validated predictions narrows it back instead of pinning the
    search at full width forever. *)
val note_intrust : t -> key:string -> unit

(** Deterministic audit schedule for all-candidates-ruled-out rounds:
    returns [true] on every 8th call, telling the caller to evaluate the
    best-predicted candidate anyway so a drifted model keeps receiving
    corrective observations instead of silently terminating every
    loop. *)
val audit_hopeless : t -> bool

(** Telemetry counters (cumulative since {!create}). *)
type stats = {
  observations : int;   (** measured pairs fed to {!observe} *)
  refits : int;         (** OLS refits across all keys *)
  warmup_rounds : int;  (** rounds explored serially while cold *)
  ranked_rounds : int;  (** rounds that went through surrogate ranking *)
  fallbacks : int;      (** ranked rounds that evaluated beyond top-R *)
  mispredicts : int;    (** measured deltas outside the trust radius *)
  evals_saved : int;    (** candidate evaluations skipped by ranking *)
}

val stats : t -> stats
val note_warmup : t -> unit
val note_ranked : t -> unit
val note_fallback : t -> unit
val note_saved : t -> int -> unit
