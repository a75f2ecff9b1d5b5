(** Backward-Euler transient simulation of a driver stage — the
    ngSPICE/HSPICE substitute — with an adaptive multi-rate stepping
    controller.

    The stage's RC tree is driven through the Thevenin resistance [r_drv]
    by a saturated 0→1 ramp with 10–90 % slew [s_drv]. Each timestep solves
    the tree-structured linear system exactly in O(n) (one leaf-elimination
    factorisation reused across steps). Tap voltages are monitored and the
    10/50/90 % crossing times recovered by linear interpolation.

    In the adaptive modes the kernel fine-steps only through the driver
    ramp and the narrow windows that bracket a watched threshold crossing;
    everything in between is covered by a trio of coarse backward-Euler
    marches (steps [mult·h], [mult·h/2], [mult·h/4]) whose states are
    extrapolated in the step size down to the fine step at every coarse
    boundary (quadratic Richardson, residual [O(mult³h³/τ²)]). A
    bracketed window is rewound to its extrapolated entry state and
    re-integrated at the fine step, so reported latencies and slews track
    the fixed-fine-step reference within ≤ 0.05 ps (see
    doc/EXTENDING.md, "Transient kernel"). *)

(** A leaf-elimination factorisation of a stage's RC matrix for a fixed
    timestep. The driver conductance is deliberately excluded — it only
    enters the root diagonal, which is reconstructed at solve time — so
    one factorisation serves every [r_drv] the optimizer tries. *)
type factored

(** Factor a stage for timestep [step] ps (default 0.5). O(n). *)
val factor : ?step:float -> Rcnet.t -> factored

(** Reusable, growable scratch buffers (node-voltage states, residuals,
    frontier bookkeeping). A workspace may be reused across stages and
    calls of any size — arrays grow on demand and are fully re-initialised
    by each call, so results never depend on what ran before. Not
    thread-safe: use one workspace per domain. *)
type workspace

val workspace : unit -> workspace

(** The calling domain's lazily-created workspace ([Domain.DLS]) — the
    fallback used by {!solve}/{!simulate} when no [?ws] is passed, so
    ad-hoc solves on one domain reuse the grown arrays across calls. *)
val domain_workspace : unit -> workspace

(** Two distinct workspaces of the calling domain, lazily created, for
    the two lanes of a {!solve_pair}: the first is
    {!domain_workspace}. *)
val domain_workspace_pair : unit -> workspace * workspace

(** Per-(stage, step) factorisation cache keyed by {!Rcnet.fingerprint}.
    The backward-Euler factor depends on the timestep, so each rate of the
    multi-rate kernel gets its own entry. A {!Cache.t} of [cap] entries
    (default 4096), so at the cap one cold entry makes room (see
    {!Cache} for the policy). Not thread-safe: use one cache per
    domain. *)
module Fcache : sig
  type t

  (** [store] attaches a shared factorisation table (the one an
      {!Evaluator.Store} owns): local misses consult it before
      factoring, and local factorisations are published to it, so warm
      factorisations outlive the cache. [factored] values are immutable
      once built, so sharing them across domains is race-free. *)
  val create :
    ?cap:int -> ?store:(int64 * float, factored) Cache.Shared.t -> unit -> t

  (** [get c rc ~step] returns the cached factorisation for [rc] at
      [step], computing and storing it on a miss. [fp] supplies a
      precomputed fingerprint of [rc] (callers that already hashed the
      stage avoid a second O(n) pass). *)
  val get : t -> ?fp:int64 -> Rcnet.t -> step:float -> factored

  val length : t -> int
  val clear : t -> unit
end

(** Stepping controller.

    - [Fixed]: the classic single-rate march at [step]; the accuracy
      reference.
    - [Adaptive { mult }]: coarse step [mult·step] (mult is rounded down
      to even; values < 2 mean [Fixed]).
    - [Auto { max_mult }]: pick [mult] per stage from its time constants
      (the smallest watched first moment, an Elmore/dominant-pole
      estimate), capped at [max_mult]. Stages too stiff to profit fall
      back to [Fixed]. *)
type mode =
  | Fixed
  | Adaptive of { mult : int }
  | Auto of { max_mult : int }

val default_step : float

(** [Auto { max_mult = 32 }] — the default for {!solve} and {!simulate}. *)
val default_mode : mode

(** The coarse-window multiple a march of [rc]'s taps from driver [r_drv]
    resolves to under [mode] (default {!default_mode}): 1 for a
    fine-only march, else the even [mult] of its [mult·step] windows. *)
val march_rate : ?step:float -> ?mode:mode -> Rcnet.t -> r_drv:float -> int

(** What one {!simulate} march did. [solves] counts linear-system solves
    actually performed (fine + coarse); [fine_equiv] is what a [Fixed]
    march over the same span would have taken, so [fine_equiv - solves]
    is the saving. [truncated] is set when the march hit its step budget
    with crossings still pending — the corresponding results are reported
    as [infinity] by {!solve} and are genuinely unknown rather than
    merely slow. *)
type march = { solves : int; fine_equiv : int; truncated : bool }

(** Cumulative cross-call kernel counters (atomic, safe to read from any
    domain). [total_saved] may be slightly negative on pathological
    inputs where the coarse overhead outweighs the skipped steps. *)
type counters = {
  total_solves : int;
  total_saved : int;
  total_truncations : int;
}

val counters : unit -> counters

(** Run the march, reporting each 10/50/90 % crossing of a watched node
    through [on_cross (watch_slot, threshold_index, time)]. [factored]
    must match [step] (within 1e-9 relative — steps composed
    arithmetically are accepted); coarse-rate factorisations are taken
    from [fcache] when given, recomputed otherwise. [max_steps] bounds
    the march in fine-step equivalents (default 2,000,000).
    @raise Invalid_argument if the factorisation's timestep genuinely
    disagrees with [step]. *)
val simulate :
  ?step:float -> ?mode:mode -> ?factored:factored -> ?fcache:Fcache.t ->
  ?fp:int64 -> ?ws:workspace -> ?max_steps:int -> Rcnet.t ->
  r_drv:float -> s_drv:float -> watch:int array ->
  on_cross:(int -> int -> float -> unit) -> march

(** Per-tap [(delay, slew)] in ps: delay from the driver ramp's 50 % point
    to the tap's 50 % crossing; slew is the 10–90 % interval. Indexed like
    [rc.taps]. Taps whose march truncated are [(infinity, infinity)];
    [max_steps] is {!simulate}'s budget. *)
val solve :
  ?step:float -> ?mode:mode -> ?factored:factored -> ?fcache:Fcache.t ->
  ?fp:int64 -> ?ws:workspace -> ?max_steps:int -> Rcnet.t -> r_drv:float ->
  s_drv:float -> (float * float) array

(** Two drives of one stage — a corner's rise and fall passes — solved
    together: [solve_pair ~ws:(wa, wb) rc ~r_drv:(ra, rb) ~s_drv:(sa, sb)]
    returns, bit for bit, what [solve ~ws:wa rc ~r_drv:ra ~s_drv:sa] and
    [solve ~ws:wb rc ~r_drv:rb ~s_drv:sb] would, and moves {!counters}
    by the same amounts. The lanes share two-lane sweeps, each lane with
    its own driver, ramp, state and crossing scan:
    - when both drives resolve to a fine-only march ([Fixed], or an
      [Auto] stage too stiff to coarsen), every step until the faster
      lane finishes;
    - otherwise each lane runs its own multi-rate march, and a step is
      fused when both lanes' pending steps use the same factorisation —
      by identity: the shared fine one (lead-ins, rewinds, a fine-only
      partner) or a coarse rate both took from [fcache]. Without
      [fcache] coarse rates are factored per lane, so only fine steps
      fuse. Any other step runs alone on the single-lane kernel.
    The lane with steps left finishes alone. The two workspaces must be
    distinct.
    @raise Invalid_argument on a shared workspace, or when [rc]'s parents
    are not topological or a factorisation does not fit [rc]. *)
val solve_pair :
  ?step:float -> ?mode:mode -> ?fcache:Fcache.t -> ?fp:int64 ->
  ?max_steps:int -> ws:workspace * workspace -> Rcnet.t ->
  r_drv:float * float -> s_drv:float * float ->
  (float * float) array * (float * float) array

(** Full waveform probe for tests: voltages of a chosen rc node sampled at
    the given times, always at the fixed fine rate. Times may be in any
    order; probe times beyond the last simulated step return the final
    node voltage. Passing [factored]/[fcache] reuses factorisations like
    {!solve}. *)
val probe :
  ?step:float -> ?factored:factored -> ?fcache:Fcache.t -> ?fp:int64 ->
  ?ws:workspace -> Rcnet.t -> r_drv:float -> s_drv:float -> node:int ->
  times:float array -> float array

(** The streaming kernel over an {!Rcflat} stage pool.

    Same backward-Euler march and the same multi-rate controller
    (literally shared code), but the forward/backward sweeps are tight
    loops of [unsafe_get]/[unsafe_set] over flat memory with both
    per-node divisions precomputed at factor time, the residual
    initialisation fused into the sweeps, and zero per-step allocation.
    The factored arrays are permuted into breadth-first level order, so
    the parent-hop dependency chains of the sweeps span levels and every
    node within a level is independent — throughput-bound multiply-adds
    instead of one latency chain per wire. The permutation reorders the
    residual accumulation and the reciprocal differs from the boxed
    division by 1 ulp per operation, so crossing times drift from the
    boxed reference at the rounding level: sub-femtosecond, observed
    ~1e-6 ps at 100K-node stages. Fingerprints, rate selection and
    cache keys are bit-identical, so a flat and a boxed evaluation of
    the same tree take the same adaptive decisions. *)
module Flat : sig
  type ffactored

  val factor : Rcflat.t -> si:int -> step:float -> ffactored

  (** Per-(stage, step) factorisation cache, keyed by the pool's
      fingerprints — equal to the boxed {!Fcache} keys. *)
  module Fcache : sig
    type t

    val create : ?cap:int -> unit -> t
    val get : t -> Rcflat.t -> si:int -> step:float -> ffactored
    val length : t -> int
    val clear : t -> unit
  end

  (** Everything a march needs besides mutable scratch: the resolved
      rate [mult] and the factorisation handles for every rate. {!prep}
      touches the shared {!Fcache}; {!solve_prepped} touches only the
      workspace it is given — so preps run serially and the prepped
      solves fan out across domains with no shared mutable state. *)
  type prepped

  val prep :
    ?step:float -> ?mode:mode -> fcache:Fcache.t -> scratch:workspace ->
    Rcflat.t -> si:int -> r_drv:float -> prepped

  (** Flat analogue of {!solve} with the march state pre-resolved:
      per-tap [(delay, slew)], indexed like the stage's tap arrays. *)
  val solve_prepped :
    ?step:float -> ?max_steps:int -> ws:workspace -> Rcflat.t -> si:int ->
    prepped:prepped -> r_drv:float -> s_drv:float -> (float * float) array

  (** [prep] + [solve_prepped] in one call — the sequential path. *)
  val solve :
    ?step:float -> ?mode:mode -> ?max_steps:int -> fcache:Fcache.t ->
    ?ws:workspace -> Rcflat.t -> si:int -> r_drv:float -> s_drv:float ->
    (float * float) array
end
