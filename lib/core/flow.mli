(** The end-to-end Contango methodology (paper Fig. 1):

    ZST/DME construction → obstacle repair → composite-buffer analysis and
    initial insertion with sizing → sink-polarity correction → [INITIAL
    evaluation] → buffer sliding/interleaving + iterative buffer sizing
    (TBSZ) → iterative top-down wiresizing (TWSZ) → iterative top-down
    wiresnaking (TWSN) → bottom-level fine-tuning (BWSN).

    Every optimization is wrapped in Improvement- & Violation-Checking;
    the per-step trace is the data behind the paper's Table III.

    Each stage additionally runs under a retry umbrella: on an exception,
    a {!Analysis.Numerics.Numerical_failure} or a structural invariant
    violation, the tree is rolled back to the stage entry state and the
    stage re-runs in degraded mode (serial speculation and the fixed-rate
    transient reference march, then additionally a halved timestep on
    the boxed kernel), up to {!Config.t.max_stage_retries} times.
    Degraded rungs change evaluation numerics only: every evaluation, in
    {!run} and {!run_regional} alike, goes through an
    {!Analysis.Evaluator.Incremental} session. Completed stages can be
    persisted as verified checkpoints and resumed after a crash. *)

(** The two extra steps belong to {!run_regional} only: [Stitch] is the
    evaluation of the grafted global tree, [Polish] the measured
    cross-region balancing loop that follows. The monolithic {!run} never
    emits them. *)
type step = Initial | Tbsz | Twsz | Twsn | Bwsn | Stitch | Polish

val step_name : step -> string

(** Inverse of {!step_name}; [None] for unknown names. *)
val step_of_name : string -> step option

type trace_entry = {
  step : step;
  skew : float;     (** nominal skew after the step, ps *)
  clr : float;      (** CLR after the step, ps *)
  t_max : float;    (** max sink latency, ps *)
  eval_runs : int;  (** cumulative evaluation ("SPICE") runs so far *)
  seconds : float;  (** cumulative wall-clock seconds *)
  cache_hits : int;
      (** incremental-session stage-cache hits during this step alone —
          like every other counter below, a per-step delta, so streamed
          telemetry lines sum to the session totals. Deltas start where
          the driver's steps begin: tree construction before [Initial]
          and the region and top flows before [Stitch] belong to no
          step *)
  cache_misses : int;
      (** stage solves that ran an engine during this step alone *)
  step_seconds : float;  (** wall-clock seconds spent in this step alone *)
  kernel_solves : int;
      (** transient-kernel linear solves during this step (fine + coarse;
          see {!Analysis.Transient.counters}). The kernel counters are
          process-global: when several flows run concurrently (the suite
          runner's parallel instances) the per-step split between them is
          approximate *)
  kernel_saved : int;
      (** fine-step-equivalents the adaptive stepping skipped this step;
          0 under [Transient.Fixed] or non-[Spice] engines *)
  kernel_truncations : int;
      (** marches that hit their step budget with crossings pending this
          step — the stages behind any [infinity] latencies *)
  attempts : int;
      (** IVC candidate attempts during this step (see {!Ivc.attempts});
          speculative ladder rungs count individually, so the value is
          identical at every speculation width. [Polish] adds its tap
          rounds *)
  accepts : int;  (** accepted candidates during this step *)
}

(** A structured stage-failure record. [inc_action] is one of
    ["retry-degraded"] (the stage re-runs one rung down the degraded
    ladder), ["gave-up"] (retries exhausted; the failure propagates),
    ["deadline"] (cooperative deadline — never retried) or
    ["checkpoint-skipped"] (the stage succeeded but its state was not
    persisted: non-finite headline metrics or an I/O failure). *)
type incident = {
  inc_step : step;
  inc_attempt : int;  (** 0 = first attempt, 1.. = degraded retries *)
  inc_error : string;
  inc_action : string;
}

(** Per-stage metrics persisted in checkpoints; [m_slew_waived] /
    [m_cap_waived] record that the stage was checkpointed despite
    slew/cap violations (they never block a checkpoint — non-finite
    metrics do). *)
type stage_meta = {
  m_step : step;
  m_skew : float;
  m_clr : float;
  m_t_max : float;
  m_slew_waived : bool;
  m_cap_waived : bool;
}

type result = {
  tree : Ctree.Tree.t;
  trace : trace_entry list;      (** one entry per step, in flow order *)
  final : Analysis.Evaluator.t;  (** evaluation after the last step *)
  chosen_buf : Tech.Composite.t;
  polarity : Polarity.report;
  repair : Route.Repair.report option;  (** present when obstacles given *)
  incidents : incident list;     (** stage failures, in occurrence order *)
  eval_runs : int;               (** total evaluation runs consumed *)
  seconds : float;
  surrogate : Analysis.Surrogate.stats option;
      (** calibration telemetry of this run's surrogate state, when
          [config.surrogate] armed ranking ([None] otherwise, and for
          stitched regional results — each region run reports its own) *)
}

(** Verified on-disk flow checkpoints: one [<STEP>.ckpt] per completed
    stage, written atomically with a checksum trailer
    ({!Persist.write_atomic_checked}), containing the flow metadata
    (chosen composite, polarity/repair reports, per-stage metrics) and
    the canonical tree text ({!Ctree.Tree.to_string}). *)
module Checkpoint : sig
  type loaded = {
    ck_step : step;
    ck_tree : Ctree.Tree.t;
    ck_buf : Tech.Composite.t;
    ck_polarity : Polarity.report;
    ck_repair : Route.Repair.report option;
    ck_metas : stage_meta list;  (** in flow order, [ck_step] last *)
  }

  (** [<dir>/<STEP>.ckpt]. *)
  val path : dir:string -> step -> string

  (** Atomically persist a stage checkpoint (creates [dir] as needed). *)
  val save :
    dir:string -> step:step -> tree:Ctree.Tree.t ->
    buf:Tech.Composite.t -> polarity:Polarity.report ->
    repair:Route.Repair.report option -> metas:stage_meta list -> unit

  (** Read and verify one checkpoint file: checksum, format, tree parse
      and {!Ctree.Validate.check} all gate the result. Never raises. *)
  val load : tech:Tech.t -> string -> (loaded, string) Stdlib.result

  (** Latest loadable checkpoint in [dir] (BWSN first, INITIAL last);
      missing, torn or corrupt files are skipped, so a damaged late
      checkpoint degrades the resume rather than failing it. *)
  val load_latest : tech:Tech.t -> dir:string -> loaded option
end

(** Run the whole methodology. [obstacles] defaults to none.

    [on_step] is invoked with each trace entry the moment the step
    finishes (INITIAL, TBSZ, …), before the next step starts — the hook
    behind the suite runner's streamed JSONL telemetry, so a run that
    later crashes or times out has still reported every completed step.
    An exception raised by [on_step] aborts the run and propagates.

    [on_incident] is invoked with each {!incident} as it is recorded
    (including ones whose failure ultimately propagates).

    [checkpoint_dir] enables verified per-stage checkpoints. With
    [resume] also set, the run first loads the latest checkpoint from
    [checkpoint_dir] and skips every completed stage (replaying their
    trace entries through [on_step] with zeroed per-step counters);
    because evaluations are content-derived, an interrupted run resumed
    this way converges to a final tree bit-identical to the
    uninterrupted one. With [resume] and no loadable checkpoint the run
    starts from scratch.

    @raise Ivc.Deadline_exceeded between evaluations once
    [config.deadline] has passed (recorded as an incident first, never
    retried).
    @raise Invalid_argument when [config.speculation] is negative. *)
val run :
  ?config:Config.t -> ?on_step:(trace_entry -> unit) ->
  ?on_incident:(incident -> unit) -> ?checkpoint_dir:string ->
  ?resume:bool -> tech:Tech.t -> source:Geometry.Point.t ->
  ?obstacles:Geometry.Rect.t list -> Dme.Zst.sink_spec array -> result

(** Stages before any optimization — ZST, repair, insertion, polarity —
    exposed so baselines and experiments can start from the same initial
    tree. Returns the initial buffered, polarity-correct tree. *)
val initial_tree :
  ?config:Config.t -> tech:Tech.t -> source:Geometry.Point.t ->
  ?obstacles:Geometry.Rect.t list -> Dme.Zst.sink_spec array ->
  Ctree.Tree.t * Tech.Composite.t * Polarity.report * Route.Repair.report option

(** What one region of a regional run did: the region's standalone flow
    result condensed. [rg_eval_runs] and [rg_seconds] are the region
    flow's own totals (regions run concurrently, so the seconds overlap
    and do not sum to the wall clock). *)
type region_report = {
  rg_index : int;      (** position in {!Partition.split} order *)
  rg_sinks : int;
  rg_skew : float;     (** region-local nominal skew, ps *)
  rg_clr : float;
  rg_t_max : float;
  rg_seconds : float;
  rg_eval_runs : int;
  rg_incidents : int;
}

type stitch_report = {
  st_regions : region_report list;
  st_predicted_skew : float;
      (** global skew predicted by {!Analysis.Regional.combine} from the
          regional results and the measured top-tree tap latencies, before
          the stitched tree was first evaluated *)
  st_rounds : int;      (** polish rounds run (accepted or not) *)
  st_max_pad_ps : float;
      (** largest initial per-region delay-padding target
          ({!Analysis.Regional.pad_targets}) *)
}

type regional_result = {
  r_flow : result;
      (** the stitched global tree and its trace; the trace carries one
          [Stitch] and one [Polish] entry (region stages are not
          re-streamed — each region already has its own checkpointed
          flow) *)
  r_stitch : stitch_report option;
      (** [None] when the run degenerated to the monolithic flow
          (regions <= 1 after clamping) or was fast-resumed from a
          POLISH checkpoint *)
}

(** [run_regional] — the partitioned variant of {!run}:
    {!Partition.split} cuts the sinks into [config.regions]
    capacity-balanced cells (clamped so no region gets fewer than two
    sinks); every region runs the full monolithic flow concurrently on a
    dedicated domain pool ([jobs] workers, default
    [Domain.recommended_domain_count () - 1]), sourced at its centroid;
    a top-level tree is synthesized over one pseudo-sink per region
    (loaded with the regional root buffer's input pin, carrying its
    inversion parity) and the regional trees are grafted onto its taps
    ({!Ctree.Tree.graft}); finally a measured polish loop snakes the
    top-level tap feeds ({!Config.t.damping}-damped, journaled,
    improvement-checked) until the stitched nominal skew falls below
    [config.stitch_skew_ps] or the moves stop helping.

    With [config.regions <= 1] (or after clamping) this is exactly
    {!run} — bit-identical result, [r_stitch = None].

    The result is deterministic for a given sink set and configuration
    regardless of [jobs]: the partition is deterministic, region flows
    are independent, and the polish loop is serial.

    [checkpoint_dir] gives every region flow its own subdirectory
    ([region_<i>/]), the top flow [top/], and the finished stitched tree
    a POLISH checkpoint in [checkpoint_dir] itself. With [resume], a
    loadable POLISH checkpoint short-circuits the whole run (one
    verification evaluation); otherwise regions and the top flow resume
    from their own latest checkpoints and the stitch/polish re-runs.

    [on_step] receives the [Stitch] and [Polish] trace entries;
    [on_incident] receives region and top incidents (forwarded serially
    after each flow finishes) and stitch-phase incidents as they occur. *)
val run_regional :
  ?config:Config.t -> ?on_step:(trace_entry -> unit) ->
  ?on_incident:(incident -> unit) -> ?checkpoint_dir:string ->
  ?resume:bool -> ?jobs:int -> tech:Tech.t -> source:Geometry.Point.t ->
  ?obstacles:Geometry.Rect.t list -> Dme.Zst.sink_spec array ->
  regional_result
