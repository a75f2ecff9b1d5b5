(** Initial inverter insertion with sizing (paper §IV-C).

    The fast van Ginneken variant is launched with a sequence of composite
    buffer configurations, strongest first; the chosen solution is the
    strongest configuration that evaluates without slew violations while
    staying within (1 − γ) of the capacitance budget — the γ reserve pays
    for the downstream accurate optimizations. The per-configuration
    capacitance ceiling starts at the slew-free capacitance and shrinks
    adaptively when the accurate evaluation still reports slew
    violations.

    The verdict rule, per candidate tree: with
    [max_slew = min slew_limit ((1 − slew_margin) · slew_limit)], a
    candidate whose largest tap slew over every corner and transition
    exceeds [max_slew] is rejected (ceiling × 0.7 and retry, up to 8
    times, then the next configuration); otherwise it is accepted if its
    total capacitance is at most [(1 − gamma) · cap_limit], else the
    configuration is abandoned. Candidates are evaluated with
    {!Analysis.Evaluator.screen}, so a rejected candidate stops at the
    first stage whose taps pass [max_slew] instead of paying a full
    evaluation; each candidate still counts as one evaluator run. *)

type result = {
  tree : Ctree.Tree.t;
  buf : Tech.Composite.t;       (** the chosen composite configuration *)
  ceiling : float;              (** final load-cap ceiling used, fF *)
  eval : Analysis.Evaluator.t;  (** evaluation of the chosen tree *)
  tried : int;                  (** configurations attempted *)
  repair : Route.Repair.report option;
      (** obstacle-repair report for the chosen configuration *)
}

(** Composite configurations to try, strongest (most parallel devices)
    first: the non-dominated frontier of each library device at the
    config's counts. *)
val candidates : Config.t -> Tech.t -> Tech.Composite.t list

(** @raise Failure when no configuration yields a violation-free tree
    within the power budget (callers should widen [config] knobs).
    When [obstacles] are given, each configuration first repairs the tree
    with its own slew-free capacitance ({!Route.Repair}) and buffer
    positions inside obstacles are excluded from the dynamic program. *)
val run :
  ?obstacles:Geometry.Rect.t list -> Config.t -> Ctree.Tree.t -> result
