(** Iterative buffer sizing (paper §IV-I) — the sizing half of "TBSZ".

    Trunk first: at iteration i the trunk composites are scaled up by at
    most p_i = 100/(i+3) %, iterating under IVC on the CLR objective while
    results improve without slew violations. Branch buffers within the
    first few levels after the first branch are then sized up with
    *capacitance borrowing*: the added input capacitance is paid for by
    downsizing bottom-level buffers, keeping total power in check. Buffer
    sizing deliberately trades nominal skew for CLR; the subsequent wire
    optimizations bring skew back down (Table III). *)

type result = {
  eval : Analysis.Evaluator.t;
  trunk_rounds : int;
  branch_rounds : int;
}

(** Buffers with no buffer descendants (the bottom level, donors for
    capacitance borrowing). *)
val bottom_buffers : Ctree.Tree.t -> int list

val run :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t -> result

(** Skew-objective speed-up rounds (§III-B: speed-up before slow-down):
    upsize the buffers driving critical subtrees (small slow-down slack),
    reducing the worst latency instead of burning slew headroom on the
    fast side. Returns the final evaluation and accepted rounds. *)
val speedup :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t ->
  Analysis.Evaluator.t * int

(** One speed-up apply (no IVC): upsize, by [1 + 0.2 * scale], every
    buffer whose slow-down slack is below a quarter of the skew and
    whose Elmore gain clearly beats its input-cap cost. [slacks]/[sens]
    come from the round's plan. Buffer rescales only (value edits). *)
val speedup_pass :
  Config.t -> Ctree.Tree.t -> slacks:Slack.t -> sens:Probes.sens ->
  scale:float -> unit
