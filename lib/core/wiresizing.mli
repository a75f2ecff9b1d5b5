(** Iterative top-down wiresizing (paper §IV-E, Algorithm 1) — "TWSZ".

    A single probing evaluation estimates T_ws, the worst latency increase
    per nm of downsized wire, by downsizing a few independent mid-tree
    segments (the impact of sizing a short segment is linear because the
    affected R and C never share an RC term). Each round then walks the
    tree top-down carrying the slack already consumed on the path (RSlack)
    and downsizes every wire whose remaining slow-down slack exceeds the
    estimated impact. Rounds repeat until no improvement or a slew
    violation (IVC). *)

type result = {
  eval : Analysis.Evaluator.t;  (** evaluation after the last kept round *)
  rounds : int;                 (** accepted rounds *)
  downsized : int;
      (** downsize operations attempted across rounds (the final rejected
          round, if any, was rolled back) *)
  tws : float;                  (** estimated T_ws, ps per nm *)
}

(** Estimate with one extra evaluation (restores the tree): the pair
    (T_ws, correction) — the paper's scalar (worst per-nm latency
    increase) and the measured/predicted calibration factor for the
    per-edge sensitivities. (0, 1) when the technology has a single wire
    class. *)
val estimate_tws :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t -> float * float

(** Run TWSZ in place. *)
val run :
  Config.t -> Ctree.Tree.t -> baseline:Analysis.Evaluator.t -> result

(** One top-down downsizing pass of Algorithm 1 (no IVC) — the apply
    half of a TWSZ round, exposed for experiments. [slacks], [headrooms]
    and [sens] are the round plan's analyses ({!Slack.combined},
    {!Probes.subtree_slew_headroom}, {!Probes.sensitivities}); [count]
    accumulates the downsize operations. Value edits only. *)
val downsizing_pass :
  Config.t -> Ctree.Tree.t -> slacks:Slack.t -> headrooms:float array ->
  sens:Probes.sens -> correction:float -> scale:float -> count:int ref ->
  unit
