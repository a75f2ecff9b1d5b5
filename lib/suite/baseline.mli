(** Greedy-CTS baseline: what a non-integrated flow produces.

    Same nearest-neighbour topology as Contango, but: centroid embedding
    instead of DME merging segments (no zero-skew balancing, no snaking),
    a fixed mid-strength composite buffer instead of the sizing sweep,
    naive per-sink polarity patching, and no slack-driven optimization at
    all. Stands in for the contest-grade comparison flows of Table IV. *)

type result = {
  tree : Ctree.Tree.t;
  eval : Analysis.Evaluator.t;
  seconds : float;
}

(** [config.deadline] is checked while the topology is generated and a
    buffer insertion runs (every few hundred sinks or nodes), before every
    insertion try and before every evaluation.
    @raise Core.Ivc.Deadline_exceeded once it has passed. *)
val run :
  ?config:Core.Config.t -> Format_io.t -> result
