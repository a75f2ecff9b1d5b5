(** Abstract binary tree topology over sink indices, generated by
    Edahiro-style rounds of nearest-neighbour matching: every round finds a
    nearest other cluster for each cluster, greedily matches disjoint pairs
    by increasing distance, and replaces matched pairs by a cluster at
    their midpoint. Cluster count roughly halves per round, so leaf depths
    stay balanced — which later gives source-to-sink paths nearly equal
    buffer counts. *)

type t = Leaf of int | Node of t * t

(** [generate positions] over at least one sink. Deterministic. [check]
    is called every 256 nearest-neighbour queries; an exception it
    raises propagates out of [generate] (a deadline check makes a
    die-scale generation interruptible). *)
val generate : ?check:(unit -> unit) -> Geometry.Point.t array -> t

val leaves : t -> int list
val depth : t -> int
val size : t -> int
