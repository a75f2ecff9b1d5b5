(** Near-linear van Ginneken variant, in the spirit of Shi & Li's
    O(n log n) algorithm [12]: identical dynamic program, but the cap axis
    of every candidate list is quantised into [buckets] levels (best delay
    per level kept), bounding list sizes by a constant. Like the paper's
    variant it spares buffers on fast paths and yields low skew on
    balanced input trees, at a small optimality loss versus the exact
    DP. *)

exception Infeasible of string

(** [insert tree ~buf ~cap_ceiling] — [step] defaults to 100 µm, [buckets]
    to 48. [check] is called every 256 nodes the dynamic program solves;
    an exception it raises propagates out of [insert] and leaves [tree]
    untouched (a deadline check makes a long insertion interruptible).
    @raise Infeasible as for {!Vanginneken.insert}. *)
val insert :
  ?check:(unit -> unit) -> Ctree.Tree.t -> buf:Tech.Composite.t -> ?step:int -> ?buckets:int ->
  ?forbidden:(Geometry.Point.t -> bool) -> cap_ceiling:float ->
  unit -> Ctree.Tree.t

val last_inserted : unit -> int
