(** Expansion of a buffered clock tree into driver stages.

    A stage is everything one driver (the clock source or a buffer output)
    sees: the RC interconnect up to — and including — the input pins of
    downstream buffers and the sink loads. Wires are segmented into π
    models so that resistive shielding is visible to the accurate
    engines. *)

type tap_kind =
  | Tap_sink of int    (** ctree node id of the sink *)
  | Tap_buffer of int  (** ctree node id of the downstream buffer *)

type t = {
  parent : int array;  (** rc-node parent; -1 for the driver output node *)
  res : float array;   (** Ω, edge to parent; unused at index of the root *)
  cap : float array;   (** grounded capacitance, fF (loads included) *)
  taps : (int * tap_kind) array;  (** rc node index paired with the tap *)
  size : int;
}

type stage = {
  driver : int;  (** ctree node id of the source or buffer driving this stage *)
  rc : t;
}

(** Default RC segmentation granularity, nm (30 µm) — the single source
    of truth; [Core.Config.default.seg_len] and the [--seg-len] CLI flag
    default to it. *)
val default_seg_len : int

(** All stages of a tree in topological order (the source stage first, each
    buffer's stage after the stage containing that buffer's input).
    [seg_len] is the maximum wire-segment length in nm (default
    {!default_seg_len}).

    This is the reference extraction, walked straight off the tree. The
    evaluator does not call it: it extracts the same stages, in the same
    order and bit for bit, into an {!Rcflat} pool. Tests use it as the
    oracle for that pool, and [Mesh.Crosslink] and the benchmarks use it
    directly. *)
val stages : ?seg_len:int -> Ctree.Tree.t -> stage list

(** Content hash (64-bit FNV-1a) of a stage's electrical identity:
    topology, element values and tap layout. Ctree node ids carried by the
    taps are excluded so the fingerprint survives tree compaction. Two
    stages with equal fingerprints produce identical engine results for
    the same driver parameters (modulo the astronomically unlikely
    collision). *)
val fingerprint : t -> int64

(** Total downstream capacitance of the stage (wires + loads), fF.
    Excludes the driver's own output parasitic. *)
val total_cap : t -> float
