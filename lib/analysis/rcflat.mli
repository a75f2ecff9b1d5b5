(** Flat RC stage pool: the evaluator's one stage representation, for
    every engine.

    Compiles every stage of a tree — walked through its
    {!Ctree.Arena} snapshot — into one contiguous pair of float64
    {!Bigarray.Array1} buffers ([res]/[cap]) plus a stage-local parent
    index array, with CSR-style per-stage offsets ([off]/[size]). The
    extraction replicates [Rcnet.build_stage]'s push order and float
    arithmetic exactly: per-stage {!fp} fingerprints equal
    [Rcnet.fingerprint] of the boxed extraction, so solve caches,
    factorisation caches and the adaptive rate selection behave
    identically on either representation. The streaming kernel
    ({!Transient.Flat}) marches a stage's slice in place; the boxed
    kernel and the model engines solve its {!stage_rc} copy.

    Within a stage the rc indices are topological (parents first), so
    the precomputed leaf-to-root elimination order for the slice at
    [off.(si)] is simply [size.(si)-1 downto 1] — the kernel streams the
    slice without chasing pointers.

    Stage regions carry slack so the incremental dirty path can
    {!update_stage} in place; a stage that outgrows its region relocates
    to the pool tail and the pool compacts itself once relocation waste
    exceeds half the pool. *)

type f64 = Ctree.Arena.f64

type t = private {
  arena : Ctree.Arena.t;
  seg_len : int;
  mutable res : f64;            (** pool, Ω per edge-to-parent *)
  mutable cap : f64;            (** pool, fF (tap loads folded in) *)
  mutable parent : int array;   (** STAGE-LOCAL parent; -1 at stage roots *)
  mutable plen : int;
  mutable wasted : int;
  mutable nstages : int;
  mutable off : int array;      (** region start per stage *)
  mutable size : int array;     (** rc node count per stage *)
  mutable slots : int array;    (** region capacity per stage *)
  mutable driver : int array;   (** ctree driver node id per stage *)
  mutable fp : int64 array;     (** = [Rcnet.fingerprint] per stage *)
  mutable watch : int array array;     (** tap rc indices, tap order *)
  mutable tap_kind : int array array;  (** 0 = sink, 1 = buffer *)
  mutable tap_node : int array array;  (** ctree node ids per tap *)
  mutable nlevels : int;
  mutable level_off : int array;
}
(** Stages are in BFS order (source stage first), identical to the
    [Rcnet.stages] list order. Level [l] of the stage DAG is the
    contiguous stage range [level_off.(l), level_off.(l+1)): stages in
    one level share no driver/launch dependency, which is what the
    batched parallel solve fans out over. Treat all arrays as read-only
    and do not retain them across {!update_stage}/{!recompile} (regions
    may move, buffers may be replaced). *)

val compile : ?seg_len:int -> Ctree.Arena.t -> t
(** Extract every stage. [seg_len] defaults to
    {!Rcnet.default_seg_len}. The arena must be in sync with its tree. *)

val recompile : t -> unit
(** Re-extract everything in place (reusing grown buffers) — the full
    refresh path after structural edits. *)

val update_stage : t -> int -> unit
(** Re-extract one stage after a value-level edit, in place when it
    still fits its region. The stage set and BFS order must be
    unchanged (structural edits require {!recompile}). *)

val nstages : t -> int

val total_nodes : t -> int
(** Live RC nodes in the pool (slack excluded via stage sizes is not
    subtracted — this counts allocated minus relocation waste). *)

val stage_rc : t -> int -> Rcnet.t
(** Materialise a boxed copy of one stage: what the evaluator hands the
    boxed transient kernel, {!Moments} and {!Elmore}. Equal field for
    field to the stage {!Rcnet.stages} extracts for the same driver, so
    [Rcnet.fingerprint (stage_rc p si) = p.fp.(si)]. O(stage size); the
    copy shares no memory with the pool. *)
