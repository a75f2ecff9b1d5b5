(** Struct-of-arrays snapshot of a {!Tree} for the flat evaluation path.

    Topology lives in dense [parent]/[first_child]/[next_sibling] index
    arrays (sibling order preserves the tree's children-list order, so a
    chain walk visits children exactly as the boxed extraction does) and
    the electrical constants are pre-resolved from the technology into
    flat float64 {!Bigarray.Array1} buffers. [Analysis.Rcflat] compiles
    RC stages straight from these arrays.

    The snapshot carries the {!Tree.revision} it reflects. {!sync} is a
    no-op while the revision still matches, applies a touched-node patch
    when the caller passes the journal's touched set, and recompiles from
    scratch otherwise — so a stale arena can never be read silently as
    long as callers check {!in_sync} or go through {!sync}.

    All stored electricals are exactly the values the boxed accessors
    return ([Tech.Wire.res], [Tech.Composite.c_in], …): arithmetic done
    on them downstream is bit-identical to the boxed path's. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Node kind tags stored in {!kind}. *)
val k_source : int

val k_internal : int
val k_buffer : int
val k_sink : int

type t = private {
  mutable tree : Tree.t;
  mutable revision : int;
  mutable n : int;
  mutable parent : int array;
  mutable first_child : int array;   (** -1 = leaf *)
  mutable next_sibling : int array;  (** -1 = last sibling *)
  mutable kind : int array;
  mutable len : int array;           (** electrical wire length, nm *)
  mutable xs : int array;
  mutable ys : int array;
  mutable inverting : int array;
  mutable wire_r : f64;              (** total parent-wire resistance, Ω *)
  mutable wire_c : f64;              (** total parent-wire capacitance, fF *)
  mutable tap_c : f64;               (** sink load / buffer input cap, fF *)
  mutable drv_c_out : f64;
  mutable drv_r_up : f64;
  mutable drv_r_down : f64;
  mutable drv_d_intr : f64;
  mutable drv_slew_c : f64;
}
(** The arrays are owned by the arena: treat them as read-only and do not
    retain them across {!sync} (a recompile may replace them). *)

val compile : Tree.t -> t
(** Snapshot the tree's current state. *)

val sync : ?touched:int list -> t -> unit
(** Re-synchronise with the tree. No-op when {!in_sync}. With [?touched]
    (the journal's touched node ids since the last sync) and an unchanged
    node count, only those nodes are patched — including their sibling
    chains, since a children-list edit always touches the parent. Any
    other case (size change, no hint) recompiles every node. *)

val rebind : t -> Tree.t -> unit
(** Point the arena at another tree and recompile it in place. The
    arrays are reallocated only when the new tree has more nodes than
    they hold, so a scratch arena rebound from tree to tree stops
    allocating once it has seen its largest tree. *)

val release : t -> unit
(** Rebind to a one-node placeholder tree on the same technology: the
    arena keeps its capacity but no longer keeps its last tree alive. *)

val in_sync : t -> bool
(** [revision arena = Tree.revision tree] — false means the arena is
    stale and must be {!sync}ed before use. *)

val revision : t -> int
val tree : t -> Tree.t
val size : t -> int
val root : t -> int
