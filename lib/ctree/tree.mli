(** The buffered clock tree: a mutable rooted tree over layout nodes.

    Every non-root node owns the wire from its parent: a wire class, a
    geometric (routed) length, an optional snaked extension, and an
    embedding (L-bend choice or explicit detour polyline). Buffers are
    nodes carrying a composite inverter; sinks carry a load capacitance and
    a required signal parity.

    The structure supports the surgery the Contango flow needs: splitting
    wires, inserting/removing buffers, sliding buffers along their wire
    span, deep copies for IVC rollback. Node ids are dense and stable —
    surgery only adds nodes or changes node kinds in place. *)

open Geometry

type sink = {
  cap : float;         (** load capacitance, fF *)
  parity : int;        (** required number of inversions mod 2 from source *)
  label : string;
}

type kind =
  | Source
  | Internal
  | Buffer of Tech.Composite.t
  | Sink of sink

type node = {
  id : int;
  mutable kind : kind;
  mutable pos : Point.t;
  mutable parent : int;     (** -1 for the root *)
  mutable children : int list;
  mutable wire_class : int; (** index into tech wire classes *)
  mutable geom_len : int;   (** routed geometric length of the parent wire, nm *)
  mutable snake : int;      (** extra snaked wirelength, nm *)
  mutable bend : Segment.L.config;
  mutable route : Point.t list;
      (** explicit polyline from parent position to [pos] (both included)
          when the wire is detoured; [[]] means L-shape embedding *)
}

type t

val create : tech:Tech.t -> source_pos:Point.t -> t
val tech : t -> Tech.t
val root : t -> int
val size : t -> int
val node : t -> int -> node

(** Monotone counter bumped by every mutating operation. Incremental
    evaluators use it as a cheap "has anything changed?" fast path; the
    content-hash cache keeps them correct even for direct field writes
    that bypass the counter. *)
val revision : t -> int

(** Manually bump {!revision} after mutating node fields directly. *)
val touch : t -> unit

(** Electrical length of the parent wire: geometric plus snake. *)
val wire_len : node -> int

(** Wire class record of a node's parent wire. *)
val wire_of : t -> node -> Tech.Wire.t

(** Total capacitance of the parent wire (electrical length), fF. *)
val wire_cap : t -> node -> float

(** Add a node. [geom_len] defaults to the Manhattan distance from the
    parent's position; [wire_class] defaults to the technology's widest
    wire. @raise Invalid_argument for an invalid parent. *)
val add_node :
  t -> kind:kind -> pos:Point.t -> parent:int -> ?wire_class:int ->
  ?geom_len:int -> ?bend:Segment.L.config -> unit -> int

(** Replace a wire's embedding by an explicit polyline (first point must be
    the parent position, last the node position); updates [geom_len]. *)
val set_route : t -> int -> Point.t list -> unit

(** Geometric point at distance [d] (0 ≤ d ≤ geom_len) from the parent end
    along the wire's embedding. *)
val point_along_wire : t -> int -> int -> Point.t

(** [split_wire t id ~at] inserts an [Internal] node on the wire from
    [parent id] to [id] at geometric distance [at] from the parent end and
    returns the new node's id. Snake length is split proportionally.
    @raise Invalid_argument when [at] is outside [0, geom_len]. *)
val split_wire : t -> int -> at:int -> int

(** Insert a buffer on a wire ([split_wire] + set kind). Returns the new
    buffer node id. *)
val insert_buffer_on_wire : t -> int -> at:int -> buf:Tech.Composite.t -> int

(** Turn a buffer node back into an internal node. *)
val remove_buffer : t -> int -> unit

(** Place a buffer directly at an existing internal node. *)
val set_buffer : t -> int -> Tech.Composite.t -> unit

(** Set the wire class of a node's parent wire (bumps {!revision}). *)
val set_wire_class : t -> int -> int -> unit

(** Set the snaked extra length of a node's parent wire, nm (bumps
    {!revision}). *)
val set_snake : t -> int -> int -> unit

(** Set the routed geometric length of a node's parent wire, nm (bumps
    {!revision}). *)
val set_geom_len : t -> int -> int -> unit

val sinks : t -> int array
val buffer_ids : t -> int array

(** Ids in topological order (each parent before its children). *)
val topo_order : t -> int array

(** Leaves-first order (reverse topological). *)
val post_order : t -> int array

val iter : t -> (node -> unit) -> unit

(** Number of signal inversions between the source and each node. *)
val inversions : t -> int array

(** Sink ids in the subtree rooted at a node. *)
val subtree_sinks : t -> int -> int list

(** Detach the subtree rooted at [id] from its parent. The nodes remain
    allocated but unreachable until {!compact} is called; traversals skip
    them. @raise Invalid_argument on the root. *)
val detach : t -> int -> unit

(** Attach a previously detached node (or move a node) under a new parent,
    keeping its wire class and recomputing [geom_len] from positions
    (explicit routes and snake are cleared). *)
val reparent : t -> int -> new_parent:int -> unit

(** Rebuild the tree keeping only nodes reachable from the root, with
    dense ids. Returns the new tree and the old→new id mapping (-1 for
    dropped nodes). *)
val compact : t -> t * int array

(** Deep structural copy (shares only the technology). *)
val copy : t -> t

(** Process-wide count of {!copy} calls. The IVC attempt hot path must not
    deep-copy (journal rollback replaced snapshots); tests assert the
    counter stays flat across attempt/rollback cycles. *)
val copies : unit -> int

(** Make [dst] structurally identical to [src] (deep). Both must share the
    same technology. @raise Invalid_argument if [dst] has an active
    journal. *)
val assign : dst:t -> src:t -> unit

(** [graft t ~at ~buf ~src] — abutment graft for the regional flow:
    appends [src]'s reachable nodes (minus its source) onto [t],
    identifying [src]'s source with [t]'s childless node [at], which
    becomes a [Buffer buf] (the regional root driver — it isolates the
    grafted subtree into its own driver stages). New ids follow [src]'s
    topological order, so grafting is deterministic. Returns the
    [src]-id → [t]-id map ([map.(0) = at]; -1 for unreachable nodes).
    Counts as one revision bump. Both trees must share the same
    technology (physically), carry no active journal, and [at] must be a
    childless non-source node at exactly [src]'s source position.
    @raise Invalid_argument otherwise. *)
val graft : t -> at:int -> buf:Tech.Composite.t -> src:t -> int array

(** 64-bit FNV-1a content hash over the full structural state (topology,
    kinds, buffer parameters, geometry, embeddings). Equal digests mean —
    up to hash collision — identical trees; used by the parallel-vs-serial
    determinism tests. *)
val digest : t -> int64

(** Canonical line-oriented text serialization. Floats are hex literals,
    node/children/route lines are emitted in id order with children order
    preserved, so [of_string ~tech (to_string t)] rebuilds a tree with
    the same {!digest}. The technology is shared, never serialized. *)
val to_string : t -> string

(** Parse {!to_string} output against a technology. Buffer devices are
    resolved by name (with bit-exact electricals) in [tech]'s library,
    falling back to reconstructing the recorded device. Never raises:
    malformed input yields [Error "line N: ..."]. The parsed tree has
    revision 0 and no journal. *)
val of_string : tech:Tech.t -> string -> (t, string) result

(** A composite buffer as one space-separated string: count,
    percent-escaped device name, the six device electricals as hex float
    literals and the inverting flag — the tail of a serialized buffer
    node line. Shared with other line formats that embed a composite. *)
val composite_to_tokens : Tech.Composite.t -> string

(** Inverse of {!composite_to_tokens} over the split tokens. The device
    resolves like {!of_string}'s buffers: a bit-exact match in [tech]'s
    library, else a reconstruction from the recorded electricals. NaN or
    otherwise invalid electricals, a count below 1 and malformed tokens
    yield [Error]; never raises. *)
val composite_of_tokens :
  tech:Tech.t -> string list -> (Tech.Composite.t, string) result

type journal

(** Undo/redo log for speculative edits (IVC attempt/rollback).

    While a journal is active on a tree, every public mutator records the
    old value of each field it writes, so {!Journal.rollback} restores the
    exact pre-journal state in O(edit) time instead of a full-tree copy.

    {b Invariant}: between {!Journal.start} and close, the tree must only
    be mutated through the public mutators of this module. Direct field
    writes (even followed by a manual {!touch}) make the undo log
    incomplete; the journal detects the mismatch via
    [revision = base_revision + ops] and {!Journal.rollback} refuses to
    run. A bare {!touch} with no field write is equally inconsistent. *)
module Journal : sig
  (** Open a journal on a tree. @raise Invalid_argument if one is already
      active (journals do not nest). *)
  val start : t -> journal

  (** Revision the tree had when the journal was opened. *)
  val base_revision : journal -> int

  (** Number of journaled mutation sites recorded so far. *)
  val ops : journal -> int

  (** [true] while every recorded mutation was a value edit (wire class,
      snake, geometry, route, buffer rescale) — the stage partitioning of
      the tree is unchanged, so the touched set below is a sound dirty
      hint for incremental evaluation. Structural edits (node insertion,
      buffer insertion/removal, detach/reparent, placing a buffer on an
      internal node) clear it. *)
  val value_only : journal -> bool

  (** Sorted, deduplicated ids of the nodes whose parent-wire or kind the
      journal touched. *)
  val touched : journal -> int list

  (** [revision tree = base_revision + ops] — no mutation bypassed the
      journal. Checked by {!rollback}; callers check it before using
      {!touched} as a dirty hint. *)
  val consistent : journal -> bool

  (** Undo every recorded mutation (newest first), detach the journal and
      bump the revision once (the revision is never restored, protecting
      revision-keyed memos). Captures a redo log first, so {!replay}
      still works after rollback. @raise Invalid_argument if the journal
      is closed or {!consistent} is false (the tree is left untouched). *)
  val rollback : journal -> unit

  (** Keep the mutations, capture the redo log and detach the journal. *)
  val commit : journal -> unit

  (** Detach the journal without restoring anything — for exception paths
      where the tree's state is no longer trusted (the caller must
      resynchronise it, e.g. with {!assign}). *)
  val abandon : journal -> unit

  (** Re-apply the journal's net effect onto a tree that is
      content-identical to the journal's base state (e.g. the main tree
      after the journal ran on a replica). Works after {!rollback} or
      {!commit}.

      Onto a tree without a journal the whole log lands as one revision
      bump. Onto a tree with an active journal (a value-only log only)
      each entry is recorded the way the public mutators record it — one
      undo entry, one op, one revision bump, the entry's node touched —
      so the target journal stays {!consistent} and {!value_only} and
      can be rolled back or turned into a dirty hint.
      @raise Invalid_argument if the journal is still open, the target's
      size differs from the base, or the log is structural and the
      target has an active journal (the target is left untouched). *)
  val replay : journal -> onto:t -> unit
end
