(** The one bounded cache behind every content-addressed table: the
    factorisation caches ({!Transient.Fcache}, {!Transient.Flat.Fcache}),
    the per-slot stage-result caches of {!Evaluator.Incremental}, the
    shared {!Evaluator.Store} and the serve daemon's response cache.

    {b Eviction policy: second chance ("clock").} Entries sit in a FIFO
    ring in insertion order, each with a mark that {!find} sets. An
    {!add} at capacity rotates the ring: a marked entry loses its mark
    and goes to the back, and the first unmarked entry is dropped. So
    exactly one entry leaves per insertion at the cap, never the one
    being inserted, and an entry found since the rotation last passed it
    survives whenever some entry is unmarked. A table only queried with
    {!mem} is a plain FIFO.

    Callers key their values by content, so a hit is bit-identical to a
    recompute: eviction changes cost, never results. Each entry costs
    its hash-table binding plus a key slot, a value slot and a mark byte
    in the ring (slots grow by doubling, up to the cap). *)

type ('k, 'v) t

(** An empty table of at most [cap] entries (at least 1). Keys are
    compared and hashed structurally. *)
val create : cap:int -> ('k, 'v) t

(** The value under the key; marks the entry. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Whether the key is present; does not mark the entry. *)
val mem : ('k, 'v) t -> 'k -> bool

(** Insert a binding, evicting one entry first at the cap. The first
    writer wins: adding a present key changes nothing. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val length : ('k, 'v) t -> int

(** Fold over the live bindings, in no particular order. *)
val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a

val clear : ('k, 'v) t -> unit

(** A table safe to use from any domain: a fixed array of {!t} stripes,
    each behind its own lock. Values are handed to several domains, so
    they must be immutable once added. *)
module Shared : sig
  type ('k, 'v) t

  (** [cap] is split evenly over [stripes] stripes (at most [cap] of
      them), so the table never holds more than [cap] entries.
      [stripe_of k], reduced modulo the stripe count, picks the stripe
      of [k]. *)
  val create :
    stripes:int -> cap:int -> stripe_of:('k -> int) -> ('k, 'v) t

  val find : ('k, 'v) t -> 'k -> 'v option
  val add : ('k, 'v) t -> 'k -> 'v -> unit

  (** Live entries across all stripes (takes each stripe lock). *)
  val length : ('k, 'v) t -> int

  (** Entries evicted since creation. *)
  val evictions : ('k, 'v) t -> int

  val clear : ('k, 'v) t -> unit
end
