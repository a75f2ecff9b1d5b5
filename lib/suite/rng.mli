(** Deterministic splittable PRNG (splitmix64) so that benchmark
    generation never depends on global [Random] state: the same seed
    always produces the same benchmark, on any platform. *)

type t

val create : int -> t

(** Uniform in [0, bound). @raise Invalid_argument when [bound <= 0]. *)
val int : t -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Standard normal (Box–Muller). *)
val normal : t -> float

(** Independent generator derived from this one's stream. *)
val split : t -> t

(** [jump t k] advances [t] past [k] draws in O(1): afterwards [t]
    yields exactly what it would after [k] calls of {!float} (or
    {!int}; each consumes one draw, {!normal} two).
    @raise Invalid_argument when [k < 0]. *)
val jump : t -> int -> unit
