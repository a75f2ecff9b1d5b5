(** Fixed-width table rendering and the paper's published numbers, for
    side-by-side "paper vs. measured" output in the bench harness and
    EXPERIMENTS.md. *)

(** [table ~title ~header rows] renders a fixed-width text table; column
    widths adapt to content. *)
val table : title:string -> header:string list -> string list list -> string

val fmt : ?decimals:int -> float -> string

(** Minimal JSON value tree and serialiser (no external dependency), used
    by the bench harness to emit machine-readable results alongside the
    text tables. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (** Pretty-printed with two-space indentation. NaN/infinite numbers are
      emitted as [null] (JSON has no representation for them). *)
  val to_string : t -> string

  (** Single-line rendering, no trailing newline — one JSONL record. *)
  val to_compact_string : t -> string

  (** Deepest nesting of arrays and objects {!of_string} accepts. *)
  val max_depth : int

  (** Parse a complete JSON document (accepts everything {!to_string} and
      {!to_compact_string} emit). Errors carry the byte offset. A document
      nested deeper than {!max_depth} is an [Error], returned at the
      bracket that exceeds the cap without reading further. *)
  val of_string : string -> (t, string) result

  (** [member k v] — field [k] of an [Obj], [None] otherwise. *)
  val member : string -> t -> t option

  val to_float : t option -> float option
  val to_str : t option -> string option

  (** Items of a [List]; [[]] for anything else. *)
  val to_list : t option -> t list
end

(** Paper Table III: per-step (INITIAL, TBSZ, TWSZ, TWSN, BWSN) CLR and
    skew for the seven benchmarks, ps. [(step, [(clr, skew); ...])] in the
    order of {!Gen_ispd.names}. *)
val paper_table3 : (string * (float * float) list) list

(** Paper Table IV: per-benchmark (CLR ps, cap % of limit, CPU s) for
    Contango, NTU, NCTU, U. of Michigan. [nan] marks "fail" entries. *)
val paper_table4 : (string * (float * float * float) option list) list

val paper_table4_teams : string list

(** Paper Table V: (sinks, CLR ps, skew ps, latency ps, cap pF, minutes,
    SPICE runs). *)
val paper_table5 : (int * float * float * float * float * float * int) list

(** Paper Table II: benchmark → (inverted sinks, added inverters). *)
val paper_table2 : (string * (int * int)) list

(** Paper Table I rows: (type, input cap fF, output cap fF, output res Ω). *)
val paper_table1 : (string * float * float * float) list
