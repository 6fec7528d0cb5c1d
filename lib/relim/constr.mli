(** Node / edge constraints: finite collections of condensed
    configurations, all of the same arity. *)

type t

(** [make lines] deduplicates and sorts.
    @raise Invalid_argument if lines disagree on arity or the list is
    empty. *)
val make : Line.t list -> t

val lines : t -> Line.t list

val arity : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

(** Labels mentioned anywhere. *)
val support : t -> Labelset.t

(** Is the concrete configuration allowed, i.e. contained in some
    line?  A line whose support misses a label of the configuration
    is skipped with one subset test on the two supports; only the
    lines that pass it run a {!Line.contains} max-flow. *)
val mem : t -> Multiset.t -> bool

(** [covers c line] — is every concrete configuration of [line] allowed
    by [c]?  Sound and complete only line-by-line (a configuration
    family split across several lines of [c] is reported as not
    covered); exact when used with concrete lines. *)
val covers_line : t -> Line.t -> bool

(** Estimated number of concrete configurations (with multiplicity
    across overlapping lines). *)
val expansion_estimate : t -> float

(** All distinct concrete configurations, deduplicated.
    @raise Budget.Budget_exceeded if the estimate exceeds [limit]
    (default 5e6). *)
val expand : ?limit:float -> t -> Multiset.t list

val map_lines : (Line.t -> Line.t) -> t -> t

val pp : Alphabet.t -> Format.formatter -> t -> unit

val to_string : Alphabet.t -> t -> string
