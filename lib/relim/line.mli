(** Condensed configurations.

    The paper writes configurations as regular expressions such as
    [M^(Δ-x) X^x] or [\[PQ\] \[OUABPQ\]^(Δ-1)]: each position holds a
    {e disjunction} of labels, and a configuration with disjunctions
    stands for the collection of all concrete configurations obtained
    by picking one label per position.  A [Line.t] is such a condensed
    configuration: a multiset of (label-set, multiplicity) groups. *)

type t

type label = Labelset.label

(** [make groups] merges equal symbol sets and sorts.
    @raise Invalid_argument on empty symbol sets or non-positive counts
    (a silently dropped zero-count group would change the arity). *)
val make : (Labelset.t * int) list -> t

(** Groups in canonical order, counts positive, symbol sets distinct. *)
val groups : t -> (Labelset.t * int) list

(** Total multiplicity, i.e. the configuration length. *)
val arity : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

(** A concrete multiset viewed as a line of singleton groups. *)
val of_multiset : Multiset.t -> t

(** [Some m] iff every group is a singleton. *)
val to_multiset : t -> Multiset.t option

(** Set of labels mentioned anywhere in the line. *)
val support : t -> Labelset.t

(** [contains l m] — is the concrete configuration [m] one of the
    configurations denoted by [l]?  (Transportation feasibility: every
    element of [m] must be routed to a group whose symbol set contains
    it, filling each group exactly.) *)
val contains : t -> Multiset.t -> bool

(** [contains_partial l m] — can the concrete multiset [m] (of size at
    most [arity l]) be extended to a configuration denoted by [l]?
    Used to check boundary nodes of degree smaller than Δ. *)
val contains_partial : t -> Multiset.t -> bool

(** [covers outer inner] — is every concrete configuration of [inner]
    also one of [outer]?  Decided group-wise: route [inner]'s groups
    into [outer]'s groups with symbol-set inclusion.  This is sound and
    complete for coverage by a {e single} line. *)
val covers : t -> t -> bool

(** Number of concrete configurations denoted (upper estimate as a
    float, used to guard expansions). *)
val expansion_estimate : t -> float

(** Enumerate all concrete configurations denoted by the line.  Each
    distinct multiset may be produced more than once when groups share
    labels; deduplicate on the consumer side if needed. *)
val expand : t -> (Multiset.t -> unit) -> unit

(** [map_syms f l] applies [f] to every group symbol set.
    @raise Invalid_argument if [f] produces an empty set. *)
val map_syms : (Labelset.t -> Labelset.t) -> t -> t

val pp : Alphabet.t -> Format.formatter -> t -> unit

val to_string : Alphabet.t -> t -> string
