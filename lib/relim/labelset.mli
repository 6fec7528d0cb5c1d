(** Sets of labels, represented as integer bitsets.

    Labels are small non-negative integers (indices into an
    {!Alphabet.t}).  Alphabets in the round-elimination framework stay
    small — the paper's problems use at most 8 labels — so a single
    OCaml [int] comfortably holds any set we ever need.  The hard cap
    is {!max_label} labels per alphabet. *)

type t = private int

type label = int

(** Maximum number of distinct labels supported (bits in an [int],
    minus a safety margin). *)
val max_label : int

val empty : t

val is_empty : t -> bool

(** [full n] is the set of all labels [0 .. n-1].
    @raise Invalid_argument if [n < 0] or [n > max_label]. *)
val full : int -> t

(** @raise Invalid_argument if the label is out of range. *)
val singleton : label -> t

val mem : label -> t -> bool

val add : label -> t -> t

val remove : label -> t -> t

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool

(** [strict_subset a b] is [subset a b && not (equal a b)]. *)
val strict_subset : t -> t -> bool

val equal : t -> t -> bool

(** Total order, suitable for functorized sets/maps.  The order is the
    numeric order of the underlying bitset; it refines cardinality only
    incidentally and carries no semantic meaning. *)
val compare : t -> t -> int

val cardinal : t -> int

(** [inter_cardinal a b = cardinal (inter a b)], without the
    intermediate set.  One AND plus a popcount loop — used on the hot
    path of the Bron–Kerbosch pivot choice. *)
val inter_cardinal : t -> t -> int

(** Elements in increasing label order. *)
val elements : t -> label list

val of_list : label list -> t

(** {2 Iteration}

    [fold], [iter], [for_all], [exists] and [filter] visit the members
    in ascending label order — the order of {!elements} — by walking
    the set bits of the word, and allocate nothing themselves.
    [for_all] and [exists] stop at the first member that decides the
    result. *)

val fold : (label -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (label -> unit) -> t -> unit

val for_all : (label -> bool) -> t -> bool

val exists : (label -> bool) -> t -> bool

val filter : (label -> bool) -> t -> t

(** [choose s] is the smallest label of [s].
    @raise Not_found on the empty set. *)
val choose : t -> label

(** All non-empty subsets of [s], in increasing bitset order. *)
val nonempty_subsets : t -> t list

(** Hash usable with [Hashtbl]. *)
val hash : t -> int

(** Unsafe embedding of a raw bitset; exposed for hashing/serialization
    helpers inside the library. *)
val of_bits : int -> t

val to_bits : t -> int
