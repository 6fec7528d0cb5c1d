(** Concrete configurations: multisets of labels.

    A configuration of arity [d] assigns one label to each of [d]
    ports; since the round-elimination formalism ignores port order, a
    configuration is a multiset.  Stored as a sorted [(label, count)]
    array with positive counts. *)

type t

type label = Labelset.label

val of_list : label list -> t

(** [of_counts pairs] from (label, count) pairs; duplicate labels are
    merged, zero counts dropped.  Costs one sort of the pairs and one
    merge pass over them, O(k log k) for k pairs, with no hashtable.
    @raise Invalid_argument on negative counts. *)
val of_counts : (label * int) list -> t

val to_list : t -> label list

val counts : t -> (label * int) list

(** Total number of elements (with multiplicity). *)
val size : t -> int

val count : t -> label -> int

val mem : label -> t -> bool

(** Set of distinct labels. *)
val support : t -> Labelset.t

val add : label -> t -> t

(** [remove_one l m] removes one occurrence.
    @raise Not_found if [l] is absent. *)
val remove_one : label -> t -> t

(** [replace_one ~remove ~add m]: one occurrence of [remove] becomes
    [add]. @raise Not_found if [remove] is absent. *)
val replace_one : remove:label -> add:label -> t -> t

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

(** All sub-multisets (including empty and full), each produced once. *)
val sub_multisets : t -> (t -> unit) -> unit

(** [sub_multisets_of_size k m f] calls [f] on each sub-multiset of
    size exactly [k]. *)
val sub_multisets_of_size : int -> t -> (t -> unit) -> unit

val pp : Alphabet.t -> Format.formatter -> t -> unit

val to_string : Alphabet.t -> t -> string
