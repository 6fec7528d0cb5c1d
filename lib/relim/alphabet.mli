(** Label alphabets: a finite set of named labels.

    A label is an index [0 .. size-1] into the alphabet.  Alphabets are
    immutable once created.  Label names are arbitrary non-empty
    strings without whitespace or the bracket characters used by the
    problem syntax ([\[], [\]], [^], [(], [)]). *)

type t

type label = Labelset.label

(** [create names] builds an alphabet from the given label names.
    @raise Invalid_argument on duplicate, empty or ill-formed names, or
    if more than {!Labelset.max_label} names are given. *)
val create : string list -> t

val size : t -> int

(** All labels of the alphabet, in index order. *)
val labels : t -> label list

(** The set of all labels. *)
val universe : t -> Labelset.t

(** @raise Invalid_argument if the label is out of range. *)
val name : t -> label -> string

(** @raise Not_found if no label has that name. *)
val find : t -> string -> label

val mem_name : t -> string -> bool

(** [set_name a s] renders a label set, e.g. ["MX"] when every member
    name is a single character, ["(M1 X2)"] otherwise, and ["∅"] for
    the empty set. *)
val set_name : t -> Labelset.t -> string

val pp_label : t -> Format.formatter -> label -> unit

val equal : t -> t -> bool
