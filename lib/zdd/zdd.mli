(** Hash-consed zero-suppressed decision diagrams (ZDDs) over label
    bitsets.

    A value of type {!t} denotes a family of sets of bit positions
    ("labels") drawn from [0 .. nbits - 1]; each member set is encoded
    as an [int] bitmask, exactly like [Relim.Labelset].  The
    representation is canonical per {!manager}: two families built by
    any sequence of operations on the same manager are equal iff they
    are physically equal, so equality, memoized traversals and
    cardinality counting never enumerate members.

    Variable order is fixed to descending bit significance: the root
    decides the highest bit.  Together with lo-before-hi traversal this
    makes every enumeration ({!iter}, {!iter_ge}, {!elements}) produce
    masks in strictly increasing numeric order — the same order as
    [List.sort Labelset.compare], with no sort.

    The module is dependency-free (no [Relim]): callers translate
    {!Limit} into their own budget exceptions. *)

type t
(** A node of some manager's diagram. The two terminals {!bot} (the
    empty family) and {!top} (the family containing only the empty
    set) are shared by all managers. *)

type manager
(** Unique table + operation caches. Not thread-safe: confine each
    manager to one domain. *)

exception
  Limit of {
    what : string;  (** which budget: unique-table nodes or iterated sets *)
    limit : float;
    realized : int;  (** how far the computation got before tripping *)
  }

val create : ?node_limit:int -> nbits:int -> unit -> manager
(** A fresh manager for families over [0 .. nbits - 1].
    [node_limit] (default [2_000_000]) bounds the live unique-table
    size; {!Limit} is raised when an operation would exceed it.
    @raise Invalid_argument unless [0 <= nbits <= 62]. *)

val bot : t
(** The empty family, {}. *)

val top : t
(** The family containing only the empty set, {∅}. *)

val equal : t -> t -> bool
(** Physical equality — sound and complete for families of one
    manager. *)

val of_mask : manager -> int -> t
(** [of_mask m s] is the one-member family [{s}]. *)

val powerset : manager -> int -> t
(** [powerset m s] is the family of all subsets of [s] (including the
    empty set): [2^|s|] members in [|s|] nodes. *)

val union : manager -> t -> t -> t

val inter : manager -> t -> t -> t

val diff : manager -> t -> t -> t

val onset : manager -> int -> t -> t
(** [onset m l f]: the members of [f] containing label [l] (kept as
    they are, [l] included). *)

val offset : manager -> int -> t -> t
(** [offset m l f]: the members of [f] not containing label [l]. *)

val cofactor : manager -> int -> t -> t
(** [cofactor m l f] is [{ x \ {l} | x ∈ f, l ∈ x }] — the hi cofactor
    ("subset1") of [f] at label [l]: {!onset} keeps [l] in the
    surviving members, this removes it. *)

val subsets_within : manager -> t -> int -> t
(** [subsets_within m f s] is [{ x ∈ f | x ⊆ s }]. *)

val maximal : manager -> t -> t
(** The members of [f] not strictly contained in another member —
    Coudert-style extraction, no pairwise scan. *)

val mem : manager -> t -> int -> bool
(** [mem m f s]: does the family contain exactly the set [s]? *)

val count : manager -> t -> int
(** Number of member sets, without enumeration (memoized per node). *)

val node_count : manager -> t -> int
(** Number of distinct reachable nodes (terminals excluded) — the
    compressed size of the family. *)

val iter : ?limit:int -> manager -> t -> (int -> unit) -> unit
(** Enumerate the member masks in increasing numeric order.  With
    [~limit:n], raises [Limit { realized = n; _ }] when the
    enumeration would produce an [(n+1)]-th member — the same
    trip-at-[limit+1] convention as [Diagram.iter_right_closed]. *)

val iter_ge : manager -> t -> from:int -> (int -> unit) -> unit
(** Enumerate the member masks that are numerically [>= from]
    (inclusive), in increasing order, pruning whole subtrees below
    [from] — cost proportional to the output plus one root-to-leaf
    walk, not to the family size. *)

val elements : manager -> t -> int list
(** [iter] collected into a list (increasing order), with no limit. *)

(** {1 Slotted (multi-slot) families}

    A {!layout} splits a manager's bits into [slots] contiguous blocks
    of [width] bits each; block [s] holds a label {e mask} over
    [0 .. width - 1], so one member of a slotted family encodes a whole
    tuple (B₀ … B_{slots-1}) of label sets — a round-elimination "box".
    Slot 0 occupies the {e most significant} block, so the numeric
    order on encodings (the order of every enumeration above) is the
    lexicographic order on slot-mask tuples.  Set operations, Coudert
    {!maximal} and the enumeration budgets all apply unchanged: strict
    containment of encodings is exactly slot-wise containment of the
    boxes. *)

type layout = private { slots : int; width : int }

val layout : slots:int -> width:int -> layout
(** @raise Invalid_argument unless [slots >= 1], [width >= 1] and
    [slots * width <= 62]. *)

val layout_bits : layout -> int
(** [slots * width] — the [nbits] the owning manager must have. *)

val slot_bit : layout -> slot:int -> label:int -> int
(** The manager bit holding [label] of [slot]. *)

val encode_slots : layout -> int array -> int
(** Pack per-slot label masks (index 0 = slot 0 = most significant
    block) into one encoding.
    @raise Invalid_argument on a wrong-length array or an overflowing
    slot mask. *)

val decode_slots : layout -> int -> int array
(** Inverse of {!encode_slots}. *)

val one_per_slot : manager -> layout -> int array -> t
(** [one_per_slot m lay masks] is the family of all {e transversals}
    of the slot masks: members pick exactly one set bit of [masks.(s)]
    in every slot [s] ([∏ |masks.(s)|] members in [O(slots * width)]
    nodes; [bot] if any slot mask is empty).  The manager must have
    exactly [layout_bits lay] bits. *)

val boxes : ?work_limit:int -> manager -> layout -> t -> t
(** [boxes m lay t] — with [t] a family of transversal encodings (one
    bit per slot) — is the family of all encodings whose slot masks
    B₀ … B_{slots-1} are all non-empty and whose every transversal
    lies in [t]: the valid "boxes" of the relation, represented
    compressed.  [work_limit] bounds the construction work (memoized
    recursion steps); overruns raise
    [Limit { what = "Zdd.boxes: construction work"; _ }] with the
    realized count.  The manager's node budget applies as usual. *)

(** {1 Global instrumentation}

    Cumulative across all managers, sampled by [Trace] counters and
    the daemon [stats] op; every field is monotone between resets. *)

type stats = {
  mutable nodes : int;  (** nodes ever hash-consed (unique-table misses) *)
  mutable cache_hits : int;  (** operation-cache hits *)
  mutable cache_lookups : int;  (** operation-cache probes *)
  mutable peak_unique : int;  (** largest live unique table ever seen *)
}

val stats : stats

val reset_stats : unit -> unit
