(** Label-strength diagrams (Section 2.3 of the paper).

    Label [A] is {e at least as strong as} [B] w.r.t. a constraint 𝒞 if
    replacing one occurrence of [B] by [A] in any configuration of 𝒞
    yields a configuration of 𝒞.  The edge diagram uses the edge
    constraint, the node diagram the node constraint (Figs. 1, 4, 5). *)

type t

type label = Labelset.label

(** Strength preorder w.r.t. the edge constraint.  Exact (edge
    constraints have arity 2 and expand trivially). *)
val edge_diagram : Problem.t -> t

(** Strength preorder w.r.t. the node constraint.  Exact when the node
    constraint expands within [expand_limit] concrete configurations
    (default 200_000); otherwise falls back to a sound condensed-level
    approximation that may miss relations (never invents them).
    {!is_exact} reports which case applied. *)
val node_diagram : ?expand_limit:float -> Problem.t -> t

val is_exact : t -> bool

val alphabet : t -> Alphabet.t

(** [geq d a b] — [a] is at least as strong as [b]. *)
val geq : t -> label -> label -> bool

(** Strictly stronger. *)
val gt : t -> label -> label -> bool

val equivalent : t -> label -> label -> bool

(** Labels at least as strong as [l], excluding [l] itself; this is the
    "successors" notion used for right-closedness. *)
val above : t -> label -> Labelset.t

(** Is the set closed under taking stronger labels? *)
val is_right_closed : t -> Labelset.t -> bool

(** All non-empty right-closed subsets of the alphabet, in increasing
    bitset order.  Enumerated as the order ideals of the class
    condensation of the strength relation — only right-closed sets are
    ever constructed, so the cost is proportional to the output, never
    to 2^n, and there is no label cap.
    @param limit hard budget on the number of sets (default 5·10⁶).
    @raise Budget.Budget_exceeded when the budget is exceeded. *)
val right_closed_sets : ?limit:int -> t -> Labelset.t list

(** Iterator form of {!right_closed_sets}: calls [f] on every non-empty
    right-closed set without materializing the list, in unspecified
    order.  Raise from [f] (e.g. [Exit]) to stop early. *)
val iter_right_closed : ?limit:int -> t -> (Labelset.t -> unit) -> unit

(** The same family as {!right_closed_sets}, but as one hash-consed
    ZDD instead of an explicit list: node count is typically
    logarithmic in the member count (a [k]-antichain's [2^k - 1]
    up-sets take [k] nodes), and cardinality, membership, restriction
    and maximal-element extraction run on the compressed form.  The
    returned manager owns the family; keep them together.
    @param node_limit unique-table budget (default 2·10⁶).
    @raise Budget.Budget_exceeded with the realized node count if the
    construction overruns [node_limit]. *)
val right_closed_family : ?node_limit:int -> t -> Zdd.manager * Zdd.t

(** [|right_closed_sets d|] computed on the compressed family — no
    enumeration, no [limit]: the count the explicit path reports when
    it completes, available even where materializing the list would
    trip its budget.  Used to keep the [rc_sets] counter
    engine-independent on the fully symbolic R̄ path.
    @raise Budget.Budget_exceeded as {!right_closed_family}. *)
val right_closed_count : ?node_limit:int -> t -> int

(** ZDD-backed variant of {!right_closed_sets}; byte-identical result
    on every diagram (pinned by the equivalence suite in [test/zdd]):
    the family's members come out in increasing bitset order, no sort
    needed.  [limit] budgets the number of sets produced, with the same
    trip-at-[limit+1] convention and a realized count in the
    [Budget_exceeded] payload. *)
val right_closed_sets_zdd :
  ?limit:int -> ?node_limit:int -> t -> Labelset.t list

(** Minimal (weakest) elements of a set: members with no strictly
    weaker member in the set. *)
val minimal_elements : t -> Labelset.t -> Labelset.t

(** Transitively-reduced edges (weaker, stronger) for display, matching
    the paper's figures.  Equivalent labels produce a two-cycle. *)
val hasse_edges : t -> (label * label) list

val pp : Format.formatter -> t -> unit

(** GraphViz rendering of the Hasse reduction (edges point from weaker
    to stronger labels, as in the paper's figures). *)
val to_dot : ?name:string -> t -> string
