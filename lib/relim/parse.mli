(** Parser for the textual problem syntax, compatible in spirit with
    Olivetti's round-eliminator tool.

    A constraint is one configuration per line (newlines or [;]
    separate lines).  A configuration is a whitespace-separated list of
    groups.  A group is either a single label, or a disjunction
    [\[...\]], optionally followed by [^k] for multiplicity.  Inside
    brackets, labels are separated by spaces; if the bracket content
    contains no spaces it is split into single-character labels, so
    [\[PO\]] and [\[P O\]] both denote the disjunction {P, O}.  Outside
    brackets a multi-character token is a single multi-character label.

    Examples (MIS with Δ = 3):
    {v
    node:  M M M
           P O O
    edge:  M [PO]
           O O
    v} *)

(** [constr alpha ~arity s] parses a constraint, checking every line
    has the given arity.
    @raise Failure with a descriptive message on syntax errors, unknown
    labels, or arity mismatches. *)
val constr : Alphabet.t -> arity:int -> string -> Constr.t

(** [line alpha s] parses a single configuration. *)
val line : Alphabet.t -> string -> Line.t

(** [problem ~name ~node ~edge] parses a whole problem, inferring the
    alphabet from the labels appearing in the two constraints (in order
    of first appearance, node text first).  Each line of the two texts
    is tokenized once.
    @raise Failure on syntax errors, if node/edge arity is invalid, on
    a label name {!Alphabet.create} refuses (one containing [(], [)] or
    a tab), or on more than {!Labelset.max_label} labels; the message
    names the label or the count. *)
val problem : name:string -> node:string -> edge:string -> Problem.t

(** Label names appearing in a constraint string, in order of first
    appearance. *)
val scan_labels : string -> string list
