(** Locally checkable problems in the round-elimination formalism.

    A problem on Δ-regular graphs is a triple (Σ, 𝒩, ℰ): an alphabet, a
    node constraint of arity Δ and an edge constraint of arity 2
    (Section 2.2 of the paper).  A correct solution labels every
    (node, incident edge) pair with an alphabet symbol so that each
    node's labels form a configuration in 𝒩 and each edge's two labels
    form a configuration in ℰ. *)

type t = {
  name : string;  (** Human-readable identifier, e.g. ["MIS"]. *)
  alpha : Alphabet.t;
  node : Constr.t;  (** Arity Δ. *)
  edge : Constr.t;  (** Arity 2. *)
}

(** [make ~name ~alpha ~node ~edge] validates arities and that every
    label used in the constraints belongs to the alphabet.
    @raise Invalid_argument if the edge constraint has arity other than
    2 or constraints mention labels outside the alphabet. *)
val make : name:string -> alpha:Alphabet.t -> node:Constr.t -> edge:Constr.t -> t

(** Δ, the node-constraint arity. *)
val delta : t -> int

(** Number of labels actually used (size of the alphabet). *)
val label_count : t -> int

(** The edge-compatibility matrix: [(compat_matrix p).(a).(b)] iff the
    pair {a, b} is an allowed edge configuration.  Symmetric; built
    from the condensed edge lines without expanding them. *)
val compat_matrix : t -> bool array array

(** Structural equality: same alphabet (names and order), same
    constraints.  See {!Iso} for equality up to renaming. *)
val equal : t -> t -> bool

(** Drop labels that never occur in any constraint, re-indexing the
    alphabet. *)
val trim : t -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
