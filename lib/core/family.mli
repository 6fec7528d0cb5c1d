(** The paper's problem family Π_Δ(a, x) and its companions
    (Sections 3.1 and 3.3).

    Π_Δ(a, x) mixes an independent set with an orientation problem over
    the five labels {M, P, O, A, X}:

    - type-1 nodes ("in the set") output [M^(Δ-x) X^x];
    - type-3 nodes prove they own [a] incident edges: [A^a X^(Δ-a)];
    - type-2 nodes point at a dominator: [P O^(Δ-1)].

    Edge constraint: MM, AA, PP, PA, PO are forbidden; everything else
    is allowed.  Increasing [x] or decreasing [a] relaxes the problem
    (Lemma 11); Π_Δ(a, 0-outdegree...) relates to k-outdegree
    dominating sets through Lemma 5. *)

type params = { delta : int; a : int; x : int }

(** @raise Invalid_argument unless [0 ≤ a ≤ delta], [0 ≤ x ≤ delta],
    [delta ≥ 1]. *)
val check_params : params -> unit

(** {!check_params}, then [x + 2 ≤ a ≤ delta], the range of Lemma 6
    and of {!pi_plus}.
    @raise Invalid_argument outside it. *)
val require_lemma6_range : params -> unit

(** Π_Δ(a, x). *)
val pi : params -> Relim.Problem.t

(** Π⁺_Δ(a, x) (Section 3.3): Π with the extra label C and node
    configuration [C^(Δ-x) X^x], the shape of [M]'s configuration
    shifted to [M^(Δ-x-1) X^(x+1)], and [A]'s to
    [A^(a-x-1) X^(Δ-a+x+1)].  Requires [x + 2 ≤ a]. *)
val pi_plus : params -> Relim.Problem.t

(** The claimed [R(Π_Δ(a,x))] of Lemma 6, over the renamed 8-label
    alphabet {X, M, O, U, A, B, P, Q}:
    node [\[MUBQ\]^(Δ-x) \[XMOUABPQ\]^x | \[PQ\]\[OUABPQ\]^(Δ-1) |
    \[ABPQ\]^a \[XMOUABPQ\]^(Δ-a)], edge [XQ | OB | AU | PM].
    Requires [x + 2 ≤ a ≤ delta]. *)
val r_pi_claimed : params -> Relim.Problem.t

(** Lemma 6's renaming: the denotation of each claimed label as a set
    of Π's labels, e.g. [U ↦ {M,O,X}], [Q ↦ {M,P,A,O,X}].  Pairs of
    (claimed-label name, Π-label names). *)
val r_pi_denotations : (string * string list) list

(** Π_rel of Lemma 8: the relaxation targets, stated over sets of
    {e claimed-R(Π)} labels.  Each node line is a list of
    (label-name set, multiplicity).  Requires [x + 2 ≤ a ≤ delta]. *)
val pi_rel_node_lines : params -> (string list * int) list list

(** The renaming of Lemma 8 between Π_rel's set-labels and Π⁺'s
    labels: [(MUBQ ↦ M); (XMOUABPQ ↦ X); (PQ ↦ P); (OUABPQ ↦ O);
    (ABPQ ↦ A); (UBPQ ↦ C)]. *)
val pi_rel_renaming : (string list * string) list
