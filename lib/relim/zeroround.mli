(** Deciders for 0-round solvability in the port-numbering model
    (Lemmas 12 and 15 of the paper, stated for arbitrary problems).

    In the PN model a 0-round deterministic algorithm sees nothing but
    its degree (and global parameters), so all nodes output the same
    configuration with the same assignment of labels to ports.  Two
    adversarial port numberings are considered:

    - {e mirrored} ports (the paper's Lemma 12 construction, where the
      input Δ-edge coloring doubles as the port numbering on both
      endpoints): an edge with color [i] sees the label at port [i] on
      both sides, so solvability requires a configuration in which the
      label assigned to each port is compatible with itself;
    - {e arbitrary} ports: an edge may connect any port to any other,
      so the multiset of labels used must be pairwise (and self-)
      compatible. *)

(** [solvable_mirrored p] returns a witness configuration in which
    every label is self-compatible, or [None] if no allowed node
    configuration has that property (hence 0 rounds are insufficient
    under the mirrored-port adversary, even given the edge coloring). *)
val solvable_mirrored : Problem.t -> Multiset.t option

(** [solvable_arbitrary_ports p] returns a witness configuration whose
    support is a self-compatible clique in the edge-compatibility
    graph, or [None].  The search enumerates only the {e maximal}
    cliques (Bron–Kerbosch with pivoting over bitsets) — a pool works
    iff every group of some node line meets it, which is monotone in
    the pool, so maximal cliques are exhaustive.  The old
    implementation swept all 2^n label subsets with no guard.

    The root of the Bron–Kerbosch tree is unrolled and its independent
    subtrees fan out over [pool] (default {!Parctl.default}).  Every
    subtree runs to completion — there is no cross-subtree
    cancellation — so the verdict, the witness (the DFS-first witness
    of the lowest-indexed subtree, which is exactly the witness the
    fully sequential search finds) and the merged counters are
    identical for every domain count.  Consequence: on solvable
    instances this explores subtrees beyond the witness-bearing one,
    so [bk_expansions] / [maximal_cliques] can exceed what a search
    that stops at the first witness would report.
    @param max_expansions bound on the Bron–Kerbosch recursion-tree
    size (default 10⁶); the number of maximal cliques can be
    exponential in pathological graphs.  The budget is shared across
    subtrees through an atomic counter, so whether it trips is a
    property of the instance, not of the schedule.
    @raise Budget.Budget_exceeded when the bound is exceeded. *)
val solvable_arbitrary_ports :
  ?max_expansions:int -> ?pool:Parallel.Pool.t -> Problem.t ->
  Multiset.t option

(** [iter_maximal_cliques compat n f] calls [f] on every maximal clique
    of the compatibility graph on labels [0 .. n-1], restricted to
    self-compatible labels.  Exposed for the equivalence tests and the
    benchmark harness.  Raise from [f] to stop early.
    @raise Budget.Budget_exceeded when [max_expansions] (default 10⁶)
    is exceeded. *)
val iter_maximal_cliques :
  ?max_expansions:int -> bool array array -> int -> (Labelset.t -> unit) -> unit

(** Lemma 15 generalized: when [solvable_mirrored p = None], every
    allowed configuration contains a label that is not self-compatible,
    and any randomized 0-round algorithm fails with probability at
    least [1 / (c·Δ)²] on the mirrored-port instance, where [c] is the
    number of concrete allowed node configurations.  Returns that bound
    ([None] when the problem is 0-round solvable).  The paper's family
    has [c = 3], giving the bound [1/(3Δ)² ≥ 1/Δ⁸] used by Theorem 14.
    @raise Budget.Budget_exceeded if the node constraint expansion
    exceeds [limit] (default 2e6). *)
val randomized_failure_bound : ?limit:float -> Problem.t -> float option

(** Labels compatible with themselves under the edge constraint. *)
val self_compatible : Problem.t -> Labelset.t

(** Counters for the clique-based 0-round decider: calls to
    {!solvable_arbitrary_ports}, maximal cliques emitted, Bron–Kerbosch
    recursion-tree nodes, and wall seconds spent deciding (including
    searches that end in [Budget.Budget_exceeded]).  Parallel
    searches accumulate into per-domain records merged at join, so the
    integer counters are exact and domain-count-independent (only
    [clique_time_s] varies run to run). *)
type stats = {
  mutable clique_calls : int;
  mutable maximal_cliques : int;
  mutable bk_expansions : int;
  mutable clique_time_s : float;
}

val stats : stats

val reset_stats : unit -> unit

(** Verdict emission hook.  When set, it is invoked after every
    completed {!solvable_mirrored} ([`Mirrored]) and
    {!solvable_arbitrary_ports} ([`Arbitrary]) call with the problem
    and the verdict just returned; expansion-budget failures raise
    before the hook fires.  Intended for the independent re-checkers
    in [Certify.Hooks].  [None] by default. *)
val observer :
  (mode:[ `Mirrored | `Arbitrary ] -> Problem.t -> Multiset.t option -> unit)
  option
  ref
