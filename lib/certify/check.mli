(** Independent certificate checker for the round-elimination engine.

    Every function here re-derives the claimed property {e directly
    from the definitions} in Section 2 of the paper — universal /
    existential quantifier checks over label sets and concrete
    configurations — using only the problem/constraint primitives
    ([Problem], [Constr], [Line], [Labelset], [Multiset]).  None of
    the optimized machinery is involved: no Galois-closure lattice, no
    node diagram or right-closed-set enumeration, no dominance
    screening, no memo of engine results.  The checkers are deliberately
    unoptimized (nested loops and backtracking over small sets), so a
    bug in the fast paths cannot also hide here.

    One piece is shared with the engine: every membership verdict of a
    configuration in a constraint comes from [Constr.mem], which
    screens each line by support and decides the rest with
    [Line.contains], a [Util.transport_feasible] max-flow, the same
    solver the engine uses.  A bug in that solver could hide in both.

    The checkers keep one cache, a {!membership} table per sub-check
    call: the R node recomputation and R̄'s validity and maximality
    scans meet each configuration once per choice of representatives
    that lands on it, and the table asks [Constr.mem] only the first
    time.  It keys on the configuration itself (its labels in
    ascending order, one byte each), so a hit returns the verdict
    [Constr.mem] gave for the very same multiset of the same
    constraint.  It holds nothing the engine computed and dies with
    the call, so it cannot carry an engine bug, or a verdict about
    another problem, into a check.  It changes no enumeration and
    charges no work of its own: every choice is still visited and
    charged, so budgets, skips, verdicts and messages are what plain
    [Constr.mem] calls give.

    Two properties are not searched for but derived from checks that
    already ran.  R's completeness needs no scan of the 2^n label
    subsets: validity and maximality make every emitted side a closed
    set, so it is enough that the sides hold every non-empty
    N(\{y\}) and every non-empty intersection of two sides.  R̄'s
    non-dominance needs no pairwise box scan: once every box is valid
    and per-position maximal, no box can dominate another.  The
    arguments are at the checks, in [check.ml].

    Exhaustive sub-checks that are exponential in the label count
    (e.g. R's node recomputation over every multiset of output labels)
    are guarded by a fixed work budget of 2,000,000 charged steps per
    sub-check; when the budget would be exceeded the sub-check is
    {e skipped} and counted in [skipped_subchecks] — the certificate
    is then partial, never wrong. *)

(** Raised when an engine output contradicts the definitions.  The
    message names the claim that failed and the offending piece. *)
exception Violation of string

type stats = {
  mutable r_certified : int;  (** Successful {!check_r} runs. *)
  mutable rbar_certified : int;  (** Successful {!check_rbar} runs. *)
  mutable zero_certified : int;  (** Successful {!check_zero_round} runs. *)
  mutable fixed_points_certified : int;
      (** Successful {!check_fixed_point} replays. *)
  mutable relaxations_certified : int;
      (** Successful {!check_relaxation} runs. *)
  mutable skipped_subchecks : int;
      (** Exhaustive sub-checks skipped because their work budget
          would have been exceeded (the certificate is partial). *)
  mutable time_s : float;
      (** Wall seconds inside outermost certificate checks (nested
          checks fired by a fixed-point replay are not double
          counted). *)
}

val stats : stats

val reset_stats : unit -> unit

(** The membership verdicts of one constraint, each decided by
    [Constr.mem] the first time it is asked and remembered after. *)
type membership

(** [membership c] is an empty table for [c]. *)
val membership : Relim.Constr.t -> membership

(** [member t labels]: is the configuration with these labels, in any
    order and with repeats, allowed by [t]'s constraint?  [labels] is
    only read.
    @raise Invalid_argument if [labels]' length is not the
    constraint's arity or a label is not below [Labelset.max_label]. *)
val member : membership -> int array -> bool

(** [check_r ~source d] certifies [d = Rounde.r source]:
    denotations are distinct non-empty subsets of the source alphabet;
    every emitted edge pair (A, B) is valid (all cross choices
    edge-compatible in the source) and maximal (no label addable to
    either side); the emitted pair set dominates every valid pair
    (completeness: with N(S) the source labels compatible with all of
    S, the emitted sides hold every non-empty N(\{y\}) and every
    non-empty intersection of two sides, n + |E|² set operations over
    the at most 60 sides E, never skipped); and the new node
    constraint is extensionally exactly the set of configurations
    admitting a choice of representatives allowed by the source node
    constraint (budget-guarded).
    @raise Violation on any mismatch. *)
val check_r : source:Relim.Problem.t -> Relim.Rounde.denoted -> unit

(** [check_rbar ~source d] certifies [d = Rounde.rbar source] (where
    [source] is the problem [rbar] was applied to, i.e. [R(Π)]): every
    emitted box is valid (every choice of representatives is an
    allowed source node configuration) and maximal (no label addable
    at any position), budget-guarded; every allowed source
    configuration is covered by some box (a fresh backtracking
    matcher, not the engine's transport solver); and the new edge
    constraint contains exactly the pairs of used sets admitting a
    compatible choice.  That no emitted box is dominated by another
    follows from validity and maximality and is not checked apart: a
    strictly dominated box could be extended within the dominating
    one, a disjunctive line has two expansions one slot apart, one of
    which could be extended the same way, and no box is emitted twice.
    If the validity and maximality scan is skipped, non-dominance is
    part of that one skip.

    Not checked: that {e every} maximal box is emitted.  Coverage only
    asks that every allowed configuration lies in some box.  With Q's
    node constraint [a b], [a c], [b c] and edge constraint
    [[abc] [abc]], R̄(Q) has the boxes [a bc], [b ac] and
    [ab c]; a result with only the first two, over the labels a, bc,
    b and ac with every edge pair among them, is certified.
    @raise Violation on any mismatch. *)
val check_rbar : source:Relim.Problem.t -> Relim.Rounde.denoted -> unit

(** [check_zero_round ~mode p verdict] certifies a 0-round
    solvability verdict.  [Some w]: [w] is an allowed node
    configuration of the right arity whose labels are all
    self-compatible ([`Mirrored]) resp. whose support is pairwise and
    self compatible ([`Arbitrary]).  [None]: re-checked exhaustively —
    every allowed configuration must fail the same property (skipped
    when the node constraint expands past 2,000,000 configurations).
    @raise Violation on any mismatch. *)
val check_zero_round :
  mode:[ `Mirrored | `Arbitrary ] ->
  Relim.Problem.t ->
  Relim.Multiset.t option ->
  unit

(** [check_relaxation ~source d] certifies that [d.problem] is a sound
    0-round relaxation of [source]: [d.denotations.(s)] lists the
    source labels the relaxed label [s] stands for.  Checked directly
    from the definitions: denotations are distinct non-empty subsets;
    every source label used in a constraint has at least one container;
    for every concrete source edge pair, {e every} pair of containers
    is allowed by the relaxed edge constraint (so the per-half-edge
    rewrite is unconstrained by the edge side); and every allowed
    source node configuration fits into some relaxed node line with a
    fresh backtracking matcher (budget-guarded expansion — a skip
    leaves the certificate partial, never wrong).  Together these
    conditions give a 0-round reduction from [source] to [d.problem]:
    each node rewrites its own half-edge labels using its node-line
    witness, and the edge constraint cannot object.
    @raise Violation on any mismatch. *)
val check_relaxation :
  source:Relim.Problem.t -> Relim.Rounde.denoted -> unit

(** [check_fixed_point p] replays one speedup step from scratch —
    sequentially, without [Fixedpoint.detect] — and confirms
    [Simplify.normalize (step p) ≅ Simplify.normalize p] via {!Iso}.
    When the certificate hooks are installed the replayed step's own
    [R]/[R̄] outputs are certified too (the engine observers fire
    during the replay).
    @raise Violation if the replay is not isomorphic to the claim. *)
val check_fixed_point : Relim.Problem.t -> unit
