(** Independent certificate checker for the round-elimination engine.

    Every function here re-derives the claimed property {e directly
    from the definitions} in Section 2 of the paper — universal /
    existential quantifier checks over label sets and concrete
    configurations — using only the problem/constraint primitives
    ([Problem], [Constr], [Line], [Labelset], [Multiset]).  None of
    the optimized machinery is involved: no Galois-closure lattice, no
    node diagram or right-closed-set enumeration, no dominance
    screening, no memo caches.  The checkers are deliberately
    unoptimized (nested loops and backtracking over small sets), so a
    bug in the fast paths cannot also hide here.

    One piece is shared with the engine: every membership test of a
    configuration in a constraint goes through [Constr.mem], which
    screens each line by support and decides the rest with
    [Line.contains], a [Util.transport_feasible] max-flow, the same
    solver the engine uses.  A bug in that solver could hide in both.

    Exhaustive sub-checks that are exponential in the label count
    (e.g. the completeness scan over all 2^n label subsets) are
    guarded by a work budget; when the budget would be exceeded the
    sub-check is {e skipped} and counted in [skipped_subchecks] — the
    certificate is then partial, never wrong. *)

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

(** [check_r ~source d] certifies [d = Rounde.r source]:
    denotations are distinct non-empty subsets of the source alphabet;
    every emitted edge pair (A, B) is valid (all cross choices
    edge-compatible in the source) and maximal (no label addable to
    either side); the emitted pair set dominates every valid pair
    (completeness — [2^n] scan, budget-guarded); and the new node
    constraint is extensionally exactly the set of configurations
    admitting a choice of representatives allowed by the source node
    constraint (budget-guarded).
    @raise Violation on any mismatch. *)
val check_r : ?work_budget:int -> source:Relim.Problem.t -> Relim.Rounde.denoted -> unit

(** [check_rbar ~source d] certifies [d = Rounde.rbar source] (where
    [source] is the problem [rbar] was applied to, i.e. [R(Π)]): every
    emitted box is valid (every choice of representatives is an
    allowed source node configuration) and maximal (no label addable
    at any position); no emitted box is dominated by another (checked
    with a fresh backtracking matcher, not the engine's transport
    solver); every allowed source configuration is covered by some
    box; and the new edge constraint contains exactly the pairs of
    used sets admitting a compatible choice.
    @raise Violation on any mismatch. *)
val check_rbar : ?work_budget:int -> source:Relim.Problem.t -> Relim.Rounde.denoted -> unit

(** [check_zero_round ~mode p verdict] certifies a 0-round
    solvability verdict.  [Some w]: [w] is an allowed node
    configuration of the right arity whose labels are all
    self-compatible ([`Mirrored]) resp. whose support is pairwise and
    self compatible ([`Arbitrary]).  [None]: re-checked exhaustively —
    every allowed configuration must fail the same property
    (budget-guarded by [expand_limit]).
    @raise Violation on any mismatch. *)
val check_zero_round :
  ?expand_limit:float ->
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
  ?work_budget:int -> source:Relim.Problem.t -> Relim.Rounde.denoted -> unit

(** [check_fixed_point p] replays one speedup step from scratch —
    sequentially, bypassing the [Fixedpoint] memo cache — and confirms
    [Simplify.normalize (step p) ≅ Simplify.normalize p] via {!Iso}.
    When the certificate hooks are installed the replayed step's own
    [R]/[R̄] outputs are certified too (the engine observers fire
    during the replay).
    @raise Violation if the replay is not isomorphic to the claim. *)
val check_fixed_point : Relim.Problem.t -> unit
