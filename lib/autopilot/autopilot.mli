(** Automated search over relaxed round-elimination sequences.

    The plain speedup step [R̄ ∘ R] blows up the label count doubly
    exponentially (Section 1.2 of the paper); every known lower-bound
    proof interleaves a {e relaxation} between [R] and [R̄] to keep the
    problem description bounded.  Finding the right relaxation is the
    creative step of such proofs.  This module automates a useful
    fragment of it: starting from a problem Π it repeatedly computes
    [R(Π)], proposes candidate relaxations of the result by walking the
    label-strength diagram, applies [R̄] to the candidates, continues
    from the best-ranked result (see {!search}), and watches for the
    sequence of reached states to close a cycle.

    {2 Candidate relaxations: quotients by right-closed covers}

    A candidate is a {e cover} 𝒮 of the labels of [R(Π)] by principal
    filters of its node diagram (label [y] together with every strictly
    stronger label) plus the universe set.  The relaxed problem [Q] has
    one label per cover set and constraints obtained by replacing every
    label [y] with the disjunction of the sets containing it.  Such a
    quotient is {e unconditionally} a 0-round relaxation of [R(Π)] —
    each node can rewrite its own output ports using its node-line
    witness, and the full image is allowed on the edge side — which is
    exactly what {!Certify.Check.check_relaxation} re-verifies.  The
    identity relaxation (no information loss) is always tried first;
    covers only matter when the plain step exceeds its budgets.

    The labels of [Q] are [q0 … q(k−1)] in cover order, as the paper
    gives its relaxed problem Π⁺ fresh letters; the sets they stand for
    live in the certificate's relaxed denotations.

    {2 Soundness}

    Every accepted step is packaged as a
    {!Certify.Certificate.Relaxed_step} and re-validated by the
    independent checker before it counts; a step that fails validation
    is rejected and the search stops rather than continuing on an
    unverified state.  A certified relaxed step proves
    [T(next) <= max (T(state) - 1) 0], so:
    {ul
    {- a cycle through non-0-round-solvable states ({!Fixed_point})
       yields the standard Ω(log n) deterministic / Ω(log log n)
       randomized LOCAL lower bounds;}
    {- reaching a 0-round-solvable state after [k] certified steps
       ({!Upper_bound}) proves the source is solvable in [k] rounds in
       the port-numbering model on high-girth Δ-regular instances.}}

    Note the paper's Π_Δ(a,x) family has {e no} fixed point at fixed
    parameters — its lower-bound chains strictly decrease the
    parameters and are finite (Θ(log Δ) long, see [Core.Sequence]) — so
    on those inputs the honest outcome is {!Upper_bound} or
    {!Exhausted}, never {!Fixed_point}.  The canonical certified
    rediscovery target is sinkless orientation. *)

type limits = {
  max_steps : int;  (** Search depth: accepted steps before giving up. *)
  beam : int;
      (** Candidate covers evaluated per step when the identity
          relaxation trips a budget.  With [0] no cover is built, and
          the search is the plain [R̄ ∘ R] iteration (certified and
          cycle-checked), as [roundelim upper-bound] runs it. *)
  expand_limit : float;
      (** Per-candidate budget for [R̄]'s node-constraint expansion. *)
  rc_limit : int;
      (** Per-candidate budget for [R̄]'s right-closed-set enumeration. *)
  max_labels : int;
      (** Relaxed problems with more labels than this are skipped. *)
}

val default_limits : limits

type verdict =
  | Fixed_point of { problem : Relim.Problem.t; period : int }
      (** The search returned to a previously visited (normalized,
          non-0-round-solvable) state: the last [period] accepted
          steps form a certified relaxed cycle, hence Ω(log n) /
          Ω(log log n) LOCAL lower bounds for the source problem. *)
  | Upper_bound of { steps : int }
      (** A 0-round-solvable state was reached after [steps] certified
          relaxed steps: the source is solvable in [steps] rounds in
          the PN model on high-girth Δ-regular instances. *)
  | Exhausted of { last : Relim.Problem.t }
      (** Step budget spent, every candidate budget-tripped, or a
          certificate failed validation; [last] is the final state. *)

type accepted = {
  step_index : int;  (** 1-based index of the step in the sequence. *)
  cover : int option;
      (** [None] for the identity relaxation, [Some n] for a quotient
          by a cover of [n] sets. *)
  result_labels : int;  (** Labels of the resulting normalized state. *)
  certificate : Certify.Certificate.t;
      (** The validated {!Certify.Certificate.Relaxed_step}. *)
}

type report = {
  verdict : verdict;
  steps : accepted list;  (** Accepted steps, in order. *)
  candidates_explored : int;
      (** Candidates attempted, including budget-skipped ones. *)
  budget_skips : int;
      (** Candidates abandoned on {!Relim.Budget.Budget_exceeded}. *)
  certified_steps : int;
      (** Accepted steps whose certificate validated — always equal to
          [List.length steps]; a validation failure ends the search. *)
  wall_s : float;
}

(** [search p] runs the autopilot from [Simplify.normalize p].  States
    are normalized between steps; cycle detection compares against
    every state on the path with {!Relim.Iso}.

    Each step ranks its viable candidates (those whose [R̄] fits the
    budgets) by one key and accepts the first, ties kept in cover
    order: a candidate that closes a cycle comes first, shortest period
    first; then a state that is not 0-round solvable, fewest labels
    first; then a 0-round-solvable state, fewest labels first, which
    the next step turns into an {!Upper_bound}.

    The 0-round decider runs once per state: an accepted candidate's
    answer is the answer for the state it becomes.  A budget trip of
    the decider on a candidate ranks it as not 0-round solvable.  On
    the state the search stands on (the normalized input, then each
    accepted state) the trip propagates: the search cannot go past an
    unknown answer, so an accepted candidate whose decider tripped is
    decided again, and that trip raises.  A [Failure] of the engine (an
    empty constraint after [R] or [R̄]) propagates too.

    Emits [autopilot.*] trace spans, instants and counters when tracing
    is enabled.  [pool] feeds the engine's parallel hot paths (the
    verdict is identical for every domain count).  [zdd] picks the R̄
    rung of every candidate's {!Relim.Rounde.rbar} (default:
    [RELIM_ZDD]); wherever both rungs complete the verdict is the
    same, but a budget skip can differ, since the rungs trip distinct
    budgets.
    @raise Relim.Budget.Budget_exceeded when the 0-round decider trips
    on the current state. *)
val search :
  ?limits:limits -> ?pool:Parallel.Pool.t -> ?zdd:bool -> Relim.Problem.t ->
  report

(** One-line rendering of a verdict, e.g. for CLIs and logs. *)
val verdict_string : verdict -> string
