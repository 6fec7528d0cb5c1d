(** Fixed-point detection for round elimination.

    If a non-0-round-solvable problem Π satisfies [R̄(R(Π)) ≅ Π] (after
    normalization), then no finite chain of speedup steps ever reaches
    a 0-round-solvable problem, which by the standard argument yields
    Ω(log n) deterministic and Ω(log log n) randomized lower bounds in
    the LOCAL model (the "fixed points" technique of Section 1.2; the
    canonical example is sinkless orientation [Brandt et al. '16]). *)

type verdict =
  | Fixed_point of Problem.t * (Labelset.label * Labelset.label) list
      (** [R̄(R(Π))] is isomorphic to Π (normalized); the witnessing
          renaming maps labels of the speedup result to labels of the
          normalized input, which is returned. *)
  | Reaches_fixed_point of int * Problem.t
      (** [Reaches_fixed_point (i, p)]: iterating the speedup step
          stabilized; [i] is the exact number of [R̄ ∘ R] applications
          performed, and [p] — the fixed problem — is the result of
          [i - 1] of them (the [i]-th application confirmed [p ≅
          step p]).  So [i >= 2] always. *)
  | No_fixed_point_found of Problem.t
      (** Not stabilized within the step budget; the last problem
          reached is returned. *)

(** [detect ?max_steps ?expand_limit ?pool ?zdd p] iterates [R̄ ∘ R]
    (normalizing after each step) on [Simplify.normalize p], looking for
    stabilization up to renaming.  [max_steps] (default 5) counts
    [R̄ ∘ R] applications; the first application always runs, whatever
    [max_steps] is.  So a verdict found in [i] applications is found
    under every [max_steps >= i].

    Every call computes its steps afresh, so the verdict, and the
    problems it carries, depend only on the arguments: on [p] itself,
    not on an isomorphic problem seen by an earlier call.  [pool] and
    [zdd] are passed through to every {!Rounde.step} (defaulting to
    {!Parctl.default} and to [RELIM_ZDD]); results are identical for
    every domain count and, wherever both complete, for either R̄ rung.
    @raise Budget.Budget_exceeded if a step exceeds the engine's
    budgets. *)
val detect :
  ?max_steps:int -> ?expand_limit:float -> ?pool:Parallel.Pool.t ->
  ?zdd:bool -> Problem.t -> verdict

(** [steps_applied] counts [R̄ ∘ R] applications since the last
    {!reset_stats}; a [Reaches_fixed_point (i, _)] verdict adds [i].
    Mirrored into the trace as the [fixedpoint.steps_applied] counter,
    sampled at the end of every [fixedpoint.step] span, whose wall time
    covers the step and its normalization. *)
type stats = { mutable steps_applied : int }

val stats : stats

val reset_stats : unit -> unit

(** A no-op: {!detect} keeps no state between calls.  It remains only
    because [relbench/engine_wl.ml] calls it before every search; the
    call and this function go together at the next change to that
    benchmark. *)
val clear_cache : unit -> unit

(** Certificate emission hook.  When set, it is invoked with the fixed
    problem each time {!detect} confirms a fixed point — immediate
    ([Fixed_point]) or eventual ([Reaches_fixed_point]) — before the
    verdict is returned.  Intended for the independent re-checkers in
    [Certify.Hooks], which replay one sequential speedup step from
    scratch.  [None] by default. *)
val fixed_point_observer : (Problem.t -> unit) option ref

(** Convenience: [Some (det, rand)] lower-bound statement strings when
    a fixed point (immediate or eventual) was found and the fixed
    problem is not 0-round solvable under arbitrary ports. *)
val lower_bound_statement : verdict -> string option
