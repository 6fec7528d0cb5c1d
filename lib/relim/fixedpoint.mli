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

(** [detect ?max_steps ?expand_limit ?pool p] iterates [R̄ ∘ R]
    (normalizing after each step) on [Simplify.normalize p], looking for
    stabilization up to renaming.  [max_steps] (default 5) counts
    [R̄ ∘ R] applications; the first application always runs, whatever
    [max_steps] is.

    Speedup results are memoized across calls in a process-global
    cache keyed by the normalized problem up to isomorphism
    ({!Iso.invariant_hash} buckets + isomorphism check), so repeated
    detection over a family of related problems reuses work.  A cache
    hit may return an isomorphic representative of the step result
    rather than the structurally identical problem — detection only
    ever compares up to renaming, so verdicts are unaffected.  The
    cache ignores [expand_limit] (memoized values are limit-independent
    results of successful steps) and [pool] (results are identical for
    every domain count, so the pool is purely a performance knob; it is
    passed through to {!Rounde.step}, defaulting to {!Parctl.default}).
    @raise Budget.Budget_exceeded if a step exceeds the engine's
    budgets. *)
val detect :
  ?max_steps:int -> ?expand_limit:float -> ?pool:Parallel.Pool.t ->
  Problem.t -> verdict

(** Counters for the memoized driver: logical step applications
    (including cache hits), cache hits/misses, and wall seconds spent in
    uncached steps (wall, not CPU: steps may fan out over domains).  [step_time_s] covers [Rounde.step] plus the
    subsequent [Simplify.normalize]; [normalize_time_s] is the
    normalization share of it. *)
type stats = {
  mutable steps_applied : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable hash_conflicts : int;
      (** Bucket entries whose {!Iso.invariant_hash} matched the query
          but which failed the in-bucket isomorphism check — i.e. hash
          collisions between non-isomorphic problems that the cache
          survived rather than trusted.  Also mirrored into the trace
          as [fixedpoint.hash_conflicts]. *)
  mutable step_time_s : float;
  mutable normalize_time_s : float;
}

val stats : stats

val reset_stats : unit -> unit

(** Drop all memoized speedup results. *)
val clear_cache : unit -> unit

(** Certificate emission hook.  When set, it is invoked with the fixed
    problem each time {!detect} confirms a fixed point — immediate
    ([Fixed_point]) or eventual ([Reaches_fixed_point]) — before the
    verdict is returned.  Intended for the independent re-checkers in
    [Certify.Hooks], which replay one sequential speedup step from
    scratch, bypassing the memo cache.  [None] by default. *)
val fixed_point_observer : (Problem.t -> unit) option ref

(** Convenience: [Some (det, rand)] lower-bound statement strings when
    a fixed point (immediate or eventual) was found and the fixed
    problem is not 0-round solvable under arbitrary ports. *)
val lower_bound_statement : verdict -> string option
