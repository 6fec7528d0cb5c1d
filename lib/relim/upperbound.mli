(** Upper bounds by iterated speedup (the "upper bound sequences" use
    of round elimination, Section 1.2 of the paper).

    By Theorem 3, Π is solvable in T rounds iff [R̄(R(Π))] is solvable
    in max(T-1, 0); so if T speedup steps reach a 0-round-solvable
    problem, the original is T-round solvable (on high-girth Δ-regular
    instances, in the PN model).

    The 0-round decider used here ({!Zeroround.solvable_arbitrary_ports})
    ignores the edge-port orientations the model technically provides,
    so it may declare some 0-round-solvable problems unsolvable — the
    reported upper bound is therefore {e sound} but possibly not tight.
    Blow-up limits make this practical only for a few steps, exactly as
    with the round-eliminator tool. *)

type outcome =
  | Solvable_in of int  (** 0-round solvable after this many steps. *)
  | Unknown_after of int
      (** Budget exhausted (steps or label blow-up) after this many
          completed steps. *)

(** [?pool] is passed through to the speedup steps and the 0-round
    decider (default {!Parctl.default}); the outcome is identical for
    every domain count.  [?zdd] selects the step engine (default
    {!Parctl.zdd_from_env}); note the capacity envelope moves with it —
    [expand_limit] is an explicit-path guard the fully symbolic rung
    does not consult (see {!Rounde.rbar}), so a tiny limit that stops
    the explicit search at step 0 may let the symbolic one run on.
    A budget trip or [Failure] in a speedup step ends the search with
    [Unknown_after]; one in the 0-round decider is not caught.
    @raise Budget.Budget_exceeded when the 0-round decider's
    maximal-clique budget trips. *)
val search :
  ?max_steps:int -> ?expand_limit:float -> ?pool:Parallel.Pool.t ->
  ?zdd:bool -> Problem.t -> outcome
