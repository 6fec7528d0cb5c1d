(** Simplification operations on problems.

    Round elimination blows up the label count doubly exponentially
    (Section 1.2 of the paper); all known lower-bound proofs interleave
    speedup steps with {e simplifications} that shrink the description
    again.  A simplification must only make the problem {e easier} (or
    keep it equivalent): a solution of the original must convert to a
    solution of the simplified problem in 0 rounds.  The operations
    here are the standard ones from the round-eliminator tool. *)

type label = Labelset.label

(** [merge p ~from_ ~into_] replaces every occurrence of [from_] by
    [into_] and drops [from_] from the alphabet.  This is a {e
    relaxation} (the simplified problem is at most as hard) whenever
    [into_] is at least as strong as [from_] in both diagrams; the
    function performs the merge unconditionally — see
    {!merge_is_sound}. *)
val merge : Problem.t -> from_:string -> into_:string -> Problem.t

(** Is merging [from_] into [into_] sound, i.e. is [into_] at least as
    strong as [from_] w.r.t. both the edge and the node constraint?
    (Then any valid labeling stays valid after the rewrite, so the
    merged problem is solvable whenever the original is.)
    Node-constraint strength uses the exact diagram when the constraint
    expands within {!Diagram.node_diagram}'s default limit (200,000
    configurations). *)
val merge_is_sound : Problem.t -> from_:string -> into_:string -> bool

(** Merge every pair of labels that is {e equivalent} in both diagrams
    (mutually at-least-as-strong); sound and lossless.  Returns the
    problem unchanged if no pair qualifies.  The node diagram is built
    as in {!merge_is_sound}. *)
val merge_equivalent : Problem.t -> Problem.t

(** Remove every constraint line that another line of the same
    constraint covers ({!Line.covers}: it denotes only configurations
    the other line already allows); the problem is unchanged
    semantically.  The kept lines are exactly the cover-maximal ones,
    since [covers] is antisymmetric on canonical lines.  A pair of lines
    gets a [covers] max-flow only when the inner line's support is a
    subset of the outer line's, so L lines cost L² one-word tests plus
    one max-flow per pair that passes. *)
val drop_redundant_lines : Problem.t -> Problem.t

(** [normalize p] — [drop_redundant_lines], then {!Problem.trim}; traced
    as a [simplify.normalize] span.  A cheap canonicalization used
    after every speedup step and before isomorphism checks: mm Δ=3's
    third step result has 599 edge lines, 976 of whose 358,202 ordered
    pairs pass the support screen, and normalizes in a few
    milliseconds. *)
val normalize : Problem.t -> Problem.t
