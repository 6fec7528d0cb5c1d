(** Differential validation of 0-round verdicts against the simulator.

    The engine's deciders ({!Relim.Zeroround}) work symbolically on
    the constraints.  This module cross-checks their verdicts by
    actually {e running} candidate 0-round algorithms with
    [Localsim.Run] on finite trees from [Dsgraph.Tree_gen] and
    checking the produced labelings with [Lcl.Labeling]:

    - a [Some w] verdict is turned into the 0-round algorithm the
      witness induces (each node outputs a fixed tuple of labels on
      its ports — resp. per input edge color in the mirrored model)
      and simulated on random trees; the labeling must be valid with
      the [`Extendable] boundary convention;
    - a [None] verdict is refuted-tested exhaustively: for {e every}
      candidate degree-Δ output tuple [t ∈ Σ^Δ] an adversarial
      instance from the double-star family (caterpillar with two
      degree-Δ centers, center ports chosen with
      [Graph.permute_ports], resp. an adversarial proper edge
      coloring) is constructed on which the simulated algorithm must
      produce the predicted node or edge violation.  Only the
      violation at the centers / the center-center edge is asserted,
      so the (arbitrary) behavior of the algorithm on other degrees is
      irrelevant — the refutation covers every 0-round algorithm.

    A verdict the simulation contradicts raises {!Check.Violation}.
    Exhaustive refutations whose tuple space exceeds [tuple_budget]
    are skipped. *)

(** [cross_check ~mode p verdict] — see above.
    @param trees number of random trees for the witness direction
    (default 3).
    @param tree_size nodes per random tree (default 16).
    @param tuple_budget cap on [|Σ|^Δ] for the exhaustive refutation
    (default 100_000).
    @raise Check.Violation when the simulation contradicts the
    verdict. *)
val cross_check :
  ?trees:int ->
  ?tree_size:int ->
  ?tuple_budget:int ->
  ?seed:int ->
  mode:[ `Mirrored | `Arbitrary ] ->
  Relim.Problem.t ->
  Relim.Multiset.t option ->
  unit
