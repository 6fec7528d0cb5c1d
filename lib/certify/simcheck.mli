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
    The witness direction simulates on 3 random trees of 16 nodes
    each.  Exhaustive refutations whose tuple space [|Σ|^Δ] exceeds
    100,000 are skipped. *)

(** [cross_check ~mode p verdict] — see above.
    @param seed base seed of the random trees (default 0).
    @raise Check.Violation when the simulation contradicts the
    verdict. *)
val cross_check :
  ?seed:int ->
  mode:[ `Mirrored | `Arbitrary ] ->
  Relim.Problem.t ->
  Relim.Multiset.t option ->
  unit
