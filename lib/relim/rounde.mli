(** The automatic round-elimination operators R(·) and R̄(·) of
    Brandt's speedup theorem, as specified in Section 2.3 of the paper.

    Given Π with complexity T (on high-girth Δ-regular graphs in the
    port-numbering model), [rbar (r Π)] has complexity exactly
    [max (T - 1) 0] (Theorem 3).

    [r] works at the condensed level and is cheap for any Δ.  [rbar]
    must enumerate maximal "boxes" of label sets and requires expanding
    the node constraint; it is feasible for small Δ (roughly Δ ≤ 8 with
    up to ~8 labels) — the same practical envelope as the
    round-eliminator tool.  For the paper's problem family at large Δ,
    the symbolic machinery in the [core] library replaces the explicit
    computation (Lemma 8). *)

type denoted = {
  problem : Problem.t;
  denotations : Labelset.t array;
      (** [denotations.(l)] is the set of labels of the {e input}
          problem that new label [l] stands for. *)
}

(** Cumulative counters for the engine's hot paths, updated by every
    [r] / [rbar] call since the last {!reset_stats}.  Times are wall
    seconds ([Unix.gettimeofday]): the hot paths may fan out over
    domains, where CPU time would sum across workers.  A call that ends
    in [Budget.Budget_exceeded] adds its time and the counts its box
    search or filter scan reached before the trip: in [test/relim]'s
    work-accounting golden, col11's tripped box search and mis3-zdd's
    tripped [~zdd] scan show the boxes emitted and pruned and the
    dominance checks made up to the trip.  With more than one domain,
    those counts depend on the schedule, since workers stop at
    different points.

    Parallel sections accumulate into per-domain records that are
    merged into this global record when the section joins, so every
    counter is exact (no lost updates) and — with the two exceptions
    below — identical for every domain count.  Exceptions:
    {ul
    {- the [*_time_s] fields measure wall time and vary run to run;}
    {- [transport_cache_hits] counts hits in {e per-worker} memo
       tables, so its value depends on how boxes were scheduled onto
       workers when more than one domain is used (with one domain it is
       deterministic).}} *)
type stats = {
  mutable r_calls : int;
  mutable closures_visited : int;
      (** Galois-closed sets enumerated by [r] (vs 2^n subsets before). *)
  mutable closure_joins : int;
      (** Pairwise join closures computed during the enumeration. *)
  mutable closure_revisits : int;
      (** Joins that landed on an already-visited closed set. *)
  mutable rbar_calls : int;
  mutable rc_sets : int;
      (** Right-closed sets produced by the order-ideal enumeration. *)
  mutable boxes_emitted : int;  (** Valid boxes found by the [rbar] DFS. *)
  mutable boxes_pruned : int;
      (** DFS branches cut by the sub-multiset table. *)
  mutable box_dom_checks : int;
      (** Ordered box pairs examined by [maximal_boxes]. *)
  mutable box_dom_cheap_skips : int;
      (** Pairs rejected by the support/size screens alone. *)
  mutable box_transport_calls : int;
      (** Pairs that needed the exact transportation matching (whether
          answered by the fast path, the memo, or a fresh matching). *)
  mutable transport_cache_hits : int;
      (** Transportation verdicts answered by a per-worker memo keyed
          on the Δ×Δ subset-relation matrix of the two boxes (the
          matching verdict is a function of that matrix alone). *)
  mutable maxbox_tuples : int;
      (** Members of the allowed-tuple relation T on the fully symbolic
          R̄ path (0 when that path didn't run).  Surfaced, like the
          three fields below, as the [zdd.maxbox_*] trace counters. *)
  mutable maxbox_cubes : int;
      (** Members of the valid-box family [Zdd.boxes T] (all slot
          arrangements counted). *)
  mutable maxbox_maximal : int;
      (** Members of the Coudert-maximal family (all arrangements). *)
  mutable maxbox_enumerated : int;
      (** Canonical (slot-sorted) maximal boxes streamed out — the
          symbolic path's final box count. *)
  mutable rbar_time_s : float;
  mutable maxbox_time_s : float;
      (** Time inside the maximal-box filter (included in [rbar_time_s]). *)
}

(** The single global stats record.  Parallel sections merge their
    per-domain accumulators into it at join time; outside of a running
    [r] / [rbar] call it is safe to read and reset from the caller. *)
val stats : stats

val reset_stats : unit -> unit

(** Certificate emission hook.  When set, it is invoked — in the
    calling domain, after the stats were updated — with the source
    problem and the result of every {e successful} [r] / [rbar] call
    (budget failures raise before the hook fires).  Intended for the
    independent re-checkers in [Certify.Hooks]; an exception raised by
    the hook propagates to the engine's caller.  [None] by default. *)
val observer :
  (op:[ `R | `Rbar ] -> source:Problem.t -> denoted -> unit) option ref

(** [r p] computes Π' = R(Π): the edge constraint consists of all
    maximal pairs (A₁, A₂) of non-empty label sets whose members are
    pairwise compatible in ℰ_Π; the node constraint is obtained by
    replacing every label with the disjunction of the new labels
    containing it.

    The pairs come from the Galois-closed label sets, enumerated
    output-sensitively.  Π' has a label for every closed set except at
    most one (the full set, when no label is compatible with all of
    it), so the enumeration stops as soon as it finds
    [Labelset.max_label + 2] closed sets: Π' could not fit the label
    width.  Only the closure counters in {!stats} of such a tripped
    call depend on where it stopped.
    @raise Budget.Budget_exceeded ["Rounde.r: output alphabet width"]
    when Π' would have more than [Labelset.max_label] labels.
    @raise Failure if every node line dies (some group's labels all
    lack compatible partners), i.e. Π' would have an empty node
    constraint. *)
val r : Problem.t -> denoted

(** [rbar p'] computes Π'' = R̄(Π'): the node constraint consists of
    all maximal configurations (B₁ … B_Δ) of non-empty label sets all
    of whose choices lie in 𝒩_Π'; the edge constraint contains every
    pair of used sets admitting a compatible choice.

    There is no label cap: right-closed sets are enumerated
    output-sensitively (see {!Diagram.right_closed_sets}).

    @param expand_limit guards the node-constraint expansion (default
    2e6 concrete configurations).
    @param rc_limit guards the number of right-closed sets (default
    10⁵); a fixed internal work budget additionally bounds the box
    DFS, so genuinely exponential instances fail as fast as the old
    hard 20-label cap did.
    @param pool domain pool for the box DFS and the maximal-box filter
    (defaults to {!Parctl.default}).  The result — problem, box order,
    denotations, and budget verdicts — is identical for every domain
    count; the work budget is shared across branches through an atomic
    counter, so whether it trips is a property of the instance, not of
    the schedule.
    @param zdd run the output side on the hash-consed family
    representation from [lib/zdd] (defaults to
    {!Parctl.zdd_from_env}), as a ladder of three engines.  (1) When
    the node diagram is exact and Δ·n ≤ 62, the {e fully symbolic}
    pipeline: the box family itself is a ZDD over Δ·n slotted bits,
    built straight from the condensed node lines (never expanded),
    Coudert [Zdd.maximal] computes the whole dominance filter
    (dominance = containment up to a slot permutation in the
    permutation-closed family), and only the final maximal boxes are
    ever materialized.  (2) Otherwise the streaming compressed DFS
    over the right-closed family.  (3) Problems whose node diagram is
    inexact fall back to the explicit path.  On every instance two
    paths can both handle, the result is byte-identical — problems,
    denotations, box order and the [rc_sets] counter alike (pinned by
    the equivalence suite in [test/zdd]) — but the capacity envelope
    moves: [rc_limit] and [expand_limit] do not apply on the symbolic
    rung and [rc_limit] not on the streaming one (nothing is
    materialized; the ZDD node budget takes their place), and the
    symbolic/streaming work is charged against the shared work budget
    under the distinct names ["... box family construction work
    (zdd)"], ["... maximal box enumeration (zdd)"], ["Zdd.boxes:
    construction work"], ["... box enumeration work (zdd)"] and
    ["... maximal box scan work (zdd)"] (the quadratic dominance scan
    that filters the DFS rungs' boxes, charged per pair check), so
    instances that trip a budget on one path may complete — or trip a
    differently-named budget — on the other.  Engine-dependent
    counters: [boxes_emitted] counts only the surviving boxes on the
    symbolic rung (the DFS paths count every valid box);
    [boxes_pruned] stays 0 on the compressed rungs (pruned candidates
    are never enumerated); the [box_dom_*]/[*transport*] counters stay
    0 on the symbolic rung and equal the explicit path's on the
    streaming rung, which filters with the same scan; the [maxbox_*]
    family counters move only on the symbolic rung.  The search runs
    in the calling domain ([?pool] still drives the dominance
    scan).
    @raise Budget.Budget_exceeded if any budget is exceeded. *)
val rbar :
  ?expand_limit:float -> ?rc_limit:int -> ?pool:Parallel.Pool.t ->
  ?zdd:bool -> Problem.t -> denoted

(** [maximal_boxes ?pool ~zdd boxes] keeps the boxes no other box of
    [boxes] dominates, in input order.  Box [b] is dominated by [b']
    when their sets differ and an injective map sends every set of [b]
    into a superset in [b'] — the maximality filter of R̄ on its DFS
    rungs.  All boxes must have the same length Δ.

    Cost: one scan per box over the candidates of at least its total
    cardinality, in decreasing total order, so O(boxes²) pair checks
    at worst.  Box data lives in flat int arrays in that order, a few
    ints per set and per box.  A pair first meets two O(Δ) screens
    (support inclusion, elementwise domination of the sorted size
    vectors); a pair that passes and has different sets is decided by
    a per-worker memo of transport verdicts keyed on the pair's Δ×Δ
    subset-relation matrix, which costs Δ² subset tests, and a miss
    runs a bipartite matching.  The counters this adds to {!stats}:
    [box_dom_checks] counts the ordered pairs examined,
    [box_dom_cheap_skips] those the two screens reject,
    [box_transport_calls] those that needed the exact verdict (whether
    answered by equal size vectors, the memo, or a fresh matching) and
    [transport_cache_hits] the memo's hits.  Boxes are visited in input
    order, in chunks of 16 over [?pool].

    Under [~zdd] every check is charged against the box-work budget,
    which trips as ["Rounde.rbar: maximal box scan work (zdd)"].
    @raise Invalid_argument if the boxes differ in length.
    @raise Budget.Budget_exceeded if that budget is exceeded. *)
val maximal_boxes :
  ?pool:Parallel.Pool.t -> zdd:bool -> Labelset.t list list -> Labelset.t list list

(** [box_leq a b]: does an injective map send every set of [a] into a
    superset in [b]?  Decided by the filter's own key packing and
    matcher, without the memo or the screens.
    @raise Invalid_argument if [a] and [b] differ in length. *)
val box_leq : Labelset.t array -> Labelset.t array -> bool

(** [step p] is [rbar (r p)], trimmed, with a composed name.  The
    denotations relate labels of the result to labels of [r p].
    [?pool] and [?zdd] are passed through to {!rbar}. *)
val step :
  ?expand_limit:float -> ?rc_limit:int -> ?pool:Parallel.Pool.t ->
  ?zdd:bool -> Problem.t -> denoted
