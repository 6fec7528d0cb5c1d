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
    in [Budget.Budget_exceeded] adds its time too.

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

(** [step p] is [rbar (r p)], trimmed, with a composed name.  The
    denotations relate labels of the result to labels of [r p].
    [?pool] and [?zdd] are passed through to {!rbar}. *)
val step :
  ?expand_limit:float -> ?rc_limit:int -> ?pool:Parallel.Pool.t ->
  ?zdd:bool -> Problem.t -> denoted
