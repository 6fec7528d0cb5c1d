type denoted = { problem : Problem.t; denotations : Labelset.t array }

type stats = {
  mutable r_calls : int;
  mutable closures_visited : int;
  mutable closure_joins : int;
  mutable closure_revisits : int;
  mutable rbar_calls : int;
  mutable rc_sets : int;
  mutable boxes_emitted : int;
  mutable boxes_pruned : int;
  mutable box_dom_checks : int;
  mutable box_dom_cheap_skips : int;
  mutable box_transport_calls : int;
  mutable transport_cache_hits : int;
  mutable maxbox_tuples : int;
  mutable maxbox_cubes : int;
  mutable maxbox_maximal : int;
  mutable maxbox_enumerated : int;
  mutable rbar_time_s : float;
  mutable maxbox_time_s : float;
}

let stats =
  {
    r_calls = 0;
    closures_visited = 0;
    closure_joins = 0;
    closure_revisits = 0;
    rbar_calls = 0;
    rc_sets = 0;
    boxes_emitted = 0;
    boxes_pruned = 0;
    box_dom_checks = 0;
    box_dom_cheap_skips = 0;
    box_transport_calls = 0;
    transport_cache_hits = 0;
    maxbox_tuples = 0;
    maxbox_cubes = 0;
    maxbox_maximal = 0;
    maxbox_enumerated = 0;
    rbar_time_s = 0.;
    maxbox_time_s = 0.;
  }

(* Wall-clock time: the engine may fan out over domains, so CPU time
   ([Sys.time], which sums over threads) would be misleading. *)
let now () = Unix.gettimeofday ()

(* [timed add f] runs [f] and passes its wall time to [add], also when
   [f] raises: a call that ends in [Budget_exceeded] still shows the
   time it spent in [--stats]. *)
let timed add f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add (now () -. t0)) f

let add_rbar_time dt = stats.rbar_time_s <- stats.rbar_time_s +. dt

let add_maxbox_time dt = stats.maxbox_time_s <- stats.maxbox_time_s +. dt

(* Certificate emission hook: fired with (source problem, result) after
   every successful [r] / [rbar] call, in the calling domain.  Budget
   failures raise before the hook fires, so an installed checker only
   ever sees results the engine actually returned.  Installed by
   [Certify.Hooks]; [None] (the default) costs one load per call. *)
let observer : (op:[ `R | `Rbar ] -> source:Problem.t -> denoted -> unit) option ref =
  ref None

let notify op source result =
  match !observer with None -> () | Some f -> f ~op ~source result

let reset_stats () =
  stats.r_calls <- 0;
  stats.closures_visited <- 0;
  stats.closure_joins <- 0;
  stats.closure_revisits <- 0;
  stats.rbar_calls <- 0;
  stats.rc_sets <- 0;
  stats.boxes_emitted <- 0;
  stats.boxes_pruned <- 0;
  stats.box_dom_checks <- 0;
  stats.box_dom_cheap_skips <- 0;
  stats.box_transport_calls <- 0;
  stats.transport_cache_hits <- 0;
  stats.maxbox_tuples <- 0;
  stats.maxbox_cubes <- 0;
  stats.maxbox_maximal <- 0;
  stats.maxbox_enumerated <- 0;
  stats.rbar_time_s <- 0.;
  stats.maxbox_time_s <- 0.

(* Per-label neighbor masks: nbr.(b) = { a | compat a b }. *)
let neighbor_masks compat n =
  Array.init n (fun b ->
      let acc = ref Labelset.empty in
      for a = 0 to n - 1 do
        if compat.(a).(b) then acc := Labelset.add a !acc
      done;
      !acc)

(* [neighbors nbr n s] = the set of labels compatible with every member
   of [s]: a fold of word-level ANDs over the members' masks. *)
let neighbors nbr n s =
  Labelset.fold (fun a acc -> Labelset.inter acc nbr.(a)) s (Labelset.full n)

(* All Galois-closed label sets cl(S) = N(N(S)) arising from non-empty
   S, where N is [neighbors].  Since the compatibility relation is
   symmetric, N is its own adjoint and cl(S) is the join (in the
   closure lattice) of the singleton closures cl({a}), a ∈ S — so a BFS
   from the singleton closures, joining each newly discovered closed
   set with every previously discovered one, visits each closed set
   exactly once.  The closure lattice is exponentially smaller than the
   2^n subset lattice in practice.

   R's labels are the closed sets C with N(C) non-empty, and only the
   full label set can have N(C) empty (then C = N(∅)).  So R's output
   is too wide for [Labelset] as soon as [max_label + 2] distinct
   closed sets are found, and the width budget trips there, before the
   rest of the lattice is enumerated. *)
let r_width_exceeded () =
  Budget.exceeded ~budget:"Rounde.r: output alphabet width"
    ~limit:(float_of_int Labelset.max_label)

let closed_sets nbr n =
  let closure s = neighbors nbr n (neighbors nbr n s) in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enqueue s =
    let key = Labelset.to_bits s in
    if Hashtbl.mem visited key then
      stats.closure_revisits <- stats.closure_revisits + 1
    else begin
      Hashtbl.add visited key ();
      if Hashtbl.length visited > Labelset.max_label + 1 then
        r_width_exceeded ();
      Queue.add s queue
    end
  in
  (* cl({a}) = N(N({a})) and N({a}) is just the mask of a. *)
  for a = 0 to n - 1 do
    enqueue (neighbors nbr n nbr.(a))
  done;
  let closed = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    stats.closures_visited <- stats.closures_visited + 1;
    List.iter
      (fun t ->
        stats.closure_joins <- stats.closure_joins + 1;
        enqueue (closure (Labelset.union s t)))
      !closed;
    closed := s :: !closed
  done;
  !closed

(* Build a fresh alphabet whose label [i] denotes the label set
   [denots.(i)] of [base]. *)
let intern_sets base denots =
  let names = Array.to_list (Array.map (Alphabet.set_name base) denots) in
  Alphabet.create names

(* Counter samples mirror the cumulative legacy [stats] fields into the
   trace at span boundaries; [bench/validate_trace.ml] reconciles them
   against the span structure (e.g. the final [rounde.r_calls] must
   equal the number of closed [rounde.r] spans).  All [stats] writes
   happen in the calling domain (parallel sections merge at join before
   the span ends), so sampling here is race-free. *)
let sample_r_counters () =
  Trace.counters
    [
      ("rounde.r_calls", stats.r_calls);
      ("rounde.closures_visited", stats.closures_visited);
      ("rounde.closure_joins", stats.closure_joins);
      ("rounde.closure_revisits", stats.closure_revisits);
    ]

let sample_rbar_counters () =
  Trace.counters
    [
      ("rounde.rbar_calls", stats.rbar_calls);
      ("rounde.rc_sets", stats.rc_sets);
      ("rounde.boxes_emitted", stats.boxes_emitted);
      ("rounde.boxes_pruned", stats.boxes_pruned);
      ("rounde.box_dom_checks", stats.box_dom_checks);
      ("rounde.box_dom_cheap_skips", stats.box_dom_cheap_skips);
      ("rounde.box_transport_calls", stats.box_transport_calls);
      ("rounde.transport_cache_hits", stats.transport_cache_hits);
      (* Cumulative across all managers (and hence monotone between
         resets), whether or not the ZDD path ran this call. *)
      ("zdd.nodes", Zdd.stats.Zdd.nodes);
      ("zdd.cache_hits", Zdd.stats.Zdd.cache_hits);
      ("zdd.peak_unique", Zdd.stats.Zdd.peak_unique);
      (* Fully symbolic R̄ output side: family cardinalities of the
         slotted pipeline (0 whenever the symbolic path didn't run). *)
      ("zdd.maxbox_tuples", stats.maxbox_tuples);
      ("zdd.maxbox_cubes", stats.maxbox_cubes);
      ("zdd.maxbox_maximal", stats.maxbox_maximal);
      ("zdd.maxbox_enumerated", stats.maxbox_enumerated);
    ]

let r_impl (p : Problem.t) =
  stats.r_calls <- stats.r_calls + 1;
  let n = Alphabet.size p.alpha in
  let compat = Problem.compat_matrix p in
  let nbr = neighbor_masks compat n in
  (* Maximal valid pairs are the closed pairs of the Galois connection
     S ↦ neighbors(S): exactly the pairs (A, N(A)) over closed A with
     N(A) non-empty (each unordered pair arises from both of its
     components, which are both closed). *)
  let module LS = Set.Make (struct
    type t = Labelset.t * Labelset.t

    let compare (a1, a2) (b1, b2) =
      match Labelset.compare a1 b1 with 0 -> Labelset.compare a2 b2 | c -> c
  end) in
  let pairs = ref LS.empty in
  List.iter
    (fun s ->
      let t = neighbors nbr n s in
      if not (Labelset.is_empty t) then begin
        (* s is closed, so s = N(t) already. *)
        let pair = if Labelset.compare s t <= 0 then (s, t) else (t, s) in
        pairs := LS.add pair !pairs
      end)
    (closed_sets nbr n);
  let pairs = LS.elements !pairs in
  (* New alphabet: all sets occurring in maximal pairs. *)
  let module SS = Set.Make (struct
    type t = Labelset.t

    let compare = Labelset.compare
  end) in
  let sets =
    List.fold_left (fun acc (a, b) -> SS.add a (SS.add b acc)) SS.empty pairs
  in
  let denots = Array.of_list (SS.elements sets) in
  if Array.length denots > Labelset.max_label then r_width_exceeded ();
  let alpha' = intern_sets p.alpha denots in
  let index_of =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.add tbl (Labelset.to_bits s) i) denots;
    fun s -> Hashtbl.find tbl (Labelset.to_bits s)
  in
  let edge_lines =
    List.map
      (fun (a, b) ->
        let ia = index_of a and ib = index_of b in
        if ia = ib then Line.make [ (Labelset.singleton ia, 2) ]
        else Line.make [ (Labelset.singleton ia, 1); (Labelset.singleton ib, 1) ])
      pairs
  in
  (* Node constraint: replace each original label y by the disjunction
     of new labels whose denotation contains y; group-wise this is the
     set of new labels intersecting the group's symbol set. *)
  let new_labels_meeting s_old =
    let acc = ref Labelset.empty in
    Array.iteri
      (fun i denot ->
        if not (Labelset.is_empty (Labelset.inter denot s_old)) then
          acc := Labelset.add i !acc)
      denots;
    !acc
  in
  let node_lines =
    List.filter_map
      (fun line ->
        let groups = Line.groups line in
        if
          List.for_all
            (fun (s, _) -> not (Labelset.is_empty (new_labels_meeting s)))
            groups
        then
          Some (Line.make (List.map (fun (s, c) -> (new_labels_meeting s, c)) groups))
        else None)
      (Constr.lines p.node)
  in
  (* Every node line can die (a group whose labels all lack compatible
     partners is unrealizable); fail as loudly as [rbar] does instead
     of letting [Constr.make] reject the empty list with a generic
     [Invalid_argument]. *)
  if node_lines = [] then
    failwith "Rounde.r: empty node constraint (no node line survived)";
  let problem =
    Problem.make
      ~name:(Printf.sprintf "R(%s)" p.name)
      ~alpha:alpha' ~node:(Constr.make node_lines)
      ~edge:(Constr.make edge_lines)
  in
  { problem; denotations = denots }

let r (p : Problem.t) =
  Trace.with_span "rounde.r"
    ~attrs:[ ("problem", p.name) ]
    (fun () ->
      let result = r_impl p in
      notify `R p result;
      sample_r_counters ();
      result)

(* --- R̄ ---------------------------------------------------------- *)

module MsTbl = Hashtbl.Make (struct
  type t = Multiset.t

  let equal = Multiset.equal

  let hash = Multiset.hash
end)

(* Both box searches run on int *states*.  Every sub-multiset of an
   allowed configuration is a state, numbered once per call when the
   table is built; the empty multiset is state 0.  The table is shared
   and read-only.  A transition maps a state and a label to the state
   of the multiset with that label added, or to [dead] when that
   multiset fits in no allowed configuration.  Each worker fills its
   own transitions lazily ([walker]), so a search hashes one multiset
   per (state, label) pair it reaches, once, and otherwise reads
   arrays. *)
type states = { ids : int MsTbl.t; members : Multiset.t array }

let sub_multiset_states configs =
  let empty = Multiset.of_list [] in
  let ids = MsTbl.create 65536 in
  let members = ref [ empty ] in
  MsTbl.add ids empty 0;
  List.iter
    (fun m ->
      Multiset.sub_multisets m (fun sub ->
          if not (MsTbl.mem ids sub) then begin
            MsTbl.add ids sub (MsTbl.length ids);
            members := sub :: !members
          end))
    configs;
  { ids; members = Array.of_list (List.rev !members) }

let dead = -1

let unknown = -2

(* One worker's view of the states.  [next.(s)] is [||] until state [s]
   is first extended, then holds the transition of every label
   ([unknown] until computed).  [rows.(s)] is the mask of labels with a
   live transition from [s], or -1 until computed.  [extend] collects
   the distinct states of one extension in [buf.(0 .. len-1)], marking
   each with the current [stamp] in [seen]. *)
type walker = {
  states : states;
  width : int;
  next : int array array;
  rows : int array;
  seen : int array;
  mutable stamp : int;
  mutable buf : int array;
  mutable len : int;
}

let walker states width =
  let k = Array.length states.members in
  {
    states;
    width;
    next = Array.make k [||];
    rows = Array.make k (-1);
    seen = Array.make k 0;
    stamp = 0;
    buf = Array.make 64 0;
    len = 0;
  }

let transition w s x =
  let row =
    match w.next.(s) with
    | [||] ->
        let row = Array.make w.width unknown in
        w.next.(s) <- row;
        row
    | row -> row
  in
  let t = row.(x) in
  if t <> unknown then t
  else begin
    let t =
      match MsTbl.find_opt w.states.ids (Multiset.add x w.states.members.(s)) with
      | Some t -> t
      | None -> dead
    in
    row.(x) <- t;
    t
  end

let row w s =
  if w.rows.(s) >= 0 then Labelset.of_bits w.rows.(s)
  else begin
    let r = ref Labelset.empty in
    for x = 0 to w.width - 1 do
      if transition w s x <> dead then r := Labelset.add x !r
    done;
    w.rows.(s) <- Labelset.to_bits !r;
    !r
  end

let push w t =
  if w.seen.(t) <> w.stamp then begin
    w.seen.(t) <- w.stamp;
    if w.len = Array.length w.buf then begin
      let buf = Array.make (2 * w.len) 0 in
      Array.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end;
    w.buf.(w.len) <- t;
    w.len <- w.len + 1
  end

(* Push the states [p + x], [x ∈ xs]; false at the first dead one. *)
let rec push_successors w p xs =
  Labelset.is_empty xs
  ||
  let x = Labelset.choose xs in
  let t = transition w p x in
  t <> dead
  && begin
       push w t;
       push_successors w p (Labelset.remove x xs)
     end

let rec push_all w partials xs i =
  i = Array.length partials
  || (push_successors w partials.(i) xs && push_all w partials xs (i + 1))

(* The distinct states [p + x] over [p ∈ partials] and [x ∈ xs], or
   [None] as soon as one of them is dead. *)
let extend w partials xs =
  w.stamp <- w.stamp + 1;
  w.len <- 0;
  if push_all w partials xs 0 then Some (Array.sub w.buf 0 w.len) else None

(* All valid "boxes": multisets (B₁ … B_Δ) of right-closed label sets
   such that every choice (b₁ … b_Δ) ∈ B₁ × … × B_Δ is an allowed node
   configuration.  Enumerated by DFS over right-closed sets in
   non-decreasing order.  Each prefix carries [partials], the distinct
   states its choices of minimal labels reach; a candidate set extends
   the prefix iff every partial plus every minimal label of the set is
   a live transition, and the first dead one prunes it. *)
(* DFS work budget: one unit per (prefix, candidate-set) pair examined,
   plus one per partial state carried through it.  The old hard
   20-label cap is gone, so genuinely exponential instances (naive
   iteration on MIS quickly produces them) must be stopped by the work
   actually performed, and stopped as fast as the cap used to. *)
let box_work_limit = 5_000_000

(* Per-worker accumulator for the box DFS: the counters are merged into
   the global [stats] at join, so they are exact and race-free for any
   domain count. *)
type box_local = { w : walker; mutable emitted : int; mutable pruned : int }

let valid_boxes_impl ?pool (p : Problem.t) ~expand_limit ~rc_limit =
  let pool = Parctl.resolve pool in
  let delta = Problem.delta p in
  if Constr.expansion_estimate p.node > expand_limit then
    Budget.exceeded ~budget:"Rounde.rbar: node constraint expansion"
      ~limit:expand_limit;
  (* Enumerate the right-closed sets before building the (much more
     expensive) state table: the enumeration is output-sensitive and
     [rc_limit]-guarded, so hopeless instances die in milliseconds
     instead of after seconds of table filling. *)
  let diagram = Diagram.node_diagram p in
  let rc = Array.of_list (Diagram.right_closed_sets ~limit:rc_limit diagram) in
  stats.rc_sets <- stats.rc_sets + Array.length rc;
  let states = sub_multiset_states (Constr.expand ~limit:expand_limit p.node) in
  let width = Alphabet.size p.alpha in
  let m = Array.length rc in
  (* The work budget is shared across branches through an atomic
     counter: the total demand is a fixed property of the instance, so
     whether some branch trips the budget — and hence the verdict — is
     identical for every domain count and schedule. *)
  let work = Atomic.make 0 in
  let charge amount =
    let before = Atomic.fetch_and_add work amount in
    if before + amount > box_work_limit then
      Budget.exceeded ~budget:"Rounde.rbar: box enumeration work"
        ~limit:(float_of_int box_work_limit)
  in
  let minimals = Array.map (Diagram.minimal_elements diagram) rc in
  (* The DFS fans out over the top-level right-closed-set choice: branch
     [top] explores every box whose smallest set index is [top].
     Branches are independent; each collects its boxes in its own
     prepend-order list ([branch_boxes.(top)]), and the final merge
     reproduces the sequential emission order exactly (see below). *)
  let branch_boxes = Array.make (max 1 m) [] in
  let run_branch local top =
    let boxes = ref [] in
    let rec extend_box depth i (box : int list) partials =
      charge (1 + Array.length partials);
      match extend local.w partials minimals.(i) with
      | Some partials' -> go (depth + 1) i (i :: box) partials'
      | None -> local.pruned <- local.pruned + 1
    and go depth lo box partials =
      if depth = delta then begin
        local.emitted <- local.emitted + 1;
        boxes := List.rev_map (fun i -> rc.(i)) box :: !boxes
      end
      else
        for i = lo to m - 1 do
          extend_box depth i box partials
        done
    in
    extend_box 0 top [] [| 0 |];
    branch_boxes.(top) <- !boxes
  in
  if delta = 0 then begin
    (* Degenerate arity: the single (empty) box, as the sequential DFS
       emitted it. *)
    stats.boxes_emitted <- stats.boxes_emitted + 1;
    [ [] ]
  end
  else begin
    Parallel.Pool.run ~chunk:1 pool ~n:m
      ~init:(fun () -> { w = walker states width; emitted = 0; pruned = 0 })
      ~body:run_branch
      ~merge:(fun l ->
        stats.boxes_emitted <- stats.boxes_emitted + l.emitted;
        stats.boxes_pruned <- stats.boxes_pruned + l.pruned);
    (* Sequentially, boxes were prepended to one shared list while the
       top-level index increased, so the final list was
       rev(e_{m-1}) @ ... @ rev(e_0) with e_t = branch t's emission
       sequence.  Each branch list is already rev(e_t); folding the
       branches in increasing order with [l @ acc] rebuilds exactly
       that list, so downstream consumers (the dominance filter's
       descending-total sort in particular) see a bit-identical input
       for every domain count. *)
    Array.fold_left (fun acc l -> l @ acc) [] branch_boxes
  end

(* Zdd budget trips (unique-table overrun) re-raised as the engine's
   typed budget error, keeping the realized node count. *)
let translate_zdd_limit f =
  try f ()
  with Zdd.Limit { what; limit; realized } ->
    Budget.exceeded
      ~budget:(Printf.sprintf "Rounde.rbar/%s (realized %d)" what realized)
      ~limit

(* ZDD-backed box search.  Instead of materializing the right-closed
   sets as a sorted array ([rc_limit]-guarded) and testing every
   (prefix, candidate) pair against the state transitions, keep the
   family compressed and *restrict* it per prefix: with [partials] the
   distinct states of the prefix, a candidate [B] survives the explicit
   DFS's test iff

       B ⊆ allowed(partials) := ∩ { row(P) | P ∈ partials },

   where row(P) is the set of labels x with a live transition P + x.
   ("⟸": minimals of B are members of B.  "⟹": on an exact diagram
   [geq] is the true strength preorder, so (i) every member of B is
   ≥ some minimal of B, and (ii) allowed is up-closed — P + x live
   means P + x fits inside an allowed configuration, and substituting
   a stronger label keeps it allowed.)  So the per-candidate test
   disappears into one ZDD restriction per prefix, shared across
   prefixes by the operation cache, and candidates stream out of
   [Zdd.iter_ge] in exactly the non-decreasing order the explicit DFS
   scanned its array — emissions are byte-identical.  It also follows
   that every extension of a streamed candidate is live: a dead one
   means the argument is broken, and the search raises instead of
   emitting.  Only exactness of the diagram is used; inexact
   (condensed-approximation) diagrams return [None] and the caller
   falls back to the explicit path.

   There is no [rc_limit] here — nothing is materialized.  Runaway
   instances are stopped by the manager's node budget and by the same
   cumulative work budget as the explicit DFS (charged per prefix and
   per streamed candidate), under a distinct budget name since the
   work accounting necessarily differs.  [boxes_pruned] stays 0 on
   this path: pruned candidates are never even enumerated. *)
let valid_boxes_zdd_impl (p : Problem.t) ~expand_limit =
  let delta = Problem.delta p in
  if Constr.expansion_estimate p.node > expand_limit then
    Budget.exceeded ~budget:"Rounde.rbar: node constraint expansion"
      ~limit:expand_limit;
  let diagram = Diagram.node_diagram p in
  if not (Diagram.is_exact diagram) then None
  else begin
    let n = Alphabet.size p.alpha in
    let mgr, fam = Diagram.right_closed_family diagram in
    translate_zdd_limit @@ fun () ->
    stats.rc_sets <- stats.rc_sets + Zdd.count mgr fam;
    let w = walker (sub_multiset_states (Constr.expand ~limit:expand_limit p.node)) n in
    if delta = 0 then begin
      stats.boxes_emitted <- stats.boxes_emitted + 1;
      Some [ [] ]
    end
    else begin
      let work = ref 0 in
      let charge amount =
        work := !work + amount;
        if !work > box_work_limit then
          Budget.exceeded ~budget:"Rounde.rbar: box enumeration work (zdd)"
            ~limit:(float_of_int box_work_limit)
      in
      let boxes = ref [] in
      let emitted = ref 0 in
      let rec go depth from_mask box partials =
        if depth = delta then begin
          incr emitted;
          boxes := List.rev_map Labelset.of_bits box :: !boxes
        end
        else begin
          charge (1 + Array.length partials);
          let allowed =
            Array.fold_left
              (fun acc partial -> Labelset.inter acc (row w partial))
              (Labelset.full n) partials
          in
          let cands = Zdd.subsets_within mgr fam (Labelset.to_bits allowed) in
          Zdd.iter_ge mgr cands ~from:from_mask (fun bmask ->
              charge (1 + Array.length partials);
              if depth + 1 = delta then go (depth + 1) bmask (bmask :: box) partials
              else
                match
                  extend w partials
                    (Diagram.minimal_elements diagram (Labelset.of_bits bmask))
                with
                | Some partials' -> go (depth + 1) bmask (bmask :: box) partials'
                | None ->
                    failwith
                      "Rounde.rbar: dead extension of a streamed candidate \
                       (exact-diagram invariant broken)")
        end
      in
      (* Counted also when the search trips a budget. *)
      Fun.protect
        ~finally:(fun () -> stats.boxes_emitted <- stats.boxes_emitted + !emitted)
        (fun () -> go 0 0 [] [| 0 |]);
      (* Prepend order = last emission first: exactly the order the
         explicit path returns (sequentially and after its branch
         merge alike). *)
      Some !boxes
    end
  end

let valid_boxes ?pool ~zdd (p : Problem.t) ~expand_limit ~rc_limit =
  Trace.with_span "rounde.valid_boxes"
    ~attrs:[ ("problem", p.name) ]
    (fun () ->
      let explicit () = valid_boxes_impl ?pool p ~expand_limit ~rc_limit in
      if zdd then
        match valid_boxes_zdd_impl p ~expand_limit with
        | Some boxes -> boxes
        | None -> explicit ()
      else explicit ())

(* --- Fully symbolic output side ----------------------------------- *)

(* [arrangements groups delta f]: call [f] on every distinct assignment
   of the multiset of [groups] (mask, multiplicity) to the [delta]
   slots, as a reused [int array] of per-slot masks.  The number of
   calls is the multinomial Δ! / ∏ cᵢ!, never Δ! — condensed lines stay
   condensed. *)
let arrangements groups delta f =
  let groups = Array.of_list groups in
  let remaining = Array.map snd groups in
  let slotmasks = Array.make (max 1 delta) 0 in
  let rec fill s =
    if s = delta then f slotmasks
    else
      Array.iteri
        (fun g (mask, _) ->
          if remaining.(g) > 0 then begin
            remaining.(g) <- remaining.(g) - 1;
            slotmasks.(s) <- mask;
            fill (s + 1);
            remaining.(g) <- remaining.(g) + 1
          end)
        groups
  in
  fill 0

(* The box family itself as a ZDD, all the way through the dominance
   filter: no explicit box list exists until the final (already
   maximal) members stream out.  Returns [None] when the slotted
   encoding does not apply — inexact node diagram, Δ = 0, or Δ·n > 62
   bits — and the caller falls back to the streaming/explicit paths.

   Load-bearing facts (each pinned by the equivalence suite in
   test/zdd):

   - T, the relation of ordered label tuples of allowed configurations,
     is slot-wise up-closed when the diagram is exact (substituting a
     stronger label keeps a configuration allowed), so every maximal
     member of [Zdd.boxes T] automatically has right-closed slot
     components: the right-closed family never materializes here.
   - Box dominance — an injective matching of each set into a superset
     — is exactly ∃σ. b ⊆ σ(c) slot-wise, i.e. strict containment of
     encodings in the permutation-closed family.  T is built from all
     arrangements of each line, so [Zdd.boxes T] is permutation-closed
     and Coudert [Zdd.maximal] on it *is* the full dominance filter,
     transport matching included.
   - Order: the explicit path returns boxes in decreasing lexicographic
     order of their canonical (slot-sorted) encodings; [Zdd.iter]
     enumerates encodings increasing, so keeping the canonical members
     and prepending reproduces the explicit list byte for byte. *)
let symbolic_boxes_impl (p : Problem.t) =
  let delta = Problem.delta p in
  let n = Alphabet.size p.alpha in
  if delta = 0 || n = 0 || delta * n > 62 then None
  else
    let diagram = Diagram.node_diagram p in
    if not (Diagram.is_exact diagram) then None
    else begin
      let work = ref 0 in
      let charge budget amount =
        work := !work + amount;
        if !work > box_work_limit then
          Budget.exceeded ~budget ~limit:(float_of_int box_work_limit)
      in
      let lay = Zdd.layout ~slots:delta ~width:n in
      let mgr = Zdd.create ~nbits:(Zdd.layout_bits lay) () in
      let cube_fam =
        Trace.with_span "rounde.valid_boxes"
          ~attrs:[ ("problem", p.name) ]
        @@ fun () ->
        translate_zdd_limit @@ fun () ->
        (* [rc_sets] stays engine-independent: count the same family
           the other paths enumerate, without materializing it. *)
        stats.rc_sets <- stats.rc_sets + Diagram.right_closed_count diagram;
        let tuples = ref Zdd.bot in
        List.iter
          (fun line ->
            let groups =
              List.map
                (fun (s, c) -> (Labelset.to_bits s, c))
                (Line.groups line)
            in
            arrangements groups delta (fun slotmasks ->
                charge "Rounde.rbar: box family construction work (zdd)"
                  (1 + delta);
                tuples :=
                  Zdd.union mgr !tuples (Zdd.one_per_slot mgr lay slotmasks)))
          (Constr.lines p.node);
        stats.maxbox_tuples <- stats.maxbox_tuples + Zdd.count mgr !tuples;
        let cube_fam =
          Zdd.boxes ~work_limit:(box_work_limit - !work) mgr lay !tuples
        in
        stats.maxbox_cubes <- stats.maxbox_cubes + Zdd.count mgr cube_fam;
        cube_fam
      in
      let boxes =
        Trace.with_span "rounde.maximal_boxes"
          ~attrs:[ ("boxes", "symbolic") ]
        @@ fun () ->
        translate_zdd_limit @@ fun () ->
        timed add_maxbox_time @@ fun () ->
        let maxf = Zdd.maximal mgr cube_fam in
        stats.maxbox_maximal <- stats.maxbox_maximal + Zdd.count mgr maxf;
        let boxes = ref [] in
        let kept = ref 0 in
        Zdd.iter mgr maxf (fun enc ->
            charge "Rounde.rbar: maximal box enumeration (zdd)" 1;
            let slots = Zdd.decode_slots lay enc in
            let sorted = ref true in
            Array.iteri
              (fun i mask -> if i > 0 && mask < slots.(i - 1) then sorted := false)
              slots;
            if !sorted then begin
              incr kept;
              boxes := Array.to_list (Array.map Labelset.of_bits slots) :: !boxes
            end);
        stats.maxbox_enumerated <- stats.maxbox_enumerated + !kept;
        stats.boxes_emitted <- stats.boxes_emitted + !kept;
        !boxes
      in
      Some boxes
    end

(* The maximal-box filter.  Box [b] is dominated by [b'] when an
   injective map sends every set of [b] into a superset in [b'].  Then
   necessarily support(b) ⊆ support(b'), the total cardinality of [b]
   is at most that of [b'], and the ascending sorted cardinality
   vectors dominate elementwise (the matching sends the i-th smallest
   set of [b] into a set of [b'] of at least its size, for every
   prefix).  All three are word-level/O(Δ) screens, applied before the
   exact matching; scanning candidates in decreasing total order
   confines possible dominators to a prefix.

   Layout: no per-box record.  A box's rank in the scan order is its
   scan position [q], and its data lives in flat int arrays at that
   position: its sets, sorted, at [sets.(q·Δ) …], its ascending size
   vector at [sizes.(q·Δ) …], and its support at [support.(q)].  A
   box's scan walks positions [0 .. ends.(q) − 1] front to back. *)

(* Comparisons of the slices of flat arrays at offsets [pa] and [pb],
   from index [i] down, stopping at the first index that decides. *)
let rec slices_equal (a : int array) pa (b : int array) pb i =
  i < 0 || (a.(pa + i) = b.(pb + i) && slices_equal a pa b pb (i - 1))

let rec slice_dominated (a : int array) pa pb i =
  i < 0 || (a.(pa + i) <= a.(pb + i) && slice_dominated a pa pb (i - 1))

(* Insertion sort of the slice [a.(off) … a.(off + len − 1)]. *)
let sort_slice (a : int array) off len =
  for k = off + 1 to off + len - 1 do
    let x = a.(k) in
    let j = ref (k - 1) in
    while !j >= off && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Transport-memo keys: bit k = i·Δ + j says whether set i of the
   dominated box is a subset of set j of the candidate; the Δ² bits are
   packed 63 to an int, so from Δ = 8 a key spans several words. *)
let key_words delta = ((delta * delta) + 62) / 63

(* Write the key of the boxes at offsets [pa] (dominated) and [pb]
   (candidate) of [sets] into [key].  Label sets are non-negative ints,
   so [a ⊆ b] iff [a land lnot b] is 0, iff that minus one is negative:
   its sign bit, bit 62, is the matrix bit, and no test branches. *)
let build_key key (sets : int array) pa pb d =
  let word = ref 0 and acc = ref 0 and bit = ref 0 in
  for i = 0 to d - 1 do
    let a = sets.(pa + i) in
    for j = 0 to d - 1 do
      acc := !acc lor ((((a land lnot sets.(pb + j)) - 1) lsr 62) lsl !bit);
      if !bit = 62 then begin
        key.(!word) <- !acc;
        incr word;
        acc := 0;
        bit := 0
      end
      else incr bit
    done
  done;
  if !bit > 0 then key.(!word) <- !acc

let key_bit key d i j =
  let k = (i * d) + j in
  (key.(k / 63) lsr (k mod 63)) land 1 = 1

(* The transport memo: an open-addressing table from keys to verdicts,
   [words] ints per slot, probed linearly.  [verdicts] holds '\000' for
   an empty slot, '\001' for infeasible and '\002' for feasible.  A
   lookup hashes the key words directly and allocates nothing; the
   table doubles when it would pass half full. *)
type memo = {
  words : int;
  mutable keys : int array;
  mutable verdicts : Bytes.t;
  mutable size : int;
}

let rec hash_words (a : int array) off w h =
  if w < 0 then h lxor (h lsr 31)
  else hash_words a off (w - 1) ((h lxor a.(off + w)) * 0x2545F4914F6CDD1D)

(* The slot holding the key at [src.(off) …], or the empty slot where
   it belongs. *)
let find_slot memo src off =
  let mask = Bytes.length memo.verdicts - 1 and w = memo.words in
  let slot = ref (hash_words src off (w - 1) 0 land mask) in
  while
    Bytes.get memo.verdicts !slot <> '\000'
    && not (slices_equal memo.keys (!slot * w) src off (w - 1))
  do
    slot := (!slot + 1) land mask
  done;
  !slot

let place memo src off verdict =
  let slot = find_slot memo src off in
  Array.blit src off memo.keys (slot * memo.words) memo.words;
  Bytes.set memo.verdicts slot verdict;
  memo.size <- memo.size + 1

(* Store the verdict of a key that is not in the table yet. *)
let remember memo key verdict =
  if 2 * (memo.size + 1) > Bytes.length memo.verdicts then begin
    let keys = memo.keys and verdicts = memo.verdicts in
    let capacity = 2 * Bytes.length verdicts in
    memo.keys <- Array.make (capacity * memo.words) 0;
    memo.verdicts <- Bytes.make capacity '\000';
    memo.size <- 0;
    Bytes.iteri (fun s v -> if v <> '\000' then place memo keys (s * memo.words) v) verdicts
  end;
  place memo key 0 verdict

(* Per-worker state of the scan: the counters, the key scratch, the
   transport memo and the matcher's scratch ([owner.(j)] is the row
   matched to column [j], or −1; [seen.(j)] is the stamp of the last
   augmenting search that reached column [j]).  Keeping the memo per
   worker keeps it race-free; the hit counter is therefore
   schedule-dependent when [domains > 1] (the only stats field that is
   — see the .mli). *)
type scan = {
  mutable checks : int;
  mutable cheap_skips : int;
  mutable transport_calls : int;
  mutable cache_hits : int;
  key : int array;
  memo : memo;
  owner : int array;
  seen : int array;
  mutable stamp : int;
}

let new_scan d =
  let words = key_words d in
  {
    checks = 0;
    cheap_skips = 0;
    transport_calls = 0;
    cache_hits = 0;
    key = Array.make words 0;
    memo = { words; keys = Array.make (256 * words) 0; verdicts = Bytes.make 256 '\000'; size = 0 };
    owner = Array.make d (-1);
    seen = Array.make d 0;
    stamp = 0;
  }

(* Kuhn's augmenting-path search: can row [i] be matched, trying the
   columns from [j] on, re-matching owners as needed? *)
let rec augment w d i j =
  j < d
  && (if w.seen.(j) <> w.stamp && key_bit w.key d i j then begin
        w.seen.(j) <- w.stamp;
        let o = w.owner.(j) in
        if o < 0 || augment w d o 0 then begin
          w.owner.(j) <- i;
          true
        end
        else augment w d i (j + 1)
      end
      else augment w d i (j + 1))

let rec match_rows w d i =
  i = d
  || begin
       w.stamp <- w.stamp + 1;
       augment w d i 0 && match_rows w d (i + 1)
     end

(* Does the relation in [w.key] have a perfect matching?  The exact
   transportation verdict with all-ones supply and demand, O(Δ³) at
   worst, with no allocation. *)
let perfect_matching w d =
  Array.fill w.owner 0 d (-1);
  match_rows w d 0

let box_leq a b =
  let d = Array.length a in
  if Array.length b <> d then invalid_arg "Rounde.box_leq: boxes of different lengths";
  let sets = Array.map Labelset.to_bits (Array.append a b) in
  let w = new_scan d in
  build_key w.key sets 0 d d;
  perfect_matching w d

(* The exact verdict for the box at offset [pa] below the one at [pb],
   whose sets differ, with two layers in front of the matching.  Fast
   path: if the ascending size vectors are equal, an injective matching
   into supersets has slack sum zero, hence forces set-wise equality,
   so the verdict is no.  Memo: the verdict is a function of the key
   alone, and the same key recurs across many box pairs (the pairs
   themselves never repeat, so nothing finer could ever hit).  The key
   costs Δ² subset tests, which the matching would perform anyway. *)
let transport w (sets : int array) sizes d pa pb =
  w.transport_calls <- w.transport_calls + 1;
  if slices_equal sizes pa sizes pb (d - 1) then false
  else begin
    build_key w.key sets pa pb d;
    match Bytes.get w.memo.verdicts (find_slot w.memo w.key 0) with
    | '\000' ->
        let v = perfect_matching w d in
        remember w.memo w.key (if v then '\002' else '\001');
        v
    | v ->
        w.cache_hits <- w.cache_hits + 1;
        v = '\002'
  end

(* Is the box at scan position [p] dominated?  Counts every pair it
   examines in [w]. *)
let dominated w ~d ~sets ~sizes ~support ~ends p =
  let pa = p * d and sup = support.(p) and stop = ends.(p) in
  let q = ref 0 and found = ref false in
  while (not !found) && !q < stop do
    if !q <> p then begin
      w.checks <- w.checks + 1;
      let pb = !q * d in
      if sup land lnot support.(!q) <> 0 || not (slice_dominated sizes pa pb (d - 1)) then
        w.cheap_skips <- w.cheap_skips + 1
      else if not (slices_equal sets pa sets pb (d - 1)) then found := transport w sets sizes d pa pb
    end;
    incr q
  done;
  !found

let rec write_sets sets off = function
  | [] -> ()
  | s :: rest ->
      sets.(off) <- Labelset.to_bits s;
      write_sets sets (off + 1) rest

let box_total d box =
  if List.length box <> d then invalid_arg "Rounde.maximal_boxes: boxes of different lengths";
  List.fold_left (fun t s -> t + Labelset.cardinal s) 0 box

let maximal_boxes_impl ?pool ~zdd boxes =
  let pool = Parctl.resolve pool in
  let d = match boxes with [] -> 0 | box :: _ -> List.length box in
  let m = List.length boxes in
  (* Scan order: non-increasing total cardinality.  [Array.sort] on
     [total lsl 32 lor index], compared by total alone, makes the same
     comparisons as sorting the indices by total, so ties land in the
     same order too: the order fixes every counter and memo hit. *)
  let order = Array.make m 0 in
  List.iteri (fun i box -> order.(i) <- (box_total d box lsl 32) lor i) boxes;
  Array.sort (fun a b -> Int.compare (b lsr 32) (a lsr 32)) order;
  (* [pos.(i)]: box [i]'s scan position, and −1 once it is found
     dominated. *)
  let pos = Array.make m 0 in
  Array.iteri (fun q packed -> pos.(packed land 0xFFFF_FFFF) <- q) order;
  (* [ends.(q)]: the first scan position whose total is smaller than
     [q]'s, written over [order]. *)
  let ends = order in
  let q = ref 0 in
  while !q < m do
    let total = order.(!q) lsr 32 in
    let e = ref (!q + 1) in
    while !e < m && order.(!e) lsr 32 = total do
      incr e
    done;
    Array.fill ends !q (!e - !q) !e;
    q := !e
  done;
  let sets = Array.make (m * d) 0 and sizes = Array.make (m * d) 0 in
  let support = Array.make m 0 in
  List.iteri
    (fun i box ->
      let q = pos.(i) in
      let off = q * d in
      write_sets sets off box;
      sort_slice sets off d;
      for k = off to off + d - 1 do
        sizes.(k) <- Labelset.cardinal (Labelset.of_bits sets.(k));
        support.(q) <- support.(q) lor sets.(k)
      done;
      sort_slice sizes off d)
    boxes;
  (* Under [~zdd] the quadratic scan is charged against the same work
     limit as enumeration, through a shared atomic counter.
     Each box's check count is a fixed property of the instance (the
     scan order and early exits read only the immutable flat arrays),
     so the grand total — and hence the trip verdict — is identical for
     every domain count and schedule.  Without [~zdd] the scan stays
     uncharged: its inputs already passed the explicit enumeration
     budget, and its cost is bounded by them. *)
  let scan_work = Atomic.make 0 in
  let charge_scan amount =
    if zdd then begin
      let before = Atomic.fetch_and_add scan_work amount in
      if before + amount > box_work_limit then
        Budget.exceeded ~budget:"Rounde.rbar: maximal box scan work (zdd)"
          ~limit:(float_of_int box_work_limit)
    end
  in
  (* Each box's verdict is independent of the others', so the boxes fan
     out over the pool in input order; a worker writes only its own
     boxes' [pos] entries, which are read after the join. *)
  Parallel.Pool.run ~chunk:16 pool ~n:m
    ~init:(fun () -> new_scan d)
    ~body:(fun w i ->
      (* The charge is settled once per box (one atomic op, not one per
         check); a single box's scan is at most [m] checks, so the
         overshoot before a trip is registered stays bounded. *)
      let checks_before = w.checks in
      let verdict = dominated w ~d ~sets ~sizes ~support ~ends pos.(i) in
      charge_scan (w.checks - checks_before);
      if verdict then pos.(i) <- -1)
    ~merge:(fun w ->
      stats.box_dom_checks <- stats.box_dom_checks + w.checks;
      stats.box_dom_cheap_skips <- stats.box_dom_cheap_skips + w.cheap_skips;
      stats.box_transport_calls <- stats.box_transport_calls + w.transport_calls;
      stats.transport_cache_hits <- stats.transport_cache_hits + w.cache_hits);
  List.filteri (fun i _ -> pos.(i) >= 0) boxes

let maximal_boxes ?pool ~zdd boxes =
  Trace.with_span "rounde.maximal_boxes"
    ~attrs:[ ("boxes", string_of_int (List.length boxes)) ]
    (fun () -> timed add_maxbox_time (fun () -> maximal_boxes_impl ?pool ~zdd boxes))

let rbar_impl ?(expand_limit = 2e6) ?(rc_limit = 100_000) ?pool ?zdd
    (p : Problem.t) =
  stats.rbar_calls <- stats.rbar_calls + 1;
  (* No label cap: the order-ideal enumeration behind
     [Diagram.right_closed_sets] is output-sensitive, and runaway
     instances are stopped by [rc_limit], [expand_limit] and the DFS
     work budget instead — all of which fail as fast as the old cap.
     With the ZDD path on, [rc_limit] does not apply at all (nothing is
     materialized); the manager's node budget takes its place.

     Engine ladder under [~zdd]: the fully symbolic pipeline
     ([symbolic_boxes_impl]: box family as a Δ-slot ZDD through Coudert
     maximal, the node constraint never expanded) when the slotted
     encoding applies; else the streaming compressed DFS inside
     [valid_boxes]; else the explicit DFS — each rung byte-identical to
     the others wherever both complete. *)
  let zdd = Parctl.resolve_zdd zdd in
  let boxes =
    let fallback () =
      maximal_boxes ?pool ~zdd (valid_boxes ?pool ~zdd p ~expand_limit ~rc_limit)
    in
    if zdd then
      match symbolic_boxes_impl p with
      | Some boxes -> boxes
      | None -> fallback ()
    else fallback ()
  in
  if boxes = [] then failwith "Rounde.rbar: empty node constraint";
  (* New alphabet: the distinct sets used in maximal boxes. *)
  let module SS = Set.Make (struct
    type t = Labelset.t

    let compare = Labelset.compare
  end) in
  let sets =
    List.fold_left
      (fun acc box -> List.fold_left (fun acc s -> SS.add s acc) acc box)
      SS.empty boxes
  in
  let denots = Array.of_list (SS.elements sets) in
  if Array.length denots > Labelset.max_label then
    Budget.exceeded ~budget:"Rounde.rbar: output alphabet width"
      ~limit:(float_of_int Labelset.max_label);
  let alpha'' = intern_sets p.alpha denots in
  let index_of =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.add tbl (Labelset.to_bits s) i) denots;
    fun s -> Hashtbl.find tbl (Labelset.to_bits s)
  in
  let node_lines =
    List.map
      (fun box ->
        Line.make
          (List.map (fun s -> (Labelset.singleton (index_of s), 1)) box))
      boxes
  in
  (* Edge constraint: pairs of used sets admitting a compatible choice
     in the old edge constraint. *)
  let compat = Problem.compat_matrix p in
  let choice_compatible s1 s2 =
    Labelset.exists (fun a -> Labelset.exists (fun b -> compat.(a).(b)) s2) s1
  in
  let edge_lines = ref [] in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i <= j && choice_compatible si sj then
            edge_lines :=
              (if i = j then Line.make [ (Labelset.singleton i, 2) ]
               else
                 Line.make
                   [ (Labelset.singleton i, 1); (Labelset.singleton j, 1) ])
              :: !edge_lines)
        denots)
    denots;
  if !edge_lines = [] then failwith "Rounde.rbar: empty edge constraint";
  let problem =
    Problem.make
      ~name:(Printf.sprintf "Rbar(%s)" p.name)
      ~alpha:alpha'' ~node:(Constr.make node_lines)
      ~edge:(Constr.make !edge_lines)
  in
  { problem; denotations = denots }

let rbar ?expand_limit ?rc_limit ?pool ?zdd (p : Problem.t) =
  Trace.with_span "rounde.rbar"
    ~attrs:[ ("problem", p.name) ]
    (fun () ->
      let result =
        timed add_rbar_time (fun () -> rbar_impl ?expand_limit ?rc_limit ?pool ?zdd p)
      in
      notify `Rbar p result;
      sample_rbar_counters ();
      result)

let step ?expand_limit ?rc_limit ?pool ?zdd p =
  Trace.with_span "rounde.step"
    ~attrs:[ ("problem", p.Problem.name) ]
  @@ fun () ->
  let { problem = p'; _ } = r p in
  let { problem = p''; denotations } =
    rbar ?expand_limit ?rc_limit ?pool ?zdd p'
  in
  (* No trim needed: every label of [rbar]'s output occurs in its node
     constraint by construction, so trimming would be a no-op and would
     desynchronize [denotations]. *)
  { problem = { p'' with name = Printf.sprintf "step(%s)" p.Problem.name };
    denotations }
