type stats = {
  mutable clique_calls : int;
  mutable maximal_cliques : int;
  mutable bk_expansions : int;
  mutable clique_time_s : float;
}

let stats =
  { clique_calls = 0; maximal_cliques = 0; bk_expansions = 0; clique_time_s = 0. }

let reset_stats () =
  stats.clique_calls <- 0;
  stats.maximal_cliques <- 0;
  stats.bk_expansions <- 0;
  stats.clique_time_s <- 0.

(* Verdict emission hook: fired with (mode, problem, verdict) after
   every completed decider call (budget failures raise before it
   fires).  Installed by [Certify.Hooks]. *)
let observer :
    (mode:[ `Mirrored | `Arbitrary ] -> Problem.t -> Multiset.t option -> unit)
    option
    ref =
  ref None

let notify mode p verdict =
  match !observer with None -> () | Some f -> f ~mode p verdict

let self_compatible p =
  let compat = Problem.compat_matrix p in
  let n = Alphabet.size p.alpha in
  let acc = ref Labelset.empty in
  for l = 0 to n - 1 do
    if compat.(l).(l) then acc := Labelset.add l !acc
  done;
  !acc

(* Pick, for each group of [line], [count] labels from [pool ∩ syms];
   returns a witness configuration or [None] if some group has an empty
   intersection with the pool. *)
let pick_from_pool line pool =
  let rec go acc = function
    | [] -> Some (Multiset.of_counts acc)
    | (s, c) :: rest ->
        let usable = Labelset.inter s pool in
        if Labelset.is_empty usable then None
        else go ((Labelset.choose usable, c) :: acc) rest
  in
  go [] (Line.groups line)

let solvable_mirrored p =
  Trace.with_span "zeroround.mirrored"
    ~attrs:[ ("problem", p.Problem.name) ]
  @@ fun () ->
  let pool = self_compatible p in
  let verdict =
    List.find_map (fun line -> pick_from_pool line pool) (Constr.lines p.node)
  in
  notify `Mirrored p verdict;
  verdict

(* Per-worker accumulator for the parallel clique search, merged into
   the global [stats] at join. *)
type bk_local = { mutable cliques : int; mutable expansions : int }

(* Maximal cliques of the compatibility graph, restricted to the
   self-compatible labels (a label incompatible with itself can never
   appear in a usable pool: the adversary may connect two equal ports),
   by bitset Bron–Kerbosch with pivoting.  [max_expansions] bounds the
   recursion-tree size: the number of maximal cliques can be
   exponential (Moon–Moser), so the enumeration fails loudly when the
   instance really is infeasible.

   The root is unrolled by hand: its children (one per non-neighbor of
   the root pivot) are independent subtrees, which fan out over the
   pool.  Each subtree stops at its first clique [f] answers [Some]
   for, and the answer is the lowest-indexed subtree's, exactly the
   answer the sequential search reaches first.  Since every subtree
   otherwise runs to completion, the set of cliques visited, the merged
   counters and the answer are identical for every domain count.  The
   expansion budget is shared through an atomic counter for the same
   reason: the total demand is fixed, so whether it trips does not
   depend on the schedule. *)
let find_maximal_clique (type a) ?(max_expansions = 1_000_000) ~pool compat n
    (f : Labelset.t -> a option) : a option =
  let budget = Atomic.make 0 in
  let charge local =
    local.expansions <- local.expansions + 1;
    let before = Atomic.fetch_and_add budget 1 in
    if before + 1 > max_expansions then
      Budget.exceeded ~budget:"Zeroround: maximal-clique enumeration"
        ~limit:(float_of_int max_expansions)
  in
  let vertices = ref Labelset.empty in
  for a = 0 to n - 1 do
    if compat.(a).(a) then vertices := Labelset.add a !vertices
  done;
  let vertices = !vertices in
  let nbr =
    Array.init n (fun a ->
        let acc = ref Labelset.empty in
        if compat.(a).(a) then
          Labelset.iter
            (fun b -> if b <> a && compat.(a).(b) then acc := Labelset.add b !acc)
            vertices;
        !acc)
  in
  (* Pivot on a vertex of P ∪ X with the most neighbors in P; only
     non-neighbors of the pivot start branches. *)
  let pivot_of p x =
    let pivot = ref (-1) and best = ref (-1) in
    Labelset.iter
      (fun u ->
        let c = Labelset.inter_cardinal p nbr.(u) in
        if c > !best then begin
          best := c;
          pivot := u
        end)
      (Labelset.union p x);
    !pivot
  in
  (* The root is an expansion like any other (so [max_expansions = 0]
     still fails loudly); it never reaches a clique itself because its
     [r] is empty. *)
  let root = { cliques = 0; expansions = 0 } in
  charge root;
  stats.bk_expansions <- stats.bk_expansions + root.expansions;
  if Labelset.is_empty vertices then None
  else begin
    (* Branch inputs, replayed exactly as the sequential loop would
       evolve P and X over the root's branching vertices. *)
    let branches =
      let acc = ref [] and p = ref vertices and x = ref Labelset.empty in
      Labelset.iter
        (fun v ->
          acc :=
            (Labelset.singleton v,
             Labelset.inter !p nbr.(v),
             Labelset.inter !x nbr.(v))
            :: !acc;
          p := Labelset.remove v !p;
          x := Labelset.add v !x)
        (Labelset.diff vertices nbr.(pivot_of vertices Labelset.empty));
      Array.of_list (List.rev !acc)
    in
    let results = Array.make (max 1 (Array.length branches)) None in
    let exception Found_in_branch of a in
    let run_branch local k =
      let rec bk r p x =
        charge local;
        if Labelset.is_empty p && Labelset.is_empty x then begin
          (* [r] is non-empty: every branch starts from a singleton. *)
          local.cliques <- local.cliques + 1;
          match f r with Some v -> raise (Found_in_branch v) | None -> ()
        end
        else begin
          let pivot = pivot_of p x in
          let p = ref p and x = ref x in
          Labelset.iter
            (fun v ->
              bk (Labelset.add v r) (Labelset.inter !p nbr.(v))
                (Labelset.inter !x nbr.(v));
              p := Labelset.remove v !p;
              x := Labelset.add v !x)
            (Labelset.diff !p nbr.(pivot))
        end
      in
      let r, p0, x0 = branches.(k) in
      match bk r p0 x0 with
      | () -> ()
      | exception Found_in_branch v -> results.(k) <- Some v
    in
    Parallel.Pool.run ~chunk:1 pool ~n:(Array.length branches)
      ~init:(fun () -> { cliques = 0; expansions = 0 })
      ~body:run_branch
      ~merge:(fun l ->
        stats.maximal_cliques <- stats.maximal_cliques + l.cliques;
        stats.bk_expansions <- stats.bk_expansions + l.expansions);
    Array.fold_left
      (fun acc r -> match acc with Some _ -> acc | None -> r)
      None results
  end

(* A pool works iff every group of some node line meets it, and that
   predicate is monotone in the pool; since every clique extends to a
   maximal one, scanning maximal cliques only is complete.  The witness
   drawn by [pick_from_pool] is supported inside [line-sets ∩ clique],
   so no membership re-check is needed.  Every subtree runs to
   completion unless it finds a witness, so on solvable instances the
   counters include subtrees beyond the witness-bearing one. *)
let clique_search pool (p : Problem.t) =
  let lines = Constr.lines p.node in
  find_maximal_clique ~pool (Problem.compat_matrix p)
    (Alphabet.size p.alpha)
    (fun clique -> List.find_map (fun line -> pick_from_pool line clique) lines)

(* The time is added also when the search ends in [Budget_exceeded]. *)
let solvable_arbitrary_ports_impl ?pool p =
  stats.clique_calls <- stats.clique_calls + 1;
  let t0 = Unix.gettimeofday () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        stats.clique_time_s <- stats.clique_time_s +. (Unix.gettimeofday () -. t0))
      (fun () -> clique_search (Parctl.resolve pool) p)
  in
  notify `Arbitrary p result;
  result

let solvable_arbitrary_ports ?pool (p : Problem.t) =
  Trace.with_span "zeroround.arbitrary_ports"
    ~attrs:[ ("problem", p.name) ]
    (fun () ->
      let result = solvable_arbitrary_ports_impl ?pool p in
      Trace.counters
        [
          ("zeroround.clique_calls", stats.clique_calls);
          ("zeroround.maximal_cliques", stats.maximal_cliques);
          ("zeroround.bk_expansions", stats.bk_expansions);
        ];
      result)

let randomized_failure_bound ?(limit = 2e6) p =
  match solvable_mirrored p with
  | Some _ -> None
  | None ->
      let configs = Constr.expand ~limit p.node in
      let c = List.length configs in
      let delta = Problem.delta p in
      let denom = float_of_int (c * delta) in
      Some (1. /. (denom *. denom))
