open Relim

exception Violation of string

type stats = {
  mutable r_certified : int;
  mutable rbar_certified : int;
  mutable zero_certified : int;
  mutable fixed_points_certified : int;
  mutable relaxations_certified : int;
  mutable skipped_subchecks : int;
  mutable time_s : float;
}

let stats =
  {
    r_certified = 0;
    rbar_certified = 0;
    zero_certified = 0;
    fixed_points_certified = 0;
    relaxations_certified = 0;
    skipped_subchecks = 0;
    time_s = 0.;
  }

let reset_stats () =
  stats.r_certified <- 0;
  stats.rbar_certified <- 0;
  stats.zero_certified <- 0;
  stats.fixed_points_certified <- 0;
  stats.relaxations_certified <- 0;
  stats.skipped_subchecks <- 0;
  stats.time_s <- 0.

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* Budget machinery for the exhaustive sub-checks: [guarded] runs [f]
   with a [charge] function; if the accumulated charge exceeds the
   budget the sub-check is abandoned and counted as skipped.  A skipped
   sub-check makes the certificate partial, never wrong. *)
exception Skipped

let guarded budget f =
  let used = ref 0 in
  let charge k =
    used := !used + k;
    if !used > budget then raise Skipped
  in
  try f charge
  with Skipped -> stats.skipped_subchecks <- stats.skipped_subchecks + 1

(* The budget of every guarded sub-check of [check_r], [check_rbar] and
   [check_relaxation], and the expansion limit of [check_zero_round]'s
   exhaustive re-check. *)
let work_budget = 2_000_000

(* Only the outermost check accumulates wall time: a fixed-point
   replay re-enters [check_r]/[check_rbar] through the engine
   observers, and their time is already inside the replay's. *)
let depth = ref 0

let timed f =
  if !depth > 0 then f ()
  else begin
    incr depth;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        stats.time_s <- stats.time_s +. (Unix.gettimeofday () -. t0))
      f
  end

(* Edge-compatibility matrix, derived definitionally by expanding the
   edge constraint into its concrete pairs (no diagram, no masks). *)
let edge_compat (p : Problem.t) =
  let n = Problem.label_count p in
  let compat = Array.make_matrix n n false in
  List.iter
    (fun m ->
      match Multiset.to_list m with
      | [ a; b ] ->
          compat.(a).(b) <- true;
          compat.(b).(a) <- true
      | _ -> fail "%s: edge constraint has a line of arity <> 2" p.Problem.name)
    (Constr.expand p.edge);
  compat

(* Shared shape checks on a [denoted] result: denotations must be
   distinct non-empty subsets of the source alphabet, one per output
   label, and every output label must occur in the node constraint. *)
let check_denotations ~what ~source (d : Rounde.denoted) =
  let p' = d.Rounde.problem in
  let n = Problem.label_count source in
  let n' = Problem.label_count p' in
  let denots = d.Rounde.denotations in
  if Array.length denots <> n' then
    fail "%s: %d denotations for %d output labels" what (Array.length denots) n';
  let full = Labelset.full n in
  Array.iteri
    (fun i s ->
      if Labelset.is_empty s then fail "%s: denotation of label %d is empty" what i;
      if not (Labelset.subset s full) then
        fail "%s: denotation of label %d leaves the source alphabet" what i)
    denots;
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j && Labelset.equal si sj then
            fail "%s: labels %d and %d share a denotation" what i j)
        denots)
    denots

(* Concrete (i, j) label pairs denoted by an edge constraint,
   deduplicated, with i <= j. *)
let edge_pairs ~what (c : Constr.t) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      Line.expand line (fun m ->
          match Multiset.to_list m with
          | [ i; j ] -> Hashtbl.replace seen (i, j) ()
          | _ -> fail "%s: edge line of arity <> 2" what))
    (Constr.lines c);
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* All multisets of size [size] over labels [0 .. n-1], in
   non-decreasing label order; [charge]d one unit each.  [f] gets the
   labels in ascending order in one scratch array, valid during the
   call only. *)
let iter_multisets ~charge n size f =
  let labels = Array.make size 0 in
  let rec go lo k =
    if k = size then begin
      charge 1;
      f labels
    end
    else
      for l = lo to n - 1 do
        labels.(k) <- l;
        go l (k + 1)
      done
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Membership, decided once per configuration                          *)
(* ------------------------------------------------------------------ *)

(* A configuration's key: its labels in ascending order, one byte each
   (every label is below [Labelset.max_label] = 60), so two label
   arrays share a key iff they are the same multiset, whatever Δ. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

(* [fill_key key labels] writes [labels] into [key] in ascending order
   by insertion sort (Δ is small; an already sorted array costs one
   comparison per label). *)
let fill_key key labels =
  Array.iteri
    (fun i x ->
      let j = ref (i - 1) in
      while !j >= 0 && Char.code (Bytes.get key !j) > x do
        Bytes.set key (!j + 1) (Bytes.get key !j);
        decr j
      done;
      Bytes.set key (!j + 1) (Char.chr x))
    labels

let key_of labels =
  let key = Bytes.create (Array.length labels) in
  fill_key key labels;
  Bytes.unsafe_to_string key

let multiset_of labels = Multiset.of_list (Array.to_list labels)

(* The R node recomputation and R̄'s validity and maximality scans ask
   about a configuration once per choice of representatives that lands
   on it: certifying the Π(5,4,2) step asks 74,027 times about 702
   configurations.  The table asks [Constr.mem] the first time and
   answers from its verdict after.  Each sub-check call makes its own
   table, which dies with the call.  It starts at 1024 buckets (8 KB),
   room for every table relbench's searches build without growing:
   started at 16, the tables doubled up to six times and relbench
   autopilot's peak RSS rose by 7%, while the larger start costs tiny
   certificates nothing measurable. *)
type membership = { constr : Constr.t; verdicts : bool Keys.t; key : Bytes.t }

let membership c =
  { constr = c; verdicts = Keys.create 1024; key = Bytes.create (Constr.arity c) }

let member t labels =
  if Array.length labels <> Bytes.length t.key then
    invalid_arg "Check.member: configuration of the wrong arity";
  fill_key t.key labels;
  (* The lookup only reads the scratch, so it may borrow it as a
     string; the table keeps a copy. *)
  match Keys.find t.verdicts (Bytes.unsafe_to_string t.key) with
  | v -> v
  | exception Not_found ->
      let v = Constr.mem t.constr (multiset_of labels) in
      Keys.add t.verdicts (Bytes.to_string t.key) v;
      v

(* ------------------------------------------------------------------ *)
(* R                                                                   *)
(* ------------------------------------------------------------------ *)

let check_r ~source:(p : Problem.t) (d : Rounde.denoted) =
  timed @@ fun () ->
  let p' = d.Rounde.problem in
  let what = Printf.sprintf "R certificate (%s)" p.Problem.name in
  let n = Problem.label_count p in
  let delta = Problem.delta p in
  if Problem.delta p' <> delta then
    fail "%s: node arity changed from %d to %d" what delta (Problem.delta p');
  check_denotations ~what ~source:p d;
  let denots = d.Rounde.denotations in
  let compat = edge_compat p in
  let pairs = edge_pairs ~what p'.Problem.edge in
  let set_name = Alphabet.set_name p.Problem.alpha in
  (* [nbrs s]: the source labels compatible with every member of [s]. *)
  let nbrs s =
    let t = ref Labelset.empty in
    for y = 0 to n - 1 do
      if Labelset.for_all (fun x -> compat.(x).(y)) s then t := Labelset.add y !t
    done;
    !t
  in
  (* Validity: every choice across every emitted pair is compatible. *)
  List.iter
    (fun (i, j) ->
      if not (Labelset.subset denots.(j) (nbrs denots.(i))) then
        fail "%s: emitted pair (%s, %s) has an incompatible choice" what
          (set_name denots.(i)) (set_name denots.(j)))
    pairs;
  (* Maximality: no source label can be added to either side. *)
  let maximal side other =
    let extra = Labelset.diff (nbrs other) side in
    if not (Labelset.is_empty extra) then
      fail "%s: pair (%s, %s) is not maximal — label %s can join the first side"
        what (set_name side) (set_name other)
        (Alphabet.name p.Problem.alpha (Labelset.choose extra))
  in
  List.iter
    (fun (i, j) ->
      maximal denots.(i) denots.(j);
      maximal denots.(j) denots.(i))
    pairs;
  (* Completeness: every valid pair must be dominated by an emitted
     one.  Write N(S) for the source labels compatible with every member
     of S.  A valid (S, T) is dominated by (C, N(C)) with C = N(N(S)),
     as T ⊆ N(S) = N(C); these are the maximal pairs, and a valid
     emitted pair dominates one only by being it.  Validity and
     maximality (above) make every emitted side equal to N of its
     partner, so (C, N(C)) is emitted iff C is an emitted side.  The
     sides required are the C with C and N(C) non-empty: the non-empty
     intersections of sets N({y}) (C is the one over y ∈ N(C)).  The
     emitted sides E hold all of them iff E holds every non-empty N({y})
     and every non-empty A ∩ B with A, B in E: A ∩ B is N of the union
     of the partners of A and B, and C is reached one N({y}) at a time
     through supersets of C.  n + |E|² set operations with |E| ≤ 60, so
     this is never skipped. *)
  let sides =
    List.sort_uniq Labelset.compare
      (List.concat_map (fun (i, j) -> [ denots.(i); denots.(j) ]) pairs)
  in
  let require c =
    if not (Labelset.is_empty c || List.exists (Labelset.equal c) sides) then
      fail "%s: valid pair (%s, %s) is dominated by no emitted pair" what
        (set_name c) (set_name (nbrs c))
  in
  for y = 0 to n - 1 do
    require (nbrs (Labelset.singleton y))
  done;
  List.iter (fun a -> List.iter (fun b -> require (Labelset.inter a b)) sides) sides;
  (* Node constraint: extensionally, a configuration over new labels is
     allowed iff some choice of representatives (one source label from
     each denotation) is an allowed source configuration. *)
  guarded work_budget (fun charge ->
      let est = Constr.expansion_estimate p'.Problem.node in
      if est > float_of_int work_budget then raise Skipped;
      let configs = Constr.expand p'.Problem.node in
      let allowed = Keys.create (List.length configs) in
      List.iter
        (fun m -> Keys.replace allowed (key_of (Array.of_list (Multiset.to_list m))) ())
        configs;
      let n' = Problem.label_count p' in
      let source = membership p.Problem.node in
      let choice = Array.make delta 0 in
      let rec has_choice conf k =
        if k = delta then member source choice
        else begin
          charge (Labelset.cardinal denots.(conf.(k)));
          Labelset.exists
            (fun x ->
              choice.(k) <- x;
              has_choice conf (k + 1))
            denots.(conf.(k))
        end
      in
      let key = Bytes.create delta in
      iter_multisets ~charge n' delta (fun conf ->
          fill_key key conf;
          let emitted = Keys.mem allowed (Bytes.unsafe_to_string key) in
          let expected = has_choice conf 0 in
          if emitted && not expected then
            fail "%s: node configuration %s has no allowed choice of \
                  representatives"
              what
              (Multiset.to_string p'.Problem.alpha (multiset_of conf))
          else if expected && not emitted then
            fail "%s: node configuration %s admits an allowed choice but is \
                  not in the node constraint"
              what
              (Multiset.to_string p'.Problem.alpha (multiset_of conf))));
  stats.r_certified <- stats.r_certified + 1

(* ------------------------------------------------------------------ *)
(* R̄                                                                  *)
(* ------------------------------------------------------------------ *)

(* Injective matching of every set of [bi] into a (weak) superset in
   [bj], by plain backtracking — written from scratch; the engine's
   transportation solver is never consulted.  Only coverage uses it. *)
let box_dominated bi bj =
  let d = Array.length bj in
  let used = Array.make d false in
  let rec go = function
    | [] -> true
    | s :: rest ->
        let rec try_slot j =
          if j >= d then false
          else if (not used.(j)) && Labelset.subset s bj.(j) then begin
            used.(j) <- true;
            if go rest then true
            else begin
              used.(j) <- false;
              try_slot (j + 1)
            end
          end
          else try_slot (j + 1)
        in
        try_slot 0
  in
  go (Array.to_list bi)

let check_rbar ~source:(p : Problem.t) (d : Rounde.denoted) =
  timed @@ fun () ->
  let p'' = d.Rounde.problem in
  let what = Printf.sprintf "Rbar certificate (%s)" p.Problem.name in
  let delta = Problem.delta p in
  if Problem.delta p'' <> delta then
    fail "%s: node arity changed from %d to %d" what delta (Problem.delta p'');
  check_denotations ~what ~source:p d;
  let denots = d.Rounde.denotations in
  let compat = edge_compat p in
  let pp_set = Alphabet.set_name p.Problem.alpha in
  (* Boxes: the concrete node configurations of the output, with each
     output label replaced by its denotation. *)
  let boxes =
    let acc = ref [] in
    List.iter
      (fun line ->
        Line.expand line (fun m ->
            acc :=
              Array.of_list (List.map (fun l -> denots.(l)) (Multiset.to_list m))
              :: !acc))
      (Constr.lines p''.Problem.node);
    Array.of_list (List.rev !acc)
  in
  let pp_box b =
    String.concat " " (List.map pp_set (Array.to_list b))
  in
  (* Validity + per-position maximality of every box. *)
  guarded work_budget (fun charge ->
      let n = Problem.label_count p in
      let source = membership p.Problem.node in
      let choice = Array.make delta 0 in
      Array.iter
        (fun box ->
          let d_ = Array.length box in
          (* Every choice b1 ∈ B1, …, bΔ ∈ BΔ is allowed. *)
          let rec all_choices k =
            if k = d_ then begin
              charge 1;
              if not (member source choice) then
                fail "%s: box [%s] has the disallowed choice %s" what
                  (pp_box box)
                  (Multiset.to_string p.Problem.alpha (multiset_of choice))
            end
            else
              Labelset.iter
                (fun x ->
                  choice.(k) <- x;
                  all_choices (k + 1))
                box.(k)
          in
          all_choices 0;
          (* No label can be added at any position: with z placed at
             position [skip], some choice at the other positions must be
             disallowed. *)
          let rec some_bad_choice k skip =
            if k = d_ then begin
              charge 1;
              not (member source choice)
            end
            else if k = skip then some_bad_choice (k + 1) skip
            else
              Labelset.exists
                (fun x ->
                  choice.(k) <- x;
                  some_bad_choice (k + 1) skip)
                box.(k)
          in
          for k = 0 to d_ - 1 do
            for z = 0 to n - 1 do
              if not (Labelset.mem z box.(k)) then begin
                choice.(k) <- z;
                if not (some_bad_choice 0 k) then
                  fail "%s: box [%s] is not maximal — label %s fits at \
                        position %d"
                    what (pp_box box)
                    (Alphabet.name p.Problem.alpha z)
                    k
              end
            done
          done)
        boxes);
  (* No box is dominated by (injectively embeds set-wise into) another:
     once the scan above has run to the end, this needs no check of its
     own.  A box strictly dominated by a valid box fails per-position
     maximality: extend it, at a slot whose image is larger, by a label
     of that image, and every choice of the extended box is a choice of
     the dominating box.  A disjunctive node line has two expansions
     that differ in one slot, where they hold distinct sets X and Y;
     with z in Y but not X, the first extended by z there has only
     choices of the two, so it is not maximal (or the second, the other
     way round).  So every line is one box, [Constr.make] keeps no two
     equal lines, and denotations are distinct: no box appears twice.
     When the scan is skipped, non-dominance is part of its one skip. *)
  (* Coverage: every allowed source configuration must embed into some
     box (the singleton box it induces is valid, hence must be
     dominated by an emitted one). *)
  guarded work_budget (fun charge ->
      let est = Constr.expansion_estimate p.Problem.node in
      if est > float_of_int work_budget then raise Skipped;
      List.iter
        (fun m ->
          charge (Array.length boxes);
          let singletons =
            Array.of_list
              (List.map Labelset.singleton (Multiset.to_list m))
          in
          if
            not
              (Array.exists (fun box -> box_dominated singletons box) boxes)
          then
            fail "%s: allowed configuration %s is covered by no box" what
              (Multiset.to_string p.Problem.alpha m))
        (Constr.expand p.Problem.node));
  (* Edge constraint: exactly the pairs of used sets with a compatible
     choice. *)
  let n'' = Problem.label_count p'' in
  let pairs = edge_pairs ~what p''.Problem.edge in
  let has_pair =
    let tbl = Hashtbl.create 64 in
    List.iter (fun ij -> Hashtbl.replace tbl ij ()) pairs;
    fun i j -> Hashtbl.mem tbl (min i j, max i j)
  in
  for i = 0 to n'' - 1 do
    for j = i to n'' - 1 do
      let compatible_choice =
        Labelset.exists
          (fun a -> Labelset.exists (fun b -> compat.(a).(b)) denots.(j))
          denots.(i)
      in
      if compatible_choice && not (has_pair i j) then
        fail "%s: sets %s and %s admit a compatible choice but the pair is \
              missing from the edge constraint"
          what (pp_set denots.(i)) (pp_set denots.(j))
      else if (not compatible_choice) && has_pair i j then
        fail "%s: emitted edge pair (%s, %s) admits no compatible choice" what
          (pp_set denots.(i)) (pp_set denots.(j))
    done
  done;
  stats.rbar_certified <- stats.rbar_certified + 1

(* ------------------------------------------------------------------ *)
(* 0-round verdicts                                                    *)
(* ------------------------------------------------------------------ *)

let check_zero_round ~mode (p : Problem.t) (verdict : Multiset.t option) =
  timed @@ fun () ->
  let what =
    Printf.sprintf "0-round certificate (%s, %s ports)" p.Problem.name
      (match mode with `Mirrored -> "mirrored" | `Arbitrary -> "arbitrary")
  in
  let compat = edge_compat p in
  let usable m =
    match mode with
    | `Mirrored -> List.for_all (fun l -> compat.(l).(l)) (Multiset.to_list m)
    | `Arbitrary ->
        let sup = Labelset.elements (Multiset.support m) in
        List.for_all (fun a -> List.for_all (fun b -> compat.(a).(b)) sup) sup
  in
  (match verdict with
  | Some w ->
      if Multiset.size w <> Problem.delta p then
        fail "%s: witness %s has arity %d, expected %d" what
          (Multiset.to_string p.Problem.alpha w)
          (Multiset.size w) (Problem.delta p);
      if not (Constr.mem p.Problem.node w) then
        fail "%s: witness %s is not an allowed node configuration" what
          (Multiset.to_string p.Problem.alpha w);
      if not (usable w) then
        fail "%s: witness %s fails the port-compatibility requirement" what
          (Multiset.to_string p.Problem.alpha w)
  | None ->
      let expand_limit = float_of_int work_budget in
      guarded max_int (fun _charge ->
          if Constr.expansion_estimate p.Problem.node > expand_limit then
            raise Skipped;
          List.iter
            (fun m ->
              if usable m then
                fail "%s: engine claims unsolvable, but configuration %s is a \
                      valid witness"
                  what
                  (Multiset.to_string p.Problem.alpha m))
            (Constr.expand ~limit:expand_limit p.Problem.node)));
  stats.zero_certified <- stats.zero_certified + 1

(* ------------------------------------------------------------------ *)
(* Relaxations                                                         *)
(* ------------------------------------------------------------------ *)

(* Does the concrete source configuration [m] fit into [line] of the
   relaxed problem?  A slot holding source label [y] may be rewritten
   to any relaxed label [s] with [y ∈ denots.(s)]; a line group [G]
   accepts [y] iff some member of [G] denotes it.  Plain backtracking
   over the label classes of [m] (fresh code — the engine's
   transportation solver is never consulted). *)
let config_fits_line ~denots m line =
  let classes = Array.of_list (Multiset.counts m) in
  let groups = Array.of_list (Line.groups line) in
  let caps = Array.map snd groups in
  let fits y g =
    Labelset.exists (fun s -> Labelset.mem y denots.(s)) g
  in
  let rec place i remaining =
    if i = Array.length classes then true
    else if remaining = 0 then place (i + 1) (-1)
    else begin
      let remaining =
        if remaining < 0 then snd classes.(i) else remaining
      in
      let y = fst classes.(i) in
      let rec try_group j =
        if j >= Array.length groups then false
        else if caps.(j) > 0 && fits y (fst groups.(j)) then begin
          caps.(j) <- caps.(j) - 1;
          if place i (remaining - 1) then true
          else begin
            caps.(j) <- caps.(j) + 1;
            try_group (j + 1)
          end
        end
        else try_group (j + 1)
      in
      try_group 0
    end
  in
  place 0 (-1)

let check_relaxation ~source:(p : Problem.t) (d : Rounde.denoted) =
  timed @@ fun () ->
  let q = d.Rounde.problem in
  let what = Printf.sprintf "relaxation certificate (%s)" p.Problem.name in
  check_denotations ~what ~source:p d;
  let denots = d.Rounde.denotations in
  if Problem.delta q <> Problem.delta p then
    fail "%s: node arity changed from %d to %d" what (Problem.delta p)
      (Problem.delta q);
  (* Cover: every source label occurring in a constraint must be
     denoted by some relaxed label, or no half-edge carrying it could
     be rewritten. *)
  let used =
    Labelset.union (Constr.support p.Problem.node) (Constr.support p.Problem.edge)
  in
  let containers y =
    let acc = ref Labelset.empty in
    Array.iteri
      (fun s ds -> if Labelset.mem y ds then acc := Labelset.add s !acc)
      denots;
    !acc
  in
  Labelset.iter
    (fun y ->
      if Labelset.is_empty (containers y) then
        fail "%s: source label %s is denoted by no relaxed label" what
          (Alphabet.name p.Problem.alpha y))
    used;
  (* Edge condition: the rewrite of a half-edge label must be free.
     For every concrete source edge pair (y1, y2), EVERY pair of
     containers (S1 ∋ y1, S2 ∋ y2) must be allowed by the relaxed edge
     constraint — the node-side witness then never conflicts with the
     edge constraint. *)
  let q_pairs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun ij -> Hashtbl.replace tbl ij ())
      (edge_pairs ~what q.Problem.edge);
    fun i j -> Hashtbl.mem tbl (min i j, max i j)
  in
  List.iter
    (fun (y1, y2) ->
      Labelset.iter
        (fun s1 ->
          Labelset.iter
            (fun s2 ->
              if not (q_pairs s1 s2) then
                fail
                  "%s: source edge pair (%s, %s) rewrites to (%s, %s), which \
                   the relaxed edge constraint forbids"
                  what
                  (Alphabet.name p.Problem.alpha y1)
                  (Alphabet.name p.Problem.alpha y2)
                  (Alphabet.name q.Problem.alpha s1)
                  (Alphabet.name q.Problem.alpha s2))
            (containers y2))
        (containers y1))
    (edge_pairs ~what p.Problem.edge);
  (* Node condition: every allowed source configuration must fit into
     some relaxed node line (budget-guarded expansion: a skip leaves
     the certificate partial, never wrong). *)
  guarded work_budget (fun charge ->
      if Constr.expansion_estimate p.Problem.node > float_of_int work_budget
      then raise Skipped;
      let lines = Constr.lines q.Problem.node in
      List.iter
        (fun m ->
          charge (List.length lines);
          if not (List.exists (config_fits_line ~denots m) lines) then
            fail "%s: allowed source configuration %s fits no relaxed node line"
              what
              (Multiset.to_string p.Problem.alpha m))
        (Constr.expand ~limit:(float_of_int work_budget) p.Problem.node));
  stats.relaxations_certified <- stats.relaxations_certified + 1

(* ------------------------------------------------------------------ *)
(* Fixed points                                                        *)
(* ------------------------------------------------------------------ *)

let check_fixed_point (p : Problem.t) =
  timed @@ fun () ->
  let { Rounde.problem = next; _ } =
    Rounde.step ~pool:Parallel.Pool.sequential p
  in
  let next = Simplify.normalize next in
  let claimed = Simplify.normalize p in
  if not (Iso.equal_up_to_renaming next claimed) then
    fail
      "fixed-point certificate (%s): a fresh sequential replay of the speedup \
       step is not isomorphic to the claimed fixed point"
      p.Problem.name;
  stats.fixed_points_certified <- stats.fixed_points_certified + 1
