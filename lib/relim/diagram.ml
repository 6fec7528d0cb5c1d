type label = Labelset.label

(* [weaker.(a)] is the set of labels [a] is strictly stronger than:
   [minimal_elements] tests a member with one AND against it. *)
type t = {
  alpha : Alphabet.t;
  geq : bool array array;
  exact : bool;
  weaker : Labelset.t array;
}

let make alpha geq exact =
  let n = Alphabet.size alpha in
  let weaker =
    Array.init n (fun a ->
        let acc = ref Labelset.empty in
        for b = 0 to n - 1 do
          if geq.(a).(b) && not geq.(b).(a) then acc := Labelset.add b !acc
        done;
        !acc)
  in
  { alpha; geq; exact; weaker }

let alphabet d = d.alpha

let is_exact d = d.exact

let geq d a b = d.geq.(a).(b)

let gt d a b = d.geq.(a).(b) && not d.geq.(b).(a)

let equivalent d a b = d.geq.(a).(b) && d.geq.(b).(a)

let edge_diagram p =
  let n = Alphabet.size p.Problem.alpha in
  let compat = Problem.compat_matrix p in
  let geq = Array.make_matrix n n false in
  (* a >= b iff N(b) subseteq N(a). *)
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let ok = ref true in
      for c = 0 to n - 1 do
        if compat.(b).(c) && not compat.(a).(c) then ok := false
      done;
      geq.(a).(b) <- !ok
    done
  done;
  make p.Problem.alpha geq true

let node_diagram ?(expand_limit = 200_000.) p =
  let n = Alphabet.size p.Problem.alpha in
  let node = p.Problem.node in
  let geq = Array.make_matrix n n false in
  let exact = Constr.expansion_estimate node <= expand_limit in
  if exact then begin
    (* One pass over the allowed configurations.  For every context s
       (an allowed configuration minus one label), full(s) is the set
       of labels x with s + x allowed.  By definition a >= b iff every
       context that b completes is also completed by a, i.e. a lies in
       the intersection of the full(s) that contain b. *)
    let full = Hashtbl.create 4096 in
    List.iter
      (fun m ->
        Labelset.iter
          (fun b ->
            let s = Multiset.remove_one b m in
            let cur = Option.value ~default:Labelset.empty (Hashtbl.find_opt full s) in
            Hashtbl.replace full s (Labelset.add b cur))
          (Multiset.support m))
      (Constr.expand node);
    let stronger = Array.make n (Labelset.full n) in
    Hashtbl.iter
      (fun _ f -> Labelset.iter (fun b -> stronger.(b) <- Labelset.inter stronger.(b) f) f)
      full;
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        geq.(a).(b) <- Labelset.mem a stronger.(b)
      done
    done
  end
  else begin
    (* Condensed-level sound approximation: a >= b holds if, for every
       line L and every group of L containing b, the line obtained by
       substituting one slot of that group with {a} is covered by a
       single line of the constraint. May miss relations whose image
       family is split across several lines. *)
    let lines = Constr.lines node in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        geq.(a).(b) <-
          List.for_all
            (fun line ->
              List.for_all
                (fun (s, c) ->
                  if not (Labelset.mem b s) then true
                  else begin
                    let rest =
                      List.map
                        (fun (s', c') -> if Labelset.equal s' s then (s', c' - 1) else (s', c'))
                        (Line.groups line)
                      |> List.filter (fun (_, c') -> c' > 0)
                    in
                    let substituted =
                      Line.make ((Labelset.singleton a, 1) :: rest)
                    in
                    ignore c;
                    Constr.covers_line node substituted
                  end)
                (Line.groups line))
            lines
      done
    done
  end;
  make p.Problem.alpha geq exact

let above d l =
  let n = Alphabet.size d.alpha in
  let acc = ref Labelset.empty in
  for a = 0 to n - 1 do
    if a <> l && d.geq.(a).(l) then acc := Labelset.add a !acc
  done;
  !acc

let is_right_closed d s =
  Labelset.for_all (fun l -> Labelset.subset (above d l) s) s

(* Order-ideal enumeration of the right-closed sets.

   A set is right-closed iff it is an up-set of the strength relation,
   and the up-sets of a relation coincide with the up-sets of its
   transitive closure — which matters because the condensed-level
   approximation of [node_diagram] can produce a non-transitive [geq].
   After closing, equivalence classes (mutually reachable labels) are
   all-or-nothing in any up-set, so the up-sets are exactly the unions
   of classes closed under "every strictly stronger class is also
   included".  A DFS over the classes in topological
   order (each class visited after every class above it) therefore
   constructs each right-closed set exactly once and never builds
   anything else: the cost is proportional to the number of sets
   produced, not to 2^n, and the old 22-label cap is gone. *)

type condensation = {
  class_members : Labelset.t array;  (* labels of each class *)
  class_above : Labelset.t array;
      (* strictly-above classes, as a set of class indices (closure) *)
  class_order : int array;  (* class indices, every class after its above *)
}

let condense d =
  let n = Alphabet.size d.alpha in
  (* Transitive closure of geq (reflexive by construction of both
     diagram builders; harmless if not). *)
  let reach = Array.init n (fun a -> Array.copy d.geq.(a)) in
  for mid = 0 to n - 1 do
    for a = 0 to n - 1 do
      if reach.(a).(mid) then
        for b = 0 to n - 1 do
          if reach.(mid).(b) then reach.(a).(b) <- true
        done
    done
  done;
  let class_of = Array.make n (-1) in
  let members = ref [] and k = ref 0 in
  for a = 0 to n - 1 do
    if class_of.(a) < 0 then begin
      let c = !k in
      incr k;
      let m = ref (Labelset.singleton a) in
      class_of.(a) <- c;
      for b = a + 1 to n - 1 do
        if class_of.(b) < 0 && reach.(a).(b) && reach.(b).(a) then begin
          class_of.(b) <- c;
          m := Labelset.add b !m
        end
      done;
      members := !m :: !members
    end
  done;
  let class_members = Array.of_list (List.rev !members) in
  let class_above =
    Array.mapi
      (fun c m ->
        let rep = Labelset.choose m in
        let acc = ref Labelset.empty in
        for a = 0 to n - 1 do
          if class_of.(a) <> c && reach.(a).(rep) then
            acc := Labelset.add class_of.(a) !acc
        done;
        !acc)
      class_members
  in
  (* In the condensation DAG the closed above-sets strictly shrink along
     edges, so sorting by |above| ascending is a topological order. *)
  let class_order = Array.init !k Fun.id in
  Array.sort
    (fun c c' ->
      compare (Labelset.cardinal class_above.(c)) (Labelset.cardinal class_above.(c')))
    class_order;
  { class_members; class_above; class_order }

let iter_right_closed ?(limit = 5_000_000) d f =
  let { class_members; class_above; class_order } = condense d in
  let k = Array.length class_members in
  let count = ref 0 in
  (* Include/exclude DFS along the topological order; a class may be
     included only when every class above it already is, so every leaf
     with a non-empty union is a distinct right-closed set. *)
  let rec go i included union =
    if i = k then begin
      if not (Labelset.is_empty union) then begin
        incr count;
        if !count > limit then
          Budget.exceeded
            ~budget:
              (Printf.sprintf
                 "Diagram.right_closed_sets: right-closed sets (realized %d)"
                 (!count - 1))
            ~limit:(float_of_int limit);
        f union
      end
    end
    else begin
      let c = class_order.(i) in
      go (i + 1) included union;
      if Labelset.subset class_above.(c) included then
        go (i + 1) (Labelset.add c included)
          (Labelset.union union class_members.(c))
    end
  in
  go 0 Labelset.empty Labelset.empty

let right_closed_sets ?limit d =
  let acc = ref [] in
  iter_right_closed ?limit d (fun s -> acc := s :: !acc);
  (* Increasing bitset order, matching (bit-exactly) the order the old
     [nonempty_subsets]-filter implementation produced. *)
  List.sort Labelset.compare !acc

(* --- ZDD-backed family representation ----------------------------- *)

(* Zdd budget trips carry their realized progress; re-raise them as the
   engine-wide typed budget error, with the realized count in the
   message (same convention as the explicit enumerator above). *)
let translate_zdd_limit f =
  try f ()
  with Zdd.Limit { what; limit; realized } ->
    Budget.exceeded
      ~budget:(Printf.sprintf "Diagram/%s (realized %d)" what realized)
      ~limit

(* The right-closed sets as one compressed family: start from the full
   powerset and, for every raw relation [a ≥ l], delete the members
   that contain [l] but not [a].  The up-sets of a relation coincide
   with the up-sets of its transitive closure, so filtering on the raw
   (possibly non-transitive, condensed-level) [geq] pairs is exact.
   The empty set is removed at the end, matching the explicit
   enumeration.  Canonicity makes the result independent of the filter
   order. *)
let right_closed_family ?node_limit d =
  translate_zdd_limit @@ fun () ->
  let n = Alphabet.size d.alpha in
  let mgr = Zdd.create ?node_limit ~nbits:n () in
  let fam = ref (Zdd.powerset mgr (Labelset.to_bits (Labelset.full n))) in
  for l = 0 to n - 1 do
    Labelset.iter
      (fun a ->
        fam := Zdd.diff mgr !fam (Zdd.offset mgr a (Zdd.onset mgr l !fam)))
      (above d l)
  done;
  (mgr, Zdd.diff mgr !fam Zdd.top)

let right_closed_count ?node_limit d =
  let mgr, fam = right_closed_family ?node_limit d in
  Zdd.count mgr fam

(* Already in increasing bitset order — the enumeration order is the
   numeric mask order, so no sort is needed to match
   [right_closed_sets] byte for byte. *)
let right_closed_sets_zdd ?limit ?node_limit d =
  let mgr, fam = right_closed_family ?node_limit d in
  let acc = ref [] in
  translate_zdd_limit (fun () ->
      Zdd.iter ?limit mgr fam (fun mask -> acc := Labelset.of_bits mask :: !acc));
  List.rev !acc

let minimal_elements d s =
  Labelset.filter (fun l -> Labelset.is_empty (Labelset.inter s d.weaker.(l))) s

let hasse_edges d =
  let n = Alphabet.size d.alpha in
  let edges = ref [] in
  for weaker = 0 to n - 1 do
    for stronger = 0 to n - 1 do
      if stronger <> weaker && d.geq.(stronger).(weaker) then begin
        (* Transitive reduction: keep the edge unless an intermediate
           strictly-between label exists. *)
        let intermediate = ref false in
        for mid = 0 to n - 1 do
          if
            mid <> weaker && mid <> stronger
            && d.geq.(mid).(weaker)
            && d.geq.(stronger).(mid)
            && not (equivalent d mid weaker)
            && not (equivalent d stronger mid)
          then intermediate := true
        done;
        if not !intermediate then edges := (weaker, stronger) :: !edges
      end
    done
  done;
  List.rev !edges

let pp fmt d =
  let edges = hasse_edges d in
  if edges = [] then Format.pp_print_string fmt "(no relations)"
  else
    Format.fprintf fmt "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt (w, s) ->
           Format.fprintf fmt "%a -> %a" (Alphabet.pp_label d.alpha) w
             (Alphabet.pp_label d.alpha) s))
      edges

let to_dot ?(name = "diagram") d =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  rankdir=BT;\n" name);
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\";\n" (Alphabet.name d.alpha l)))
    (Alphabet.labels d.alpha);
  List.iter
    (fun (weaker, stronger) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\";\n" (Alphabet.name d.alpha weaker)
           (Alphabet.name d.alpha stronger)))
    (hasse_edges d);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
