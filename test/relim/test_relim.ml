(* Tests for the round-elimination engine. *)

open Relim

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Labelset                                                            *)
(* ------------------------------------------------------------------ *)

let test_labelset_basics () =
  let s = Labelset.of_list [ 0; 2; 5 ] in
  check_int "cardinal" 3 (Labelset.cardinal s);
  check_bool "mem 2" true (Labelset.mem 2 s);
  check_bool "mem 1" false (Labelset.mem 1 s);
  check Alcotest.(list int) "elements" [ 0; 2; 5 ] (Labelset.elements s);
  check_bool "subset" true (Labelset.subset (Labelset.of_list [ 0; 5 ]) s);
  check_bool "not subset" false (Labelset.subset (Labelset.of_list [ 1 ]) s);
  check_bool "strict subset" true
    (Labelset.strict_subset (Labelset.of_list [ 0 ]) s);
  check_bool "not strict (equal)" false (Labelset.strict_subset s s);
  check_int "choose" 0 (Labelset.choose s);
  check_bool "remove" false (Labelset.mem 2 (Labelset.remove 2 s))

let test_labelset_subsets () =
  let s = Labelset.of_list [ 1; 3; 4 ] in
  let subs = Labelset.nonempty_subsets s in
  check_int "2^3 - 1 subsets" 7 (List.length subs);
  List.iter
    (fun sub -> check_bool "subset of s" true (Labelset.subset sub s))
    subs;
  (* all distinct *)
  let sorted = List.sort_uniq Labelset.compare subs in
  check_int "distinct" 7 (List.length sorted)

let test_labelset_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Labelset: label 60 out of range") (fun () ->
      ignore (Labelset.singleton Labelset.max_label));
  check_int "full cardinal" 10 (Labelset.cardinal (Labelset.full 10))

let labelset_qcheck =
  let gen_set = QCheck.(map Labelset.of_bits (map (fun x -> x land 0xFFFF) small_nat)) in
  [
    QCheck.Test.make ~name:"union-commutative" ~count:200
      (QCheck.pair gen_set gen_set) (fun (a, b) ->
        Labelset.equal (Labelset.union a b) (Labelset.union b a));
    QCheck.Test.make ~name:"inter-subset" ~count:200
      (QCheck.pair gen_set gen_set) (fun (a, b) ->
        Labelset.subset (Labelset.inter a b) a);
    QCheck.Test.make ~name:"diff-disjoint" ~count:200
      (QCheck.pair gen_set gen_set) (fun (a, b) ->
        Labelset.is_empty (Labelset.inter (Labelset.diff a b) b));
    QCheck.Test.make ~name:"cardinal-elements" ~count:200 gen_set (fun s ->
        List.length (Labelset.elements s) = Labelset.cardinal s);
    QCheck.Test.make ~name:"inter-cardinal" ~count:200
      (QCheck.pair gen_set gen_set) (fun (a, b) ->
        Labelset.inter_cardinal a b = Labelset.cardinal (Labelset.inter a b));
  ]

(* The iterators walk set bits; [elements] builds its list by testing
   every label, so it is the reference.  Sets span all 60 labels, with
   the empty set, the full set and sets holding label 59 drawn often. *)
let labelset_iteration_qcheck =
  let full = Labelset.to_bits (Labelset.full Labelset.max_label) in
  let gen_set =
    QCheck.make
      ~print:(fun s -> Printf.sprintf "0x%x" (Labelset.to_bits s))
      QCheck.Gen.(
        map Labelset.of_bits
          (frequency
             [
               (1, return 0);
               (1, return full);
               (2, map (fun b -> b lor (1 lsl 59)) (int_bound full));
               (6, int_bound full);
             ]))
  in
  (* The labels [run] hands to its callback, in call order. *)
  let visits run =
    let seen = ref [] in
    let result = run (fun l -> seen := l :: !seen) in
    (List.rev !seen, result)
  in
  (* The prefix of [ls] up to and including the first [x] with [stop x]. *)
  let rec upto stop = function
    | [] -> []
    | x :: rest -> if stop x then [ x ] else x :: upto stop rest
  in
  [
    QCheck.Test.make ~name:"iter-fold-follow-elements" ~count:500 gen_set (fun s ->
        let els = Labelset.elements s in
        fst (visits (fun f -> Labelset.iter f s)) = els
        && List.rev (Labelset.fold (fun l acc -> l :: acc) s []) = els
        && List.sort_uniq compare els = els);
    QCheck.Test.make ~name:"exists-for-all-filter-stop-where-they-decide" ~count:500
      (QCheck.pair gen_set gen_set) (fun (s, q) ->
        let els = Labelset.elements s in
        let p l = Labelset.mem l q in
        let ex_seen, ex = visits (fun f -> Labelset.exists (fun l -> f l; p l) s) in
        let fa_seen, fa = visits (fun f -> Labelset.for_all (fun l -> f l; p l) s) in
        let fi_seen, fi = visits (fun f -> Labelset.filter (fun l -> f l; p l) s) in
        ex = List.exists p els
        && ex_seen = upto p els
        && fa = List.for_all p els
        && fa_seen = upto (fun l -> not (p l)) els
        && Labelset.equal fi (Labelset.of_list (List.filter p els))
        && fi_seen = els);
  ]

(* ------------------------------------------------------------------ *)
(* Multiset                                                            *)
(* ------------------------------------------------------------------ *)

let test_multiset_basics () =
  let m = Multiset.of_list [ 2; 0; 2; 1; 2 ] in
  check_int "size" 5 (Multiset.size m);
  check_int "count 2" 3 (Multiset.count m 2);
  check_int "count 7" 0 (Multiset.count m 7);
  check Alcotest.(list int) "to_list sorted" [ 0; 1; 2; 2; 2 ]
    (Multiset.to_list m);
  let m' = Multiset.replace_one ~remove:2 ~add:5 m in
  check_int "after replace: count 2" 2 (Multiset.count m' 2);
  check_int "after replace: count 5" 1 (Multiset.count m' 5);
  check_int "size preserved" 5 (Multiset.size m');
  Alcotest.check_raises "remove absent" Not_found (fun () ->
      ignore (Multiset.remove_one 9 m))

let test_multiset_sub () =
  let m = Multiset.of_counts [ (0, 2); (1, 1) ] in
  let subs = ref [] in
  Multiset.sub_multisets m (fun s -> subs := s :: !subs);
  (* (2+1) * (1+1) = 6 sub-multisets *)
  check_int "sub-multiset count" 6 (List.length !subs);
  let of_size k =
    let acc = ref 0 in
    Multiset.sub_multisets_of_size k m (fun _ -> incr acc);
    !acc
  in
  check_int "size-0" 1 (of_size 0);
  check_int "size-1" 2 (of_size 1);
  check_int "size-2" 2 (of_size 2);
  check_int "size-3" 1 (of_size 3)

let multiset_qcheck =
  let gen = QCheck.(small_list (int_bound 6)) in
  [
    QCheck.Test.make ~name:"of_list-size" ~count:200 gen (fun ls ->
        Multiset.size (Multiset.of_list ls) = List.length ls);
    QCheck.Test.make ~name:"support-subset" ~count:200 gen (fun ls ->
        let m = Multiset.of_list ls in
        List.for_all (fun l -> Labelset.mem l (Multiset.support m)) ls);
    QCheck.Test.make ~name:"add-remove-roundtrip" ~count:200 gen (fun ls ->
        let m = Multiset.of_list ls in
        Multiset.equal m (Multiset.remove_one 3 (Multiset.add 3 m)));
  ]

(* ------------------------------------------------------------------ *)
(* Line / Constr                                                       *)
(* ------------------------------------------------------------------ *)

let alpha5 = Alphabet.create [ "M"; "P"; "O"; "A"; "X" ]

let line s = Parse.line alpha5 s

let test_line_basics () =
  let l = line "M^2 [PO]^3" in
  check_int "arity" 5 (Line.arity l);
  check_bool "contains M M P P O" true
    (Line.contains l (Multiset.of_list [ 0; 0; 1; 1; 2 ]));
  check_bool "contains M M P P P" true
    (Line.contains l (Multiset.of_list [ 0; 0; 1; 1; 1 ]));
  check_bool "not contains M P P P P" false
    (Line.contains l (Multiset.of_list [ 0; 1; 1; 1; 1 ]));
  check_bool "not contains wrong arity" false
    (Line.contains l (Multiset.of_list [ 0; 0; 1; 1 ]));
  check_bool "partial M P" true
    (Line.contains_partial l (Multiset.of_list [ 0; 1 ]));
  check_bool "partial M M M impossible" false
    (Line.contains_partial l (Multiset.of_list [ 0; 0; 0 ]))

let test_line_covers () =
  let big = line "[MPO]^3" in
  let small = line "M [PO]^2" in
  check_bool "covers" true (Line.covers big small);
  check_bool "not covered" false (Line.covers small big)

let test_line_expand () =
  let l = line "[MP]^2 X" in
  let seen = ref [] in
  Line.expand l (fun m -> seen := Multiset.to_list m :: !seen);
  let distinct = List.sort_uniq compare !seen in
  (* MM X, MP X, PP X *)
  check_int "distinct expansions" 3 (List.length distinct)

let test_constr () =
  let c = Constr.make [ line "M^5"; line "P O^4" ] in
  check_int "arity" 5 (Constr.arity c);
  check_bool "mem M^5" true (Constr.mem c (Multiset.of_list [ 0; 0; 0; 0; 0 ]));
  check_bool "mem P O^4" true
    (Constr.mem c (Multiset.of_list [ 1; 2; 2; 2; 2 ]));
  check_bool "not mem P P O^3" false
    (Constr.mem c (Multiset.of_list [ 1; 1; 2; 2; 2 ]));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Constr.make: lines of different arity") (fun () ->
      ignore (Constr.make [ line "M M"; line "M" ]))

let test_constr_expand () =
  let c = Constr.make [ line "[MP] O"; line "M [OP]" ] in
  let configs = Constr.expand c in
  (* MO, PO, MP: the overlap MO appears once. *)
  check_int "deduplicated" 3 (List.length configs)

(* Regression: an expansion past its limit surfaces as the typed
   [Budget.Budget_exceeded] (echoing the configured limit), not as a
   bare [Failure _]. *)
let test_constr_budget_typed () =
  let big = Constr.make [ Parse.line alpha5 "[MPOAX] [MPOAX] [MPOAX]" ] in
  match Constr.expand ~limit:3. big with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Budget.Budget_exceeded { budget; limit } ->
      check_bool "names the expansion budget" true
        (budget = "Constr.expand: constraint expansion");
      check_bool "echoes the limit" true (limit = 3.)

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_forms () =
  let l1 = Parse.line alpha5 "M M M" in
  let l2 = Parse.line alpha5 "M^3" in
  check_bool "equivalent forms" true (Line.equal l1 l2);
  let l3 = Parse.line alpha5 "[P O] X" in
  let l4 = Parse.line alpha5 "[PO] X" in
  check_bool "bracket forms" true (Line.equal l3 l4)

(* One configuration of 61 distinct labels, one more than a label set
   holds. *)
let labels61 = String.concat " " (List.init 61 (Printf.sprintf "l%d"))

let test_parse_errors () =
  let fails f = match f () with
    | exception Failure _ -> true
    | _ -> false
  in
  check_bool "unknown label" true (fails (fun () -> Parse.line alpha5 "Z"));
  check_bool "unclosed bracket" true (fails (fun () -> Parse.line alpha5 "[MP"));
  check_bool "missing count" true (fails (fun () -> Parse.line alpha5 "M^"));
  check_bool "empty disjunction" true (fails (fun () -> Parse.line alpha5 "[]"));
  (* Names [Alphabet.create] refuses are parse errors too. *)
  let problem_error node edge =
    match Parse.problem ~name:"p" ~node ~edge with
    | exception Failure msg -> msg
    | _ -> Alcotest.fail "expected parse failure"
  in
  check Alcotest.string "bad label name" {|Alphabet.create: bad character '(' in "A("|}
    (problem_error "A( A( A(" "A( A(");
  check Alcotest.string "61 labels" "Alphabet.create: 61 labels, more than 60"
    (problem_error labels61 "l0 l0")

let test_parse_problem () =
  let p = Parse.problem ~name:"mis" ~node:"M M M\nP O O" ~edge:"M [PO]\nO O" in
  check_int "labels" 3 (Problem.label_count p);
  check_int "delta" 3 (Problem.delta p);
  check Alcotest.(list string) "names"
    [ "M"; "P"; "O" ]
    (List.map (Alphabet.name p.alpha) (Alphabet.labels p.alpha))

let test_scan_labels () =
  check Alcotest.(list string) "scan" [ "M"; "P"; "O" ]
    (Parse.scan_labels "M M M; P [OM] O")

(* ------------------------------------------------------------------ *)
(* Diagram                                                             *)
(* ------------------------------------------------------------------ *)

let mis3 = Parse.problem ~name:"MIS" ~node:"M M M\nP O O" ~edge:"M [PO]\nO O"

let test_edge_diagram_mis () =
  (* Figure 1: O is stronger than P; M unrelated to both. *)
  let d = Diagram.edge_diagram mis3 in
  let l name = Alphabet.find mis3.alpha name in
  check_bool "O >= P" true (Diagram.geq d (l "O") (l "P"));
  check_bool "O > P" true (Diagram.gt d (l "O") (l "P"));
  check_bool "P not >= O" false (Diagram.geq d (l "P") (l "O"));
  check_bool "M not >= P" false (Diagram.geq d (l "M") (l "P"));
  check_bool "M not >= O" false (Diagram.geq d (l "M") (l "O"));
  check_bool "P not >= M" false (Diagram.geq d (l "P") (l "M"));
  check Alcotest.(list (pair int int)) "hasse"
    [ (l "P", l "O") ]
    (Diagram.hasse_edges d)

let test_right_closed_mis () =
  let d = Diagram.edge_diagram mis3 in
  let sets = Diagram.right_closed_sets d in
  let l name = Alphabet.find mis3.alpha name in
  (* Right-closed sets: any set where P implies O. With labels M,P,O:
     all subsets except those containing P without O: {P}, {M,P}.
     7 non-empty - 2 = 5. *)
  check_int "count" 5 (List.length sets);
  check_bool "PO is right-closed" true
    (Diagram.is_right_closed d (Labelset.of_list [ l "P"; l "O" ]));
  check_bool "P alone is not" false
    (Diagram.is_right_closed d (Labelset.of_list [ l "P" ]))

let test_minimal_elements () =
  let d = Diagram.edge_diagram mis3 in
  let l name = Alphabet.find mis3.alpha name in
  let s = Labelset.of_list [ l "P"; l "O"; l "M" ] in
  let mins = Diagram.minimal_elements d s in
  check_bool "P minimal" true (Labelset.mem (l "P") mins);
  check_bool "M minimal" true (Labelset.mem (l "M") mins);
  check_bool "O not minimal" false (Labelset.mem (l "O") mins)

let test_node_diagram_exact_vs_condensed () =
  (* On an expandable instance the two node-diagram computations must
     agree wherever the condensed one reports a relation (it is sound
     but possibly incomplete). *)
  let p =
    Parse.problem ~name:"pi" ~node:"M^5 X^2\nA^4 X^3\nP O^6"
      ~edge:"M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]"
  in
  let exact = Diagram.node_diagram ~expand_limit:1e7 p in
  let approx = Diagram.node_diagram ~expand_limit:1. p in
  check_bool "exact mode" true (Diagram.is_exact exact);
  check_bool "approx mode" false (Diagram.is_exact approx);
  let n = Problem.label_count p in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Diagram.geq approx a b then
        check_bool
          (Printf.sprintf "approx(%d>=%d) implies exact" a b)
          true (Diagram.geq exact a b)
    done
  done

(* ------------------------------------------------------------------ *)
(* Rounde                                                              *)
(* ------------------------------------------------------------------ *)

let test_r_mis () =
  let { Rounde.problem = p'; denotations } = Rounde.r mis3 in
  check_int "4 labels" 4 (Problem.label_count p');
  check_int "2 edge lines" 2 (List.length (Constr.lines p'.edge));
  check_int "2 node lines" 2 (List.length (Constr.lines p'.node));
  (* Denotations must be the sets {M}, {PO}, {O}, {MO}. *)
  let l name = Alphabet.find mis3.alpha name in
  let expected =
    List.sort Labelset.compare
      [
        Labelset.of_list [ l "M" ];
        Labelset.of_list [ l "P"; l "O" ];
        Labelset.of_list [ l "O" ];
        Labelset.of_list [ l "M"; l "O" ];
      ]
  in
  check_bool "denotations" true
    (List.equal Labelset.equal expected
       (List.sort Labelset.compare (Array.to_list denotations)))

let test_sinkless_orientation_fixed_point () =
  let so =
    Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I"
  in
  let { Rounde.problem = so2; _ } = Rounde.step so in
  let { Rounde.problem = so3; _ } = Rounde.step so2 in
  check_bool "fixed point" true (Iso.equal_up_to_renaming so2 so3)

let test_rbar_labels_right_closed () =
  (* Observation 4: every label of Rbar(R(Pi)) is right-closed w.r.t.
     the node diagram of R(Pi). *)
  let { Rounde.problem = p'; _ } = Rounde.r mis3 in
  let d = Diagram.node_diagram p' in
  let { Rounde.problem = _; denotations } = Rounde.rbar p' in
  Array.iter
    (fun set ->
      check_bool "right-closed" true (Diagram.is_right_closed d set))
    denotations

let test_rbar_maximality () =
  (* No node line of Rbar output strictly dominates another. *)
  let { Rounde.problem = p'; _ } = Rounde.r mis3 in
  let { Rounde.problem = p''; denotations } = Rounde.rbar p' in
  let boxes =
    List.map
      (fun line ->
        match Line.to_multiset line with
        | Some m -> List.map (fun l -> denotations.(l)) (Multiset.to_list m)
        | None -> Alcotest.fail "non-concrete rbar output")
      (Constr.lines p''.node)
  in
  let dominates a b =
    (* b <= a slotwise up to permutation, strictly *)
    let a = Array.of_list a and b = Array.of_list b in
    Array.length a = Array.length b
    && Util.transport_feasible
         ~supply:(Array.map (fun _ -> 1) b)
         ~demand:(Array.map (fun _ -> 1) a)
         ~allowed:(fun i j -> Labelset.subset b.(i) a.(j))
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            check_bool "antichain" false
              (dominates a b && not (dominates b a)))
        boxes)
    boxes

let test_rbar_guard () =
  (* 21 pairwise-unrelated labels: the node diagram is an antichain, so
     there are 2^21 - 1 right-closed sets and the rc budget must trip.
     (The seed refused anything over 20 labels outright; the budget now
     depends on the actual diagram, not on the label count — see the
     24-label chain test below, which succeeds.)  [~zdd:false] pins the
     explicit path: this guard is specifically about the explicit
     enumeration's budget, which the ZDD path does not have (test/zdd
     covers that path's own budgets). *)
  let big =
    Parse.problem ~name:"big"
      ~node:"A B C D E F G H I J K L M N O P Q R S T U"
      ~edge:"[ABCDEFGHIJKLMNOPQRSTU] [ABCDEFGHIJKLMNOPQRSTU]"
  in
  match Rounde.rbar ~zdd:false big with
  | exception Budget.Budget_exceeded { budget; _ } ->
      let has needle =
        let len = String.length needle in
        let rec scan i =
          i + len <= String.length budget
          && (String.sub budget i len = needle || scan (i + 1))
        in
        scan 0
      in
      check_bool "budget name" true (has "right-closed")
  | _ -> Alcotest.fail "expected right-closed-set budget overrun"

let test_r_empty_node () =
  (* Label Y appears on no edge line, so the only node line dies during
     R; the engine must say so instead of building a problem with an
     empty node constraint. *)
  let dead = Parse.problem ~name:"dead" ~node:"Y A A" ~edge:"A A" in
  match Rounde.r dead with
  | exception Failure msg ->
      let needle = "empty node constraint" in
      let len = String.length needle in
      let rec scan i =
        i + len <= String.length msg
        && (String.sub msg i len = needle || scan (i + 1))
      in
      check_bool "names the empty node constraint" true (scan 0)
  | _ -> Alcotest.fail "expected an empty-node-constraint failure"

let test_step_speedup_on_coloring () =
  (* 3-coloring on a path (Delta = 2): a classic log*-round problem;
     one speedup step must keep it non-0-round solvable but change the
     problem. *)
  let col =
    Parse.problem ~name:"3col" ~node:"A A\nB B\nC C" ~edge:"A [BC]\nB C"
  in
  let { Rounde.problem = next; _ } = Rounde.step col in
  check_bool "label growth" true (Problem.label_count next >= 3)

(* ------------------------------------------------------------------ *)
(* Zeroround                                                           *)
(* ------------------------------------------------------------------ *)

let test_zeroround_mis () =
  check_bool "mirrored" true (Zeroround.solvable_mirrored mis3 = None);
  check_bool "arbitrary" true (Zeroround.solvable_arbitrary_ports mis3 = None);
  match Zeroround.randomized_failure_bound mis3 with
  | Some b ->
      (* 2 configurations, Delta 3: 1/36. *)
      Alcotest.(check (float 1e-9)) "bound" (1. /. 36.) b
  | None -> Alcotest.fail "expected a bound"

let test_zeroround_trivial () =
  let triv = Parse.problem ~name:"t" ~node:"A A A" ~edge:"A A" in
  check_bool "mirrored solvable" true (Zeroround.solvable_mirrored triv <> None);
  check_bool "arbitrary solvable" true
    (Zeroround.solvable_arbitrary_ports triv <> None);
  check_bool "no bound" true (Zeroround.randomized_failure_bound triv = None)

let test_zeroround_mirrored_but_not_arbitrary () =
  (* Node picks one L and one R; L only compatible with R.  Under
     mirrored ports assign L to port 0 and R to port 1: LL on edge
     0... not self-compatible. Use instead: edge LL and RR allowed but
     LR not: mirrored works (any port assignment), arbitrary fails. *)
  let p = Parse.problem ~name:"halves" ~node:"L R" ~edge:"L L\nR R" in
  check_bool "mirrored ok" true (Zeroround.solvable_mirrored p <> None);
  check_bool "arbitrary fails" true (Zeroround.solvable_arbitrary_ports p = None)

let test_self_compatible () =
  let s = Zeroround.self_compatible mis3 in
  let l name = Alphabet.find mis3.alpha name in
  check_bool "O self" true (Labelset.mem (l "O") s);
  check_bool "M not" false (Labelset.mem (l "M") s);
  check_bool "P not" false (Labelset.mem (l "P") s)

(* ------------------------------------------------------------------ *)
(* Iso                                                                 *)
(* ------------------------------------------------------------------ *)

let test_iso_identity () =
  check_bool "identity" true (Iso.equal_up_to_renaming mis3 mis3)

let test_iso_renamed () =
  let renamed =
    Parse.problem ~name:"MIS2" ~node:"Z Z Z\nQ W W" ~edge:"Z [QW]\nW W"
  in
  (match Iso.find_renaming mis3 renamed with
  | Some assoc ->
      let name_of l = Alphabet.name renamed.alpha l in
      let m = List.assoc (Alphabet.find mis3.alpha "M") assoc in
      check Alcotest.string "M maps to Z" "Z" (name_of m)
  | None -> Alcotest.fail "renaming not found");
  check_bool "renamed equal" true (Iso.equal_up_to_renaming mis3 renamed)

let test_iso_negative () =
  let other = Parse.problem ~name:"x" ~node:"M M M\nP O O" ~edge:"M [PO]\nO O\nP P" in
  check_bool "different problems" false (Iso.equal_up_to_renaming mis3 other)

(* [p] with each label [l] moved to index [perm.(l)], keeping its name:
   an isomorphic copy whose alphabet order differs. *)
let permute_labels (p : Problem.t) perm =
  let n = Alphabet.size p.Problem.alpha in
  let names = Array.make n "" in
  Array.iteri (fun l l' -> names.(l') <- Alphabet.name p.Problem.alpha l) perm;
  let remap s =
    Labelset.fold (fun l acc -> Labelset.add perm.(l) acc) s Labelset.empty
  in
  let f = Constr.map_lines (Line.map_syms remap) in
  Problem.make ~name:p.Problem.name
    ~alpha:(Alphabet.create (Array.to_list names))
    ~node:(f p.Problem.node) ~edge:(f p.Problem.edge)

(* Π(5,4,2) after one normalized step has 14 labels.  A search that
   compares label signatures only on complete bijections may visit up
   to 14! of them here; each of these three copies took it more than
   60 s. *)
let test_iso_fourteen_labels () =
  let pi542 = Core.Family.pi { Core.Family.delta = 5; a = 4; x = 2 } in
  let p =
    Simplify.normalize (Rounde.step (Simplify.normalize pi542)).Rounde.problem
  in
  check_int "labels" 14 (Problem.label_count p);
  List.iter
    (fun perm ->
      let q = permute_labels p (Array.of_list perm) in
      match Iso.find_renaming p q with
      | None -> Alcotest.fail "relabelled copy not recognised"
      | Some assoc ->
          let mapping = Array.make 14 (-1) in
          List.iter (fun (la, lb) -> mapping.(la) <- lb) assoc;
          let back = permute_labels p mapping in
          check_bool "renaming maps the constraints" true
            (Constr.equal back.Problem.node q.Problem.node
            && Constr.equal back.Problem.edge q.Problem.edge))
    [
      [ 13; 12; 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ];
      [ 5; 6; 7; 8; 9; 10; 11; 12; 13; 0; 1; 2; 3; 4 ];
      [ 9; 2; 13; 0; 7; 11; 4; 1; 12; 6; 3; 10; 8; 5 ];
    ]

(* The first bijection in lexicographic order (by the images of [a]'s
   labels 0, 1, ...) that maps [a]'s constraints onto [b]'s, by trying
   all n! of them. *)
let brute_force_renaming (a : Problem.t) (b : Problem.t) =
  let n = Alphabet.size a.Problem.alpha in
  if n <> Alphabet.size b.Problem.alpha then None
  else begin
    let perm = Array.make n (-1) and used = Array.make n false in
    let rec go la =
      if la = n then
        let r = permute_labels a perm in
        Constr.equal r.Problem.node b.Problem.node
        && Constr.equal r.Problem.edge b.Problem.edge
      else
        List.exists
          (fun lb ->
            (not used.(lb))
            && begin
                 used.(lb) <- true;
                 perm.(la) <- lb;
                 let found = go (la + 1) in
                 used.(lb) <- false;
                 found
               end)
          (List.init n Fun.id)
    in
    if go 0 then Some (List.init n (fun la -> (la, perm.(la)))) else None
  end

(* [find_renaming] returns exactly the brute force's renaming, on a
   random problem against a relabelled copy of itself, against another
   random problem, and against a relabelled copy of that one. *)
let iso_qcheck =
  let gen =
    QCheck.make
      ~print:(fun (p, _) -> Serialize.to_string p)
      (fun rng ->
        let problem () =
          Certify.Fuzz.gen_problem ~max_labels:7 ~max_delta:3 rng
        in
        let shuffle p =
          let n = Alphabet.size p.Problem.alpha in
          let keys = Array.init n (fun l -> (Random.State.bits rng, l)) in
          Array.sort compare keys;
          let perm = Array.make n 0 in
          Array.iteri (fun i (_, l) -> perm.(l) <- i) keys;
          permute_labels p perm
        in
        let p = problem () and q = problem () in
        (p, [ shuffle p; q; shuffle q ]))
  in
  [
    QCheck.Test.make ~name:"find-renaming-equals-brute-force" ~count:150 gen
      (fun (p, others) ->
        List.for_all
          (fun q -> Iso.find_renaming p q = brute_force_renaming p q)
          others);
  ]

let test_diagram_dot () =
  let dot = Diagram.to_dot (Diagram.edge_diagram mis3) in
  check_bool "has edge" true
    (let re_needle = "\"P\" -> \"O\"" in
     let len = String.length re_needle in
     let rec scan i =
       i + len <= String.length dot
       && (String.sub dot i len = re_needle || scan (i + 1))
     in
     scan 0);
  check_bool "digraph header" true (String.length dot > 10 && String.sub dot 0 7 = "digraph")

let test_apply_renaming () =
  let renamed = Iso.apply_renaming mis3 [ ("M", "Z") ] in
  check_bool "Z exists" true (Alphabet.mem_name renamed.alpha "Z");
  check_bool "M gone" false (Alphabet.mem_name renamed.alpha "M");
  check_bool "still isomorphic" true (Iso.equal_up_to_renaming mis3 renamed)

(* ------------------------------------------------------------------ *)
(* Theorem-level engine properties (qcheck)                            *)
(* ------------------------------------------------------------------ *)

let engine_qcheck =
  let params_gen =
    QCheck.(
      map
        (fun (d, a, x) ->
          let delta = 3 + (d mod 3) in
          let x = x mod max 1 (delta - 1) in
          let a = min delta (x + 2 + (a mod max 1 (delta - x - 1))) in
          (delta, a, x))
        (triple small_nat small_nat small_nat))
  in
  [
    QCheck.Test.make ~name:"r-labels-right-closed-wrt-edge-diagram" ~count:30
      params_gen (fun (delta, a, x) ->
        (* Observation 4 for R. *)
        let group (name, c) =
          if c = 0 then "" else Printf.sprintf " %s^%d" name c
        in
        let config groups = String.concat "" (List.map group groups) in
        let node =
          String.concat "\n"
            [
              config [ ("M", delta - x); ("X", x) ];
              config [ ("A", a); ("X", delta - a) ];
              config [ ("P", 1); ("O", delta - 1) ];
            ]
        in
        let edge = "M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]" in
        let p = Parse.problem ~name:"pi" ~node ~edge in
        let d = Diagram.edge_diagram p in
        let { Rounde.denotations; _ } = Rounde.r p in
        Array.for_all (fun s -> Diagram.is_right_closed d s) denotations);
  ]

let qsuite name tests =
  (name, List.map (Qseed.to_alcotest) tests)

let main_suites =
  [
      ( "labelset",
        [
          Alcotest.test_case "basics" `Quick test_labelset_basics;
          Alcotest.test_case "subsets" `Quick test_labelset_subsets;
          Alcotest.test_case "bounds" `Quick test_labelset_bounds;
        ] );
      qsuite "labelset-props" labelset_qcheck;
      qsuite "labelset-iteration-props" labelset_iteration_qcheck;
      ( "multiset",
        [
          Alcotest.test_case "basics" `Quick test_multiset_basics;
          Alcotest.test_case "sub-multisets" `Quick test_multiset_sub;
        ] );
      qsuite "multiset-props" multiset_qcheck;
      ( "line",
        [
          Alcotest.test_case "contains" `Quick test_line_basics;
          Alcotest.test_case "covers" `Quick test_line_covers;
          Alcotest.test_case "expand" `Quick test_line_expand;
        ] );
      ( "constr",
        [
          Alcotest.test_case "membership" `Quick test_constr;
          Alcotest.test_case "expand-dedup" `Quick test_constr_expand;
          Alcotest.test_case "typed budget" `Quick test_constr_budget_typed;
        ] );
      ( "parse",
        [
          Alcotest.test_case "forms" `Quick test_parse_forms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "problem" `Quick test_parse_problem;
          Alcotest.test_case "scan" `Quick test_scan_labels;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "mis-edge (Fig 1)" `Quick test_edge_diagram_mis;
          Alcotest.test_case "right-closed" `Quick test_right_closed_mis;
          Alcotest.test_case "minimal-elements" `Quick test_minimal_elements;
          Alcotest.test_case "exact-vs-condensed" `Quick
            test_node_diagram_exact_vs_condensed;
        ] );
      ( "rounde",
        [
          Alcotest.test_case "R(MIS)" `Quick test_r_mis;
          Alcotest.test_case "SO fixed point" `Quick
            test_sinkless_orientation_fixed_point;
          Alcotest.test_case "Observation 4" `Quick
            test_rbar_labels_right_closed;
          Alcotest.test_case "antichain" `Quick test_rbar_maximality;
          Alcotest.test_case "rc-budget guard" `Quick test_rbar_guard;
          Alcotest.test_case "empty node constraint" `Quick test_r_empty_node;
          Alcotest.test_case "coloring step" `Quick test_step_speedup_on_coloring;
        ] );
      ( "zeroround",
        [
          Alcotest.test_case "mis" `Quick test_zeroround_mis;
          Alcotest.test_case "trivial" `Quick test_zeroround_trivial;
          Alcotest.test_case "mirrored-vs-arbitrary" `Quick
            test_zeroround_mirrored_but_not_arbitrary;
          Alcotest.test_case "self-compatible" `Quick test_self_compatible;
        ] );
      ( "iso",
        [
          Alcotest.test_case "identity" `Quick test_iso_identity;
          Alcotest.test_case "renamed" `Quick test_iso_renamed;
          Alcotest.test_case "negative" `Quick test_iso_negative;
          Alcotest.test_case "14 labels, three relabellings" `Quick
            test_iso_fourteen_labels;
          Alcotest.test_case "apply" `Quick test_apply_renaming;
          Alcotest.test_case "dot export" `Quick test_diagram_dot;
        ] );
      qsuite "iso-props" iso_qcheck;
      qsuite "engine-props" engine_qcheck;
  ]

(* ------------------------------------------------------------------ *)
(* Simplify                                                            *)
(* ------------------------------------------------------------------ *)

let test_simplify_merge () =
  let p = Parse.problem ~name:"p" ~node:"A B C" ~edge:"A [BC]\nB C" in
  let merged = Simplify.merge p ~from_:"B" ~into_:"C" in
  check_int "one label fewer" 2 (Problem.label_count merged);
  check_bool "B gone" false (Alphabet.mem_name merged.Problem.alpha "B")

let test_merge_soundness () =
  (* In MIS, O is stronger than P on edges but node-wise P cannot be
     replaced by O (P O^2 is allowed, O^3 is not), so the merge is
     unsound; merging P into O would produce a problem where the MIS
     structure is lost. *)
  check_bool "P->O unsound" false
    (Simplify.merge_is_sound mis3 ~from_:"P" ~into_:"O");
  (* A problem with a genuinely redundant label. *)
  let q =
    Parse.problem ~name:"q" ~node:"A [AB] [AB]" ~edge:"[AB] [AB]"
  in
  check_bool "B->A sound" true (Simplify.merge_is_sound q ~from_:"B" ~into_:"A")

let test_merge_equivalent () =
  let q = Parse.problem ~name:"q" ~node:"[AB] [AB] [AB]" ~edge:"[AB] [AB]" in
  let simplified = Simplify.merge_equivalent q in
  check_int "collapsed to 1 label" 1 (Problem.label_count simplified);
  (* MIS has no equivalent labels: unchanged. *)
  check_bool "mis unchanged" true
    (Problem.label_count (Simplify.merge_equivalent mis3) = 3)

let test_drop_redundant () =
  let p =
    Parse.problem ~name:"p" ~node:"[AB] [AB] [AB]\nA B A" ~edge:"[AB] [AB]\nA B"
  in
  let pruned = Simplify.drop_redundant_lines p in
  check_int "node lines" 1 (List.length (Constr.lines pruned.Problem.node));
  check_int "edge lines" 1 (List.length (Constr.lines pruned.Problem.edge))

(* ------------------------------------------------------------------ *)
(* Serialize                                                           *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  (* Re-parsing may reorder the alphabet, so compare constraints after
     remapping labels by name. *)
  let equal_by_names (a : Problem.t) (b : Problem.t) =
    Alphabet.size a.Problem.alpha = Alphabet.size b.Problem.alpha
    &&
    match
      List.map
        (fun la -> Alphabet.find b.Problem.alpha (Alphabet.name a.Problem.alpha la))
        (Alphabet.labels a.Problem.alpha)
    with
    | mapping_list ->
        let mapping = Array.of_list mapping_list in
        let remap_set set =
          Labelset.fold
            (fun l acc -> Labelset.add mapping.(l) acc)
            set Labelset.empty
        in
        let remap = Constr.map_lines (Line.map_syms remap_set) in
        Constr.equal (remap a.Problem.node) b.Problem.node
        && Constr.equal (remap a.Problem.edge) b.Problem.edge
    | exception Not_found -> false
  in
  let check_roundtrip p =
    let p' = Serialize.of_string (Serialize.to_string p) in
    check_bool ("roundtrip " ^ p.Problem.name) true (equal_by_names p p')
  in
  check_roundtrip mis3;
  check_roundtrip (Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I");
  (* A problem with multi-character labels (from a speedup step). *)
  let { Rounde.problem = stepped; _ } = Rounde.step mis3 in
  check_roundtrip stepped

let test_serialize_errors () =
  match Serialize.of_string "garbage here" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected parse failure"

(* ------------------------------------------------------------------ *)
(* Fixedpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_fixedpoint_so () =
  let so = Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I" in
  match Fixedpoint.detect so with
  | Fixedpoint.Reaches_fixed_point (steps, p) ->
      check_bool "few steps" true (steps <= 3);
      check_bool "fixed problem not 0-round solvable" true
        (Zeroround.solvable_arbitrary_ports p = None);
      check_bool "lower bound statement" true
        (Fixedpoint.lower_bound_statement (Fixedpoint.detect so) <> None)
  | Fixedpoint.Fixed_point _ -> () (* also acceptable *)
  | Fixedpoint.No_fixed_point_found _ -> Alcotest.fail "SO must stabilize"

let test_fixedpoint_trivial () =
  let triv = Parse.problem ~name:"t" ~node:"A A A" ~edge:"A A" in
  match Fixedpoint.detect triv with
  | Fixedpoint.Fixed_point _ | Fixedpoint.Reaches_fixed_point _ ->
      (* Trivial problems are fixed points but 0-round solvable: no
         lower bound may be claimed. *)
      check_bool "no statement" true
        (Fixedpoint.lower_bound_statement (Fixedpoint.detect triv) = None)
  | Fixedpoint.No_fixed_point_found _ -> Alcotest.fail "trivial is a fixed point"

(* ------------------------------------------------------------------ *)
(* Definitional cross-checks of R and Rbar                             *)
(* ------------------------------------------------------------------ *)

(* Brute-force check of Section 2.3's definitions on a small problem:
   the engine's R must produce (a) an edge constraint whose pairs are
   exactly the maximal all-compatible set pairs, and (b) a node
   constraint containing a multiset of new labels iff some choice of
   members forms an allowed configuration of the original problem. *)
let cross_check_r p =
  let { Rounde.problem = p'; denotations } = Rounde.r p in
  let n_old = Problem.label_count p in
  (* compat matrix *)
  let compat = Array.make_matrix n_old n_old false in
  List.iter
    (fun line ->
      Line.expand line (fun m ->
          match Multiset.to_list m with
          | [ a; b ] ->
              compat.(a).(b) <- true;
              compat.(b).(a) <- true
          | _ -> assert false))
    (Constr.lines p.Problem.edge);
  let all_compat s1 s2 =
    Labelset.for_all (fun a -> Labelset.for_all (fun b -> compat.(a).(b)) s2) s1
  in
  (* (a) every engine edge pair is valid and maximal *)
  List.iter
    (fun line ->
      match Line.to_multiset line with
      | Some m ->
          (match Multiset.to_list m with
          | [ l1; l2 ] ->
              let s1 = denotations.(l1) and s2 = denotations.(l2) in
              check_bool "valid pair" true (all_compat s1 s2);
              (* maximal: no strict superset pair still valid *)
              List.iter
                (fun bigger ->
                  if Labelset.strict_subset s1 bigger then
                    check_bool "maximal left" false (all_compat bigger s2))
                (Labelset.nonempty_subsets (Labelset.full n_old))
          | _ -> Alcotest.fail "edge arity")
      | None -> Alcotest.fail "non-concrete R edge line")
    (Constr.lines p'.Problem.edge);
  (* (b) node constraint extensionally correct *)
  let n_new = Problem.label_count p' in
  let delta = Problem.delta p in
  let new_labels = List.init n_new Fun.id in
  Util.multisets new_labels delta (fun labels ->
      let candidate = Multiset.of_list labels in
      let in_engine = Constr.mem p'.Problem.node candidate in
      (* brute-force: exists a choice from the denotations in N_Pi *)
      let rec choices acc = function
        | [] -> Constr.mem p.Problem.node (Multiset.of_list acc)
        | l :: rest ->
            Labelset.exists
              (fun member -> choices (member :: acc) rest)
              denotations.(l)
      in
      check_bool "node extensional" in_engine (choices [] labels))

let test_r_definition_mis () = cross_check_r mis3

let test_r_definition_family () =
  cross_check_r
    (Parse.problem ~name:"pi" ~node:"M^3 X\nA^3 X\nP O^3"
       ~edge:"M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]")

(* Rbar extensional check: a multiset of right-closed sets is dominated
   by some output box iff all its choices are allowed. *)
let test_rbar_definition () =
  let { Rounde.problem = p'; _ } = Rounde.r mis3 in
  let { Rounde.problem = p''; denotations } = Rounde.rbar p' in
  let configs = Constr.expand p'.Problem.node in
  let mem_n m = List.exists (Multiset.equal m) configs in
  let boxes =
    List.map
      (fun line ->
        match Line.to_multiset line with
        | Some m -> List.map (fun l -> denotations.(l)) (Multiset.to_list m)
        | None -> Alcotest.fail "non-concrete")
      (Constr.lines p''.Problem.node)
  in
  let dominated sets =
    List.exists
      (fun box ->
        let a = Array.of_list sets and b = Array.of_list box in
        Util.transport_feasible
          ~supply:(Array.map (fun _ -> 1) a)
          ~demand:(Array.map (fun _ -> 1) b)
          ~allowed:(fun i j -> Labelset.subset a.(i) b.(j)))
      boxes
  in
  let n' = Problem.label_count p' in
  let delta = Constr.arity p'.Problem.node in
  let subsets = Labelset.nonempty_subsets (Labelset.full n') in
  Util.multisets subsets delta (fun sets ->
      let all_choices_ok =
        let rec go acc = function
          | [] -> mem_n (Multiset.of_list acc)
          | s :: rest ->
              Labelset.for_all (fun l -> go (l :: acc) rest) s
        in
        go [] sets
      in
      check_bool "box iff dominated" all_choices_ok (dominated sets))

(* Transportation feasibility cross-checked against brute-force
   perfect-matching search on small instances. *)
let transport_qcheck =
  let gen =
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 4) (int_range 1 3))
        (list_of_size (Gen.int_range 1 4) (int_range 1 3))
        (int_range 0 65535))
  in
  [
    QCheck.Test.make ~name:"transport-equals-bruteforce" ~count:200 gen
      (fun (supply, demand, mask) ->
        let supply = Array.of_list supply and demand = Array.of_list demand in
        let ns = Array.length supply and nd = Array.length demand in
        let allowed i j = (mask lsr ((i * nd) + j)) land 1 = 1 in
        let fast = Util.transport_feasible ~supply ~demand ~allowed in
        (* Brute force: expand to unit items and search for a perfect
           assignment by backtracking. *)
        let total_s = Array.fold_left ( + ) 0 supply in
        let total_d = Array.fold_left ( + ) 0 demand in
        let slow =
          total_s = total_d
          &&
          let items =
            List.concat
              (List.init ns (fun i -> List.init supply.(i) (fun _ -> i)))
          in
          let remaining = Array.copy demand in
          let rec place = function
            | [] -> true
            | i :: rest ->
                let ok = ref false in
                for j = 0 to nd - 1 do
                  if (not !ok) && remaining.(j) > 0 && allowed i j then begin
                    remaining.(j) <- remaining.(j) - 1;
                    if place rest then ok := true;
                    remaining.(j) <- remaining.(j) + 1
                  end
                done;
                !ok
          in
          place items
        in
        fast = slow);
  ]

(* Theorem 3 sanity (easy direction): if a problem is 0-round solvable
   in the PN model (arbitrary ports), its speedup step must remain
   0-round solvable — complexity max(T-1, 0) = 0.  Tested on random
   3-label, Delta=3 problems small enough for the full engine. *)
let theorem3_qcheck =
  let gen =
    (* Random node constraint: a non-empty subset of the 10 multisets
       of size 3 over 3 labels; random symmetric edge compatibility. *)
    QCheck.(pair (int_range 1 1023) (int_range 1 63))
  in
  [
    QCheck.Test.make ~name:"speedup-preserves-0-round-solvability" ~count:60
      gen
      (fun (node_mask, edge_mask) ->
        let alpha = Alphabet.create [ "A"; "B"; "C" ] in
        let multisets3 = ref [] in
        Util.multisets [ 0; 1; 2 ] 3 (fun ls -> multisets3 := ls :: !multisets3);
        let node_lines =
          List.filteri (fun i _ -> (node_mask lsr i) land 1 = 1) !multisets3
          |> List.map (fun ls -> Line.of_multiset (Multiset.of_list ls))
        in
        let pairs = [ (0, 0); (0, 1); (0, 2); (1, 1); (1, 2); (2, 2) ] in
        let edge_lines =
          List.filteri (fun i _ -> (edge_mask lsr i) land 1 = 1) pairs
          |> List.map (fun (a, b) -> Line.of_multiset (Multiset.of_list [ a; b ]))
        in
        if node_lines = [] || edge_lines = [] then true
        else begin
          let p =
            Problem.make ~name:"rnd" ~alpha
              ~node:(Constr.make node_lines)
              ~edge:(Constr.make edge_lines)
          in
          match Zeroround.solvable_arbitrary_ports p with
          | None -> true (* nothing to check in this direction *)
          | Some _ -> begin
              match Rounde.step p with
              | { Rounde.problem = stepped; _ } ->
                  Zeroround.solvable_arbitrary_ports stepped <> None
              | exception Budget.Budget_exceeded _ -> true (* budget; skip *)
            end
        end);
  ]

(* Random small problems shared by several property suites. *)
let random_problem (node_mask, edge_mask) =
  let multisets3 = ref [] in
  Util.multisets [ 0; 1; 2 ] 3 (fun ls -> multisets3 := ls :: !multisets3);
  let node_lines =
    List.filteri (fun i _ -> (node_mask lsr i) land 1 = 1) !multisets3
    |> List.map (fun ls -> Line.of_multiset (Multiset.of_list ls))
  in
  let pairs = [ (0, 0); (0, 1); (0, 2); (1, 1); (1, 2); (2, 2) ] in
  let edge_lines =
    List.filteri (fun i _ -> (edge_mask lsr i) land 1 = 1) pairs
    |> List.map (fun (a, b) -> Line.of_multiset (Multiset.of_list [ a; b ]))
  in
  if node_lines = [] || edge_lines = [] then None
  else
    Some
      (Problem.make ~name:"rnd"
         ~alpha:(Alphabet.create [ "A"; "B"; "C" ])
         ~node:(Constr.make node_lines)
         ~edge:(Constr.make edge_lines))

let invariant_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  [
    QCheck.Test.make ~name:"serialize-roundtrip-random" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            (* Serialization drops labels that appear in no
               configuration, so compare modulo trimming. *)
            let p' = Serialize.of_string (Serialize.to_string p) in
            Iso.equal_up_to_renaming (Problem.trim p) p');
    QCheck.Test.make ~name:"drop-redundant-preserves-semantics" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let pruned = Simplify.drop_redundant_lines p in
            let set c =
              List.sort_uniq Multiset.compare (Constr.expand c)
            in
            List.equal Multiset.equal (set p.Problem.node)
              (set pruned.Problem.node)
            && List.equal Multiset.equal (set p.Problem.edge)
                 (set pruned.Problem.edge));
    QCheck.Test.make ~name:"line-contains-equals-expansion" ~count:100
      QCheck.(pair (int_range 1 30) (int_range 0 100))
      (fun (set_bits, pick) ->
        (* A random condensed line of arity 3 over 3 labels. *)
        let s1 = Labelset.of_bits (1 + (set_bits land 3)) in
        let s2 = Labelset.of_bits (1 + (set_bits lsr 2 land 3)) in
        let l = Line.make [ (s1, 1); (s2, 2) ] in
        (* A random multiset of the same arity. *)
        let m =
          Multiset.of_list
            [ pick mod 3; pick / 3 mod 3; pick / 9 mod 3 ]
        in
        let brute = ref false in
        Line.expand l (fun m' -> if Multiset.equal m m' then brute := true);
        Line.contains l m = !brute);
    QCheck.Test.make ~name:"edge-diagram-strength-semantics" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            (* a >= b iff substituting a for one b preserves membership
               for every allowed edge configuration. *)
            let d = Diagram.edge_diagram p in
            let configs = Constr.expand p.Problem.edge in
            List.for_all
              (fun a ->
                List.for_all
                  (fun b ->
                    let brute =
                      List.for_all
                        (fun c ->
                          (not (Multiset.mem b c))
                          || Constr.mem p.Problem.edge
                               (Multiset.replace_one ~remove:b ~add:a c))
                        configs
                    in
                    Diagram.geq d a b = brute)
                  [ 0; 1; 2 ])
              [ 0; 1; 2 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Stricter parse/constructor grammar                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_rejects_zero_count () =
  let fails f = match f () with exception Failure _ -> true | _ -> false in
  check_bool "line ^0" true (fails (fun () -> Parse.line alpha5 "M P O^0"));
  check_bool "bracket ^0" true (fails (fun () -> Parse.line alpha5 "[MP]^0 O"));
  check_bool "problem ^0" true
    (fails (fun () ->
         Parse.problem ~name:"p" ~node:"M^1\nP O^0" ~edge:"M [PO]\nO O"));
  (* The error message must name the offending construct. *)
  (match Parse.line alpha5 "M O^0" with
  | exception Failure msg ->
      check_bool "message mentions ^0" true
        (let needle = "^0" in
         let len = String.length needle in
         let rec scan i =
           i + len <= String.length msg
           && (String.sub msg i len = needle || scan (i + 1))
         in
         scan 0)
  | _ -> Alcotest.fail "expected parse failure");
  (* ^1 and omitted groups are still fine. *)
  check_bool "^1 accepted" true
    (Line.equal (Parse.line alpha5 "M^1 P") (Parse.line alpha5 "M P"))

let test_parse_rejects_nested_bracket_syntax () =
  let fails f = match f () with exception Failure _ -> true | _ -> false in
  check_bool "caret inside brackets" true
    (fails (fun () -> Parse.line alpha5 "[A^2] O O"));
  check_bool "open bracket inside brackets" true
    (fails (fun () -> Parse.line alpha5 "[[MP]O] X"));
  check_bool "caret inside brackets (problem)" true
    (fails (fun () ->
         Parse.problem ~name:"p" ~node:"[M^2] O" ~edge:"M O\nO O"));
  (* Space-separated multi-character names inside brackets still work. *)
  let alpha = Alphabet.create [ "lo"; "hi" ] in
  check_int "multi-char disjunction" 2
    (Labelset.cardinal (Line.support (Parse.line alpha "[lo hi] lo")))

let test_line_make_zero_count () =
  let invalid f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "zero count raises" true
    (invalid (fun () -> Line.make [ (Labelset.singleton 0, 0) ]));
  check_bool "mixed zero count raises" true
    (invalid (fun () ->
         Line.make [ (Labelset.singleton 0, 2); (Labelset.singleton 1, 0) ]));
  check_bool "negative count raises" true
    (invalid (fun () -> Line.make [ (Labelset.singleton 0, -1) ]));
  (* Merging equal sets is still allowed and sums the counts. *)
  let l = Line.make [ (Labelset.singleton 0, 1); (Labelset.singleton 0, 2) ] in
  check_int "merged arity" 3 (Line.arity l)

(* ------------------------------------------------------------------ *)
(* Fixedpoint step counter                                             *)
(* ------------------------------------------------------------------ *)

let test_fixedpoint_counter_matches_steps () =
  let so = Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I" in
  Fixedpoint.reset_stats ();
  (* The verdict's step index must equal the number of R̄∘R
     applications the driver actually performed. *)
  match Fixedpoint.detect so with
  | Fixedpoint.Reaches_fixed_point (i, _) ->
      check_int "verdict index = applications" i
        Fixedpoint.stats.Fixedpoint.steps_applied
  | Fixedpoint.Fixed_point _ ->
      check_int "fixed point after one application" 1
        Fixedpoint.stats.Fixedpoint.steps_applied
  | Fixedpoint.No_fixed_point_found _ -> Alcotest.fail "SO must stabilize"

(* ------------------------------------------------------------------ *)
(* R: closed-set enumeration vs the seed's subset enumeration          *)
(* ------------------------------------------------------------------ *)

(* Reference implementation of the maximal-pair computation exactly as
   the engine originally did it: enumerate all 2^n - 1 non-empty label
   subsets S, collect the canonicalized closed pair (N(N(S)), N(S)).
   The production path enumerates only Galois-closed sets; both must
   produce identical pairs (and hence identical R output). *)
let reference_maximal_pairs (p : Problem.t) =
  let n = Problem.label_count p in
  let compat = Array.make_matrix n n false in
  List.iter
    (fun line ->
      Line.expand line (fun m ->
          match Multiset.to_list m with
          | [ a; b ] ->
              compat.(a).(b) <- true;
              compat.(b).(a) <- true
          | _ -> assert false))
    (Constr.lines p.Problem.edge);
  let neighbors s =
    let acc = ref Labelset.empty in
    for b = 0 to n - 1 do
      if Labelset.for_all (fun a -> compat.(a).(b)) s then
        acc := Labelset.add b !acc
    done;
    !acc
  in
  let pairs = ref [] in
  List.iter
    (fun s ->
      let t = neighbors s in
      if not (Labelset.is_empty t) then begin
        let s' = neighbors t in
        let pair = if Labelset.compare s' t <= 0 then (s', t) else (t, s') in
        if not (List.exists (fun (a, b) ->
                    Labelset.equal a (fst pair) && Labelset.equal b (snd pair))
                  !pairs)
        then pairs := pair :: !pairs
      end)
    (Labelset.nonempty_subsets (Labelset.full n));
  List.sort
    (fun (a1, a2) (b1, b2) ->
      match Labelset.compare a1 b1 with 0 -> Labelset.compare a2 b2 | c -> c)
    !pairs

let engine_maximal_pairs (p : Problem.t) =
  let { Rounde.problem = p'; denotations } = Rounde.r p in
  List.map
    (fun line ->
      match Line.to_multiset line with
      | Some m -> (
          match Multiset.to_list m with
          | [ l1; l2 ] ->
              let s1 = denotations.(l1) and s2 = denotations.(l2) in
              if Labelset.compare s1 s2 <= 0 then (s1, s2) else (s2, s1)
          | _ -> Alcotest.fail "R edge line of arity <> 2")
      | None -> Alcotest.fail "non-concrete R edge line")
    (Constr.lines p'.Problem.edge)
  |> List.sort (fun (a1, a2) (b1, b2) ->
         match Labelset.compare a1 b1 with
         | 0 -> Labelset.compare a2 b2
         | c -> c)

let check_r_matches_reference p =
  let expected = reference_maximal_pairs p in
  let got = engine_maximal_pairs p in
  check_int
    (Printf.sprintf "pair count on %s" p.Problem.name)
    (List.length expected) (List.length got);
  List.iter2
    (fun (e1, e2) (g1, g2) ->
      check_bool
        (Printf.sprintf "pair on %s" p.Problem.name)
        true
        (Labelset.equal e1 g1 && Labelset.equal e2 g2))
    expected got

let test_r_reference_mis () = check_r_matches_reference mis3

let test_r_reference_family () =
  List.iter
    (fun (delta, a, x) ->
      let group (name, c) =
        if c = 0 then "" else Printf.sprintf " %s^%d" name c
      in
      let config groups = String.concat "" (List.map group groups) in
      let node =
        String.concat "\n"
          [
            config [ ("M", delta - x); ("X", x) ];
            config [ ("A", a); ("X", delta - a) ];
            config [ ("P", 1); ("O", delta - 1) ];
          ]
      in
      let edge = "M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]" in
      check_r_matches_reference (Parse.problem ~name:"pi" ~node ~edge))
    [ (3, 2, 0); (4, 3, 1); (5, 4, 2); (6, 2, 0) ]

let r_reference_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  [
    QCheck.Test.make ~name:"closed-set-pairs-equal-subset-pairs" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p -> (
            (* Degenerate problems can make R's node constraint empty;
               the constructor then raises, exactly as it did under
               subset enumeration — nothing to compare there. *)
            match engine_maximal_pairs p with
            | exception (Invalid_argument _ | Failure _) -> true
            | got ->
                let expected = reference_maximal_pairs p in
                List.length expected = List.length got
                && List.for_all2
                     (fun (e1, e2) (g1, g2) ->
                       Labelset.equal e1 g1 && Labelset.equal e2 g2)
                     expected got));
  ]

(* ------------------------------------------------------------------ *)
(* Order-ideal right-closed-set enumeration vs the subset filter       *)
(* ------------------------------------------------------------------ *)

(* Reference implementation exactly as the seed computed it: filter the
   2^n - 1 non-empty label subsets.  The production path enumerates the
   order ideals of the diagram's class condensation and must return the
   same list (both are sorted in increasing bitset order). *)
let reference_right_closed d n =
  List.filter (Diagram.is_right_closed d)
    (Labelset.nonempty_subsets (Labelset.full n))

let check_rc_matches_reference ~what d n =
  let expected = reference_right_closed d n in
  let got = Diagram.right_closed_sets d in
  check_int (what ^ ": count") (List.length expected) (List.length got);
  check_bool (what ^ ": sets") true (List.equal Labelset.equal expected got)

let family_problem (delta, a, x) =
  let group (name, c) = if c = 0 then "" else Printf.sprintf " %s^%d" name c in
  let config groups = String.concat "" (List.map group groups) in
  let node =
    String.concat "\n"
      [
        config [ ("M", delta - x); ("X", x) ];
        config [ ("A", a); ("X", delta - a) ];
        config [ ("P", 1); ("O", delta - 1) ];
      ]
  in
  Parse.problem ~name:"pi" ~node
    ~edge:"M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]"

let test_rc_reference_mis () =
  check_rc_matches_reference ~what:"edge diagram"
    (Diagram.edge_diagram mis3)
    (Problem.label_count mis3);
  let { Rounde.problem = p'; _ } = Rounde.r mis3 in
  check_rc_matches_reference ~what:"node diagram of R(MIS)"
    (Diagram.node_diagram p')
    (Problem.label_count p')

let test_rc_reference_family () =
  List.iter
    (fun params ->
      let p = family_problem params in
      check_rc_matches_reference ~what:"family edge" (Diagram.edge_diagram p)
        (Problem.label_count p);
      check_rc_matches_reference ~what:"family node" (Diagram.node_diagram p)
        (Problem.label_count p))
    [ (3, 2, 0); (4, 3, 1); (5, 4, 2); (6, 2, 0) ]

(* Δ = 2 problem whose node diagram is the chain l0 < l1 < … < l(n-1):
   the pair (i, j) is allowed iff i + j >= n - 1, so substituting a
   larger label preserves membership and the minimal partner n - 1 - j
   certifies strictness.  The chain has exactly n right-closed sets
   (the suffixes), so the order-ideal enumeration stays linear where
   the subset filter — and the seed's hard 20/22-label caps — blew
   up. *)
let chain_problem n =
  let name i = Printf.sprintf "l%d" i in
  let names = List.init n name in
  let all = String.concat " " names in
  let node =
    String.concat "\n"
      (List.init n (fun i ->
           (* A one-name bracket like "[l5]" would be scanned as the
              character labels "l" and "5" (round-eliminator
              convention: brackets without spaces are char lists), so
              emit singleton groups bare. *)
           match List.filteri (fun j _ -> i + j >= n - 1) names with
           | [ only ] -> Printf.sprintf "%s %s" (name i) only
           | partners ->
               Printf.sprintf "%s [%s]" (name i) (String.concat " " partners)))
  in
  Parse.problem
    ~name:(Printf.sprintf "chain%d" n)
    ~node
    ~edge:(Printf.sprintf "[%s] [%s]" all all)

let test_rc_reference_chain () =
  let n = 12 in
  let p = chain_problem n in
  let d = Diagram.node_diagram p in
  check_rc_matches_reference ~what:"chain node diagram" d n;
  (* ... and those sets are exactly the n suffixes. *)
  let l i = Alphabet.find p.Problem.alpha (Printf.sprintf "l%d" i) in
  let suffix m = Labelset.of_list (List.init (n - m) (fun k -> l (m + k))) in
  let expected = List.sort Labelset.compare (List.init n suffix) in
  let got = List.sort Labelset.compare (Diagram.right_closed_sets d) in
  check_bool "suffixes" true (List.equal Labelset.equal expected got)

let test_rc_limit_guard () =
  let d = Diagram.edge_diagram mis3 in
  (* MIS has exactly 5 right-closed sets. *)
  (match Diagram.right_closed_sets ~limit:4 d with
  | exception Budget.Budget_exceeded { limit; _ } ->
      check_int "overrun reports the limit" 4 (int_of_float limit)
  | _ -> Alcotest.fail "expected rc-budget overrun");
  check_int "exactly at the budget" 5
    (List.length (Diagram.right_closed_sets ~limit:5 d));
  (match Diagram.iter_right_closed ~limit:2 d (fun _ -> ()) with
  | exception Budget.Budget_exceeded _ -> ()
  | () -> Alcotest.fail "expected iterator budget overrun");
  (* The iterator supports early exit by raising from the callback. *)
  let seen = ref 0 in
  (match
     Diagram.iter_right_closed d (fun _ ->
         incr seen;
         if !seen = 3 then raise Exit)
   with
  | exception Exit -> ()
  | () -> Alcotest.fail "expected early exit");
  check_int "stopped early" 3 !seen

let rc_reference_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  [
    QCheck.Test.make ~name:"order-ideals-equal-subset-filter" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let n = Problem.label_count p in
            let check_d d =
              List.equal Labelset.equal
                (reference_right_closed d n)
                (Diagram.right_closed_sets d)
            in
            check_d (Diagram.edge_diagram p)
            && check_d (Diagram.node_diagram p));
  ]

(* ------------------------------------------------------------------ *)
(* Bron–Kerbosch maximal cliques vs the subset filter                  *)
(* ------------------------------------------------------------------ *)

let compat_of (p : Problem.t) =
  let n = Problem.label_count p in
  let compat = Array.make_matrix n n false in
  List.iter
    (fun line ->
      Line.expand line (fun m ->
          match Multiset.to_list m with
          | [ a; b ] ->
              compat.(a).(b) <- true;
              compat.(b).(a) <- true
          | _ -> assert false))
    (Constr.lines p.Problem.edge);
  (compat, n)

(* Reference: filter the 2^n subsets for self-compatible cliques and
   keep the ⊆-maximal ones — the seed's semantics without its silent
   exponential sweep. *)
let reference_maximal_cliques compat n =
  let self = ref Labelset.empty in
  for v = 0 to n - 1 do
    if compat.(v).(v) then self := Labelset.add v !self
  done;
  let clique s =
    Labelset.subset s !self
    && Labelset.for_all
         (fun a -> Labelset.for_all (fun b -> compat.(a).(b)) s)
         s
  in
  let cliques =
    List.filter clique (Labelset.nonempty_subsets (Labelset.full n))
  in
  List.filter
    (fun c -> not (List.exists (fun c' -> Labelset.strict_subset c c') cliques))
    cliques
  |> List.sort Labelset.compare

let engine_maximal_cliques compat n =
  let acc = ref [] in
  ignore
    (Zeroround.find_maximal_clique ~pool:Parallel.Pool.sequential compat n (fun c ->
         acc := c :: !acc;
         None));
  List.sort Labelset.compare !acc

let check_cliques_match (p : Problem.t) =
  let compat, n = compat_of p in
  let expected = reference_maximal_cliques compat n in
  let got = engine_maximal_cliques compat n in
  check_int (p.Problem.name ^ ": clique count") (List.length expected)
    (List.length got);
  check_bool (p.Problem.name ^ ": cliques") true
    (List.equal Labelset.equal expected got)

let test_cliques_mis () = check_cliques_match mis3

let test_cliques_family () =
  List.iter
    (fun params -> check_cliques_match (family_problem params))
    [ (3, 2, 0); (4, 3, 1); (5, 4, 2) ]

let test_cliques_edge_cases () =
  (* No self-compatible label at all: no cliques on either side. *)
  check_cliques_match (Parse.problem ~name:"halves" ~node:"L R" ~edge:"L R");
  (* Complete graph: a single maximal clique. *)
  let k4 = Parse.problem ~name:"k4" ~node:"A B C D" ~edge:"[ABCD] [ABCD]" in
  check_cliques_match k4;
  let compat, n = compat_of k4 in
  check_int "one clique" 1 (List.length (engine_maximal_cliques compat n))

let test_clique_guard () =
  let compat, n = compat_of mis3 in
  match
    Zeroround.find_maximal_clique ~max_expansions:0 ~pool:Parallel.Pool.sequential
      compat n (fun _ -> None)
  with
  | exception Budget.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected expansion-budget overrun"

let test_zeroround_stats () =
  Zeroround.reset_stats ();
  check_bool "mis not solvable" true
    (Zeroround.solvable_arbitrary_ports mis3 = None);
  check_int "one call" 1 Zeroround.stats.Zeroround.clique_calls;
  check_bool "cliques counted" true
    (Zeroround.stats.Zeroround.maximal_cliques >= 1);
  check_bool "expansions counted" true
    (Zeroround.stats.Zeroround.bk_expansions >= 1);
  check_bool "time accumulated" true
    (Zeroround.stats.Zeroround.clique_time_s >= 0.)

let clique_reference_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  [
    QCheck.Test.make ~name:"bron-kerbosch-equals-subset-filter" ~count:200 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let compat, n = compat_of p in
            List.equal Labelset.equal
              (reference_maximal_cliques compat n)
              (engine_maximal_cliques compat n));
    QCheck.Test.make ~name:"arbitrary-ports-equals-bruteforce" ~count:200 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p -> (
            let compat, _ = compat_of p in
            let pool_ok m =
              let ls = Multiset.to_list m in
              List.for_all
                (fun a -> List.for_all (fun b -> compat.(a).(b)) ls)
                ls
            in
            let brute =
              List.exists pool_ok (Constr.expand p.Problem.node)
            in
            match Zeroround.solvable_arbitrary_ports p with
            | None -> not brute
            | Some w -> brute && Constr.mem p.Problem.node w && pool_ok w));
  ]

(* ------------------------------------------------------------------ *)
(* Rbar old-vs-new equivalence                                         *)
(* ------------------------------------------------------------------ *)

(* Box dominance by definition: a perfect matching of [b]'s sets into
   supersets in [a], decided by the max-flow of [Util.transport_feasible]. *)
let dominates a b =
  let a = Array.of_list a and b = Array.of_list b in
  Util.transport_feasible
    ~supply:(Array.map (fun _ -> 1) b)
    ~demand:(Array.map (fun _ -> 1) a)
    ~allowed:(fun i j -> Labelset.subset b.(i) a.(j))

(* Independent reimplementation of R̄ following the seed: right-closed
   sets by subset filter, candidate boxes by a brute multiset sweep,
   maximality by pairwise transport domination, edge pairs by choice
   search.  Returns (boxes, edge pairs) in a normalized order. *)
let reference_rbar (p' : Problem.t) =
  let n = Problem.label_count p' in
  let delta = Constr.arity p'.Problem.node in
  let d = Diagram.node_diagram p' in
  let rc = reference_right_closed d n in
  let valid = ref [] in
  Util.multisets rc delta (fun sets ->
      let ok =
        let rec go acc = function
          | [] -> Constr.mem p'.Problem.node (Multiset.of_list acc)
          | s :: rest -> Labelset.for_all (fun l -> go (l :: acc) rest) s
        in
        go [] sets
      in
      if ok then valid := sets :: !valid);
  let maximal =
    List.filter
      (fun b -> not (List.exists (fun a -> a != b && dominates a b) !valid))
      !valid
  in
  let norm_box b = List.sort Labelset.compare b in
  let boxes =
    List.sort (List.compare Labelset.compare) (List.map norm_box maximal)
  in
  let compat, _ = compat_of p' in
  let used = List.sort_uniq Labelset.compare (List.concat boxes) in
  let pair_ok s t =
    Labelset.exists (fun a -> Labelset.exists (fun b -> compat.(a).(b)) t) s
  in
  let pairs = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun t ->
          if Labelset.compare s t <= 0 && pair_ok s t then
            pairs := (s, t) :: !pairs)
        used)
    used;
  let cmp (a1, a2) (b1, b2) =
    match Labelset.compare a1 b1 with 0 -> Labelset.compare a2 b2 | c -> c
  in
  (boxes, List.sort cmp !pairs)

let engine_rbar (p' : Problem.t) =
  let { Rounde.problem = p''; denotations } = Rounde.rbar p' in
  let boxes =
    List.map
      (fun line ->
        match Line.to_multiset line with
        | Some m ->
            List.sort Labelset.compare
              (List.map (fun l -> denotations.(l)) (Multiset.to_list m))
        | None -> failwith "non-concrete rbar node line")
      (Constr.lines p''.Problem.node)
    |> List.sort (List.compare Labelset.compare)
  in
  let cmp (a1, a2) (b1, b2) =
    match Labelset.compare a1 b1 with 0 -> Labelset.compare a2 b2 | c -> c
  in
  let pairs =
    List.map
      (fun m ->
        match Multiset.to_list m with
        | [ a; b ] ->
            let s = denotations.(a) and t = denotations.(b) in
            if Labelset.compare s t <= 0 then (s, t) else (t, s)
        | _ -> failwith "rbar edge line of arity <> 2")
      (Constr.expand p''.Problem.edge)
    |> List.sort_uniq cmp
  in
  (boxes, pairs)

let check_rbar_matches_reference (p : Problem.t) =
  let { Rounde.problem = p'; _ } = Rounde.r p in
  let exp_boxes, exp_pairs = reference_rbar p' in
  let got_boxes, got_pairs = engine_rbar p' in
  check_int
    (p.Problem.name ^ ": box count")
    (List.length exp_boxes) (List.length got_boxes);
  check_bool (p.Problem.name ^ ": boxes") true
    (List.equal (List.equal Labelset.equal) exp_boxes got_boxes);
  check_int
    (p.Problem.name ^ ": edge pair count")
    (List.length exp_pairs) (List.length got_pairs);
  check_bool (p.Problem.name ^ ": edge pairs") true
    (List.equal
       (fun (a1, a2) (b1, b2) ->
         Labelset.equal a1 b1 && Labelset.equal a2 b2)
       exp_pairs got_pairs)

let test_rbar_reference_mis () = check_rbar_matches_reference mis3

let test_rbar_reference_so () =
  check_rbar_matches_reference
    (Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I")

let test_rbar_reference_coloring () =
  check_rbar_matches_reference
    (Parse.problem ~name:"3col" ~node:"A A\nB B\nC C" ~edge:"A [BC]\nB C")

let rbar_reference_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  [
    QCheck.Test.make ~name:"rbar-equals-seed-reference" ~count:30 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p -> (
            match Rounde.r p with
            | exception (Budget.Budget_exceeded _ | Failure _) -> true
            | { Rounde.problem = p'; _ } ->
                (* The brute-force reference is exponential in the label
                   count of R(Π); stay where it is cheap. *)
                if Problem.label_count p' > 5 then true
                else
                  let exp_boxes, exp_pairs = reference_rbar p' in
                  (match engine_rbar p' with
                  | exception Budget.Budget_exceeded _ -> true
                  | exception Failure _ ->
                      (* The engine refuses degenerate outputs (empty
                         node or edge constraint); the reference must
                         agree the output really is degenerate. *)
                      exp_boxes = [] || exp_pairs = []
                  | got_boxes, got_pairs ->
                      List.equal (List.equal Labelset.equal) exp_boxes
                        got_boxes
                      && List.equal
                           (fun (a1, a2) (b1, b2) ->
                             Labelset.equal a1 b1 && Labelset.equal a2 b2)
                           exp_pairs got_pairs)));
  ]

let test_rbar_beyond_old_cap () =
  (* 24 labels: the seed's rbar refused anything over 20 labels and its
     right_closed_sets anything over 22.  The chain's node diagram has
     only 24 right-closed sets (the suffixes), so the lattice-native
     pipeline handles it instantly; the maximal boxes are exactly the
     12 antidiagonal suffix pairs {S_a, S_(23-a)}. *)
  let n = 24 in
  let p = chain_problem n in
  let l i = Alphabet.find p.Problem.alpha (Printf.sprintf "l%d" i) in
  let suffix m = Labelset.of_list (List.init (n - m) (fun k -> l (m + k))) in
  Rounde.reset_stats ();
  (* [~zdd:false] pins the explicit path: the dominance-counter assert
     below is about the explicit scan, which the symbolic rung replaces
     wholesale (its counters stay 0 by design — test/zdd covers that
     rung's own counters). *)
  let { Rounde.problem = p''; denotations } = Rounde.rbar ~zdd:false p in
  check_int "rc sets counted" n Rounde.stats.Rounde.rc_sets;
  check_int "all suffixes used" n (Problem.label_count p'');
  let pos_of s =
    let rec go m =
      if m = n then Alcotest.fail "denotation is not a suffix"
      else if Labelset.equal s (suffix m) then m
      else go (m + 1)
    in
    go 0
  in
  let boxes = Constr.lines p''.Problem.node in
  check_int "antidiagonal boxes" (n / 2) (List.length boxes);
  List.iter
    (fun line ->
      match Line.to_multiset line with
      | Some m -> (
          match Multiset.to_list m with
          | [ a; b ] ->
              check_int "minima sum to n-1" (n - 1)
                (pos_of denotations.(a) + pos_of denotations.(b))
          | _ -> Alcotest.fail "box arity")
      | None -> Alcotest.fail "non-concrete box")
    boxes;
  check_bool "dominance pruning exercised" true
    (Rounde.stats.Rounde.box_dom_checks > 0
    && Rounde.stats.Rounde.box_dom_cheap_skips > 0)

(* ------------------------------------------------------------------ *)
(* Simplify.drop_redundant_lines: canonical representatives            *)
(* ------------------------------------------------------------------ *)

let test_drop_redundant_cover_chain () =
  (* A strict cover chain A^3 ⋖ [AB]^3 ⋖ [ABC]^3 plus a mixed line
     covered by the top: exactly the maximal line survives.  Cover
     cycles between distinct lines cannot occur — Line.covers is
     antisymmetric on canonical lines (qcheck property below) — so
     every cover-equivalence class is a singleton and "one canonical
     representative per class" means precisely this. *)
  let p =
    Parse.problem ~name:"chain"
      ~node:"A A A\n[AB] [AB] [AB]\n[ABC] [ABC] [ABC]\nA [AB] [ABC]"
      ~edge:"[ABC] [ABC]"
  in
  let pruned = Simplify.drop_redundant_lines p in
  (match Constr.lines pruned.Problem.node with
  | [ line ] ->
      check_bool "top of the chain survives" true
        (Line.equal line (Parse.line p.Problem.alpha "[ABC] [ABC] [ABC]"))
  | lines -> Alcotest.failf "expected 1 node line, got %d" (List.length lines));
  check_int "edge untouched" 1 (List.length (Constr.lines pruned.Problem.edge))

(* Reference prune: a kept-list pass plus a strict-cover check, with a
   [Line.covers] max-flow on every ordered pair of lines and no support
   screen.  [Simplify.drop_redundant_lines] must keep exactly its
   lines. *)
let reference_prune constr =
  let lines = Constr.lines constr in
  let strictly_covered line =
    List.exists
      (fun other -> Line.covers other line && not (Line.covers line other))
      lines
  in
  let rec go kept = function
    | [] -> List.rev kept
    | line :: rest ->
        if
          List.exists (fun k -> Line.covers k line) kept
          || strictly_covered line
        then go kept rest
        else go (line :: kept) rest
  in
  Constr.make (go [] lines)

let prune_matches_reference (p : Problem.t) =
  let pruned = Simplify.drop_redundant_lines p in
  Constr.equal pruned.Problem.node (reference_prune p.Problem.node)
  && Constr.equal pruned.Problem.edge (reference_prune p.Problem.edge)

let simplify_prune_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  let line_gen =
    QCheck.(
      map
        (fun (b1, b2, c) ->
          Line.make [ (Labelset.of_bits b1, 1); (Labelset.of_bits b2, c) ])
        (triple (int_range 1 7) (int_range 1 7) (int_range 1 3)))
  in
  (* 1–12 condensed arity-3 lines over 3 labels: unlike
     [random_problem]'s concrete lines, many of their pairs are
     cover-related, so the prune drops lines. *)
  let condensed_gen =
    let group = QCheck.Gen.(map Labelset.of_bits (int_range 1 7)) in
    let line =
      QCheck.Gen.(
        map
          (fun (a, b, c) -> Line.make [ (a, 1); (b, 1); (c, 1) ])
          (triple group group group))
    in
    QCheck.make
      QCheck.Gen.(
        map
          (fun (node, edge) ->
            Problem.make ~name:"condensed"
              ~alpha:(Alphabet.create [ "A"; "B"; "C" ])
              ~node:(Constr.make node)
              ~edge:(Constr.make [ Line.make [ (edge, 2) ] ]))
          (pair (list_size (int_range 1 12) line) group))
  in
  [
    QCheck.Test.make ~name:"pruned-lines-form-a-cover-antichain" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let antichain c =
              let lines = Constr.lines c in
              List.for_all
                (fun a ->
                  List.for_all
                    (fun b -> Line.equal a b || not (Line.covers a b))
                    lines)
                lines
            in
            let pruned = Simplify.drop_redundant_lines p in
            antichain pruned.Problem.node && antichain pruned.Problem.edge);
    QCheck.Test.make ~name:"dropped-lines-covered-by-kept-ones" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let pruned = Simplify.drop_redundant_lines p in
            let covered c c' =
              let kept = Constr.lines c' in
              List.for_all
                (fun line -> List.exists (fun k -> Line.covers k line) kept)
                (Constr.lines c)
            in
            covered p.Problem.node pruned.Problem.node
            && covered p.Problem.edge pruned.Problem.edge);
    QCheck.Test.make ~name:"line-covers-antisymmetric-on-canonical-lines"
      ~count:500 (QCheck.pair line_gen line_gen)
      (fun (a, b) ->
        (not (Line.covers a b && Line.covers b a)) || Line.equal a b);
    QCheck.Test.make ~name:"screened-prune-equals-reference" ~count:100 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p -> prune_matches_reference p);
    QCheck.Test.make ~name:"screened-prune-equals-reference-condensed"
      ~count:300 condensed_gen prune_matches_reference;
    QCheck.Test.make ~name:"line-covers-needs-support-inclusion" ~count:500
      (QCheck.pair line_gen line_gen)
      (fun (a, b) ->
        (not (Line.covers a b)) || Labelset.subset (Line.support b) (Line.support a));
  ]

(* ------------------------------------------------------------------ *)
(* Fixedpoint answers depend only on the input                         *)
(* ------------------------------------------------------------------ *)

(* Two non-isomorphic 5-label problems engineered to share an
   [Iso.invariant_hash]: [Hashtbl.hash]'s bounded traversal stops
   before it reaches the part of the sorted signature list where the
   edge constraints differ (one self-loop line vs. a wildcard line).
   Both survive [Simplify.normalize] still colliding.  The autopilot's
   cycle check prefilters the normalized states on its path by this
   hash, so both can pass that prefilter.  Five labels keeps the
   bijection search in [Iso.equal_up_to_renaming] trivial (≤ 120
   candidates), so proving the pair non-isomorphic stays fast. *)
let collision_pair () =
  let mk name self_loop =
    let k = 5 in
    let names = List.init k (fun i -> Printf.sprintf "l%d" i) in
    let node =
      String.concat "\n"
        (List.mapi
           (fun i n ->
             Printf.sprintf "%s %s" n (List.nth names ((i + 1) mod k)))
           names)
    in
    let edge =
      String.concat "\n"
        (List.mapi
           (fun i n ->
             if self_loop && i = 0 then Printf.sprintf "%s %s" n n
             else Printf.sprintf "%s [%s]" n (String.concat " " names))
           names)
    in
    Parse.problem ~name ~node ~edge
  in
  (mk "collA" false, mk "collB" true)

let test_collision_pair_is_engineered () =
  let a, b = collision_pair () in
  check_int "same invariant hash" (Iso.invariant_hash a) (Iso.invariant_hash b);
  check_bool "but not isomorphic" false (Iso.equal_up_to_renaming a b);
  (* The cycle prefilter hashes *normalized* states — the collision
     must survive normalization for the pair to mean anything. *)
  let na = Simplify.normalize a and nb = Simplify.normalize b in
  check_int "normalized: same hash" (Iso.invariant_hash na)
    (Iso.invariant_hash nb);
  check_bool "normalized: not isomorphic" false (Iso.equal_up_to_renaming na nb)

let fixedpoint_verdict_text = function
  | Fixedpoint.Fixed_point (q, _) -> "fixed-point\n" ^ Serialize.to_string q
  | Fixedpoint.Reaches_fixed_point (i, q) ->
      Printf.sprintf "reaches-fixed-point(%d)\n%s" i (Serialize.to_string q)
  | Fixedpoint.No_fixed_point_found q -> "none\n" ^ Serialize.to_string q

(* [detect ~max_steps:1]'s verdict computed directly from its
   definition: one normalized speedup step on the normalized input. *)
let one_step_verdict_text p =
  let p0 = Simplify.normalize p in
  let { Rounde.problem = next; _ } = Rounde.step p0 in
  let next = Simplify.normalize next in
  fixedpoint_verdict_text
    (match Iso.find_renaming next p0 with
    | Some assoc -> Fixedpoint.Fixed_point (p0, assoc)
    | None -> Fixedpoint.No_fixed_point_found next)

(* Each problem of [pair] must get the direct computation's verdict
   from [detect ~max_steps:1], both before and after [detect] has run
   on the other. *)
let check_detect_input_only pair =
  let expect = List.map (fun (p, _) -> one_step_verdict_text p) pair in
  for round = 1 to 2 do
    List.iter2
      (fun (p, name) e ->
        check Alcotest.string
          (Printf.sprintf "%s, round %d" name round)
          e
          (fixedpoint_verdict_text (Fixedpoint.detect ~max_steps:1 p)))
      pair expect
  done

(* The next two cases keep the names they had while [detect] memoised
   its steps up to isomorphism; they now check the reverse contract,
   that no call's result reaches another.  Regression: that memo
   answered a renamed copy of MIS, asked after MIS, with MIS's own
   step, written in M/P/O. *)
let test_fixedpoint_renamed_input_only () =
  let xyz = Iso.apply_renaming mis3 [ ("M", "X"); ("P", "Y"); ("O", "Z") ] in
  check_detect_input_only [ (mis3, "MIS"); (xyz, "X/Y/Z") ];
  let rec first_node_line = function
    | "node:" :: line :: _ -> line
    | _ :: rest -> first_node_line rest
    | [] -> ""
  in
  check Alcotest.string "X/Y/Z step written in X/Y/Z" "X,XZ^3"
    (first_node_line
       (String.split_on_char '\n' (one_step_verdict_text xyz)))

(* A non-isomorphic pair with the same [Iso.invariant_hash]. *)
let test_fixedpoint_collision_input_only () =
  let coll_a, coll_b = collision_pair () in
  check_detect_input_only [ (coll_a, "collA"); (coll_b, "collB") ]

(* ------------------------------------------------------------------ *)
(* Parctl: RELIM_DOMAINS parsing and the once-per-process warning      *)
(* ------------------------------------------------------------------ *)

let test_parctl_parse_env () =
  let check_parsed msg exp got =
    check_bool msg true (exp = got)
  in
  check_parsed "absent" Parctl.Unset (Parctl.parse_env None);
  check_parsed "plain count" (Parctl.Domains 4) (Parctl.parse_env (Some "4"));
  check_parsed "whitespace tolerated" (Parctl.Domains 8)
    (Parctl.parse_env (Some "  8 "));
  check_parsed "zero is malformed" (Parctl.Malformed "0")
    (Parctl.parse_env (Some "0"));
  check_parsed "negative is malformed" (Parctl.Malformed "-3")
    (Parctl.parse_env (Some "-3"));
  check_parsed "non-integer is malformed" (Parctl.Malformed "many")
    (Parctl.parse_env (Some "many"));
  check_parsed "empty is malformed" (Parctl.Malformed "")
    (Parctl.parse_env (Some ""))

(* Both paths of [domains_from_env]: a malformed value falls back to 1
   domain and warns exactly once per process (not once per read); a
   valid value is honoured silently. *)
let test_parctl_warns_once () =
  let original = Sys.getenv_opt Parctl.env_var in
  let saved_hook = !Parctl.warn_hook in
  let captured = ref [] in
  Parctl.warn_hook := (fun msg -> captured := msg :: !captured);
  Fun.protect
    ~finally:(fun () ->
      Parctl.warn_hook := saved_hook;
      (* [putenv] cannot unset; restore the original value, or a
         well-formed "1" (behaviourally identical to unset). *)
      Unix.putenv Parctl.env_var (Option.value original ~default:"1"))
  @@ fun () ->
  (* Malformed path. *)
  Parctl.reset_warned ();
  Unix.putenv Parctl.env_var "banana";
  check_int "malformed falls back to 1 domain" 1 (Parctl.domains_from_env ());
  check_int "second read also 1" 1 (Parctl.domains_from_env ());
  check_int "exactly one warning across both reads" 1 (List.length !captured);
  let msg = List.hd !captured in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  check_bool "warning names the variable" true (contains Parctl.env_var msg);
  check_bool "warning quotes the bad value" true (contains "banana" msg);
  (* Valid path: honoured, and never warns. *)
  Parctl.reset_warned ();
  captured := [];
  Unix.putenv Parctl.env_var "3";
  check_int "valid count honoured" 3 (Parctl.domains_from_env ());
  check_int "no warning for a valid value" 0 (List.length !captured)

(* ------------------------------------------------------------------ *)
(* Pretty-printer / parser round trips                                 *)
(* ------------------------------------------------------------------ *)

let roundtrip_qcheck =
  [
    QCheck.Test.make ~name:"line-pp-parse-roundtrip" ~count:200
      QCheck.(triple (int_range 1 31) (int_range 1 31) (int_range 1 4))
      (fun (b1, b2, c) ->
        (* Random condensed line over the 5-label alphabet. *)
        let l =
          Line.make [ (Labelset.of_bits b1, 1); (Labelset.of_bits b2, c) ]
        in
        Line.equal l (Parse.line alpha5 (Line.to_string alpha5 l)));
    QCheck.Test.make ~name:"problem-serialize-parse-roundtrip" ~count:100
      QCheck.(pair (int_range 1 1023) (int_range 1 63))
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let p' = Serialize.of_string (Serialize.to_string p) in
            Iso.equal_up_to_renaming (Problem.trim p) p');
    QCheck.Test.make ~name:"stepped-problem-roundtrip" ~count:20
      QCheck.(int_range 2 4)
      (fun delta ->
        (* Speedup outputs exercise multi-character set-labels. *)
        let node =
          String.concat "\n"
            [ Printf.sprintf "M^%d" delta; "P O" ^ if delta > 2 then Printf.sprintf " O^%d" (delta - 2) else "" ]
        in
        let p = Parse.problem ~name:"mis" ~node ~edge:"M [PO]\nO O" in
        let { Rounde.problem = stepped; _ } = Rounde.step p in
        let p' = Serialize.of_string (Serialize.to_string stepped) in
        Iso.equal_up_to_renaming (Problem.trim stepped) p');
  ]

(* Multiset insertion/removal against a sorted-list reference. *)
let multiset_ref_qcheck =
  let gen = QCheck.(pair (small_list (int_bound 6)) (int_bound 6)) in
  [
    QCheck.Test.make ~name:"add-matches-sorted-list" ~count:200 gen
      (fun (ls, x) ->
        Multiset.to_list (Multiset.add x (Multiset.of_list ls))
        = List.sort compare (x :: ls));
    QCheck.Test.make ~name:"remove-matches-sorted-list" ~count:200 gen
      (fun (ls, x) ->
        let m = Multiset.of_list ls in
        let rec remove_first = function
          | [] -> []
          | y :: rest -> if y = x then rest else y :: remove_first rest
        in
        if List.mem x ls then
          Multiset.to_list (Multiset.remove_one x m)
          = List.sort compare (remove_first ls)
        else
          match Multiset.remove_one x m with
          | exception Not_found -> true
          | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* The domain pool and the engine's determinism across domain counts   *)
(* ------------------------------------------------------------------ *)

(* [run] with each index writing its result into its own slot: a map,
   and a filter-map read off the slots in index order. *)
let slot_map ?chunk pool f arr =
  let res = Array.make (Array.length arr) None in
  Parallel.Pool.run ?chunk pool ~n:(Array.length arr)
    ~init:(fun () -> ())
    ~body:(fun () i -> res.(i) <- f i arr.(i))
    ~merge:ignore;
  res

let test_pool_map_order () =
  let pool = Parallel.Pool.create ~domains:4 in
  let arr = Array.init 1000 Fun.id in
  List.iter
    (fun chunk ->
      let doubled = slot_map ~chunk pool (fun _ x -> Some (2 * x)) arr in
      Alcotest.(check (array int))
        (Printf.sprintf "map preserves order (chunk=%d)" chunk)
        (Array.map (fun x -> 2 * x) arr)
        (Array.map Option.get doubled);
      let odd_squares =
        slot_map ~chunk pool
          (fun i x -> if i land 1 = 1 then Some (x * x) else None)
          arr
      in
      Alcotest.(check (list int))
        (Printf.sprintf "filter_mapi preserves order (chunk=%d)" chunk)
        (List.init 500 (fun k ->
             let i = (2 * k) + 1 in
             i * i))
        (List.filter_map Fun.id (Array.to_list odd_squares)))
    [ 1; 7; 64; 2048 ];
  Parallel.Pool.shutdown pool

let test_pool_exception () =
  let pool = Parallel.Pool.create ~domains:4 in
  let ident pool arr = Array.map Option.get (slot_map pool (fun _ x -> Some x) arr) in
  (match
     slot_map pool
       (fun _ x -> if x = 37 then failwith "boom" else Some x)
       (Array.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected the body's Failure to propagate"
  | exception Failure msg -> check Alcotest.string "failure message" "boom" msg);
  (* A failed job must not wedge the pool. *)
  let arr = Array.init 50 Fun.id in
  Alcotest.(check (array int)) "pool reusable after a failure" arr (ident pool arr);
  Parallel.Pool.shutdown pool;
  (* A stopped pool degrades to the sequential path. *)
  Alcotest.(check (array int)) "stopped pool runs sequentially" arr (ident pool arr)

let test_pool_run_merge () =
  let pool = Parallel.Pool.create ~domains:3 in
  let n = 1234 in
  let total = ref 0 in
  Parallel.Pool.run ~chunk:5 pool ~n
    ~init:(fun () -> ref 0)
    ~body:(fun acc i -> acc := !acc + i)
    ~merge:(fun acc -> total := !total + !acc);
  check_int "merged sum is exact" (n * (n - 1) / 2) !total;
  Parallel.Pool.run Parallel.Pool.sequential ~n:0
    ~init:(fun () -> ())
    ~body:(fun () _ -> Alcotest.fail "no items to visit")
    ~merge:ignore;
  Parallel.Pool.shutdown pool

(* The headline guarantee: problem, denotations, stats counters and
   budget verdicts of the parallel hot paths are identical for every
   domain count.  Wall times and [transport_cache_hits] (hits in
   per-worker memo tables) are the documented exceptions, so they stay
   out of the comparison. *)
let parallel_determinism_qcheck =
  let gen = QCheck.(pair (int_range 1 1023) (int_range 1 63)) in
  let rounde_counters () =
    let s = Rounde.stats in
    [
      s.Rounde.r_calls; s.Rounde.closures_visited; s.Rounde.closure_joins;
      s.Rounde.closure_revisits; s.Rounde.rbar_calls; s.Rounde.rc_sets;
      s.Rounde.boxes_emitted; s.Rounde.boxes_pruned; s.Rounde.box_dom_checks;
      s.Rounde.box_dom_cheap_skips; s.Rounde.box_transport_calls;
    ]
  in
  [
    QCheck.Test.make ~name:"step-identical-across-domain-counts" ~count:40 gen
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let run pool =
              Rounde.reset_stats ();
              match Rounde.step ~pool p with
              | { Rounde.problem; denotations } ->
                  Ok
                    ( Serialize.to_string problem,
                      Array.to_list denotations,
                      rounde_counters () )
              | exception Budget.Budget_exceeded { budget; limit } ->
                  Error (Budget.message ~budget ~limit)
              | exception Failure msg -> Error msg
            in
            let pool4 = Parallel.Pool.create ~domains:4 in
            let r1 = run Parallel.Pool.sequential in
            let r4 = run pool4 in
            Parallel.Pool.shutdown pool4;
            (match (r1, r4) with
            | Ok (s1, d1, c1), Ok (s4, d4, c4) ->
                String.equal s1 s4 && List.equal Labelset.equal d1 d4 && c1 = c4
            | Error m1, Error m4 -> String.equal m1 m4
            | Ok _, Error _ | Error _, Ok _ -> false));
    QCheck.Test.make ~name:"zeroround-identical-across-domain-counts" ~count:60
      gen (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p ->
            let run pool =
              Zeroround.reset_stats ();
              let witness = Zeroround.solvable_arbitrary_ports ~pool p in
              let s = Zeroround.stats in
              ( Option.map Multiset.to_list witness,
                [
                  s.Zeroround.clique_calls; s.Zeroround.maximal_cliques;
                  s.Zeroround.bk_expansions;
                ] )
            in
            let pool4 = Parallel.Pool.create ~domains:4 in
            let r1 = run Parallel.Pool.sequential in
            let r4 = run pool4 in
            Parallel.Pool.shutdown pool4;
            r1 = r4);
  ]

(* ------------------------------------------------------------------ *)
(* Node diagram: one-pass exact branch vs the pairwise definition      *)
(* ------------------------------------------------------------------ *)

(* The exact node diagram pair by pair, from the definition: a >= b iff
   replacing one b by a in any allowed configuration that contains b
   yields an allowed configuration. *)
let reference_node_geq (p : Problem.t) =
  let n = Problem.label_count p in
  let tbl = Hashtbl.create 4096 in
  List.iter (fun m -> Hashtbl.replace tbl m ()) (Constr.expand p.Problem.node);
  let configs = Hashtbl.fold (fun m () acc -> m :: acc) tbl [] in
  Array.init n (fun a ->
      Array.init n (fun b ->
          List.for_all
            (fun m ->
              (not (Multiset.mem b m))
              || Hashtbl.mem tbl (Multiset.replace_one ~remove:b ~add:a m))
            configs))

(* [Diagram.node_diagram p] has the reference relation when it is exact,
   and on either branch [minimal_elements] agrees with its definition
   (members with no strictly weaker member) on the full alphabet, every
   right-closed set and a few seeded random sets. *)
let check_node_diagram ~what (p : Problem.t) =
  let d = Diagram.node_diagram p in
  let n = Problem.label_count p in
  let geq =
    if Diagram.is_exact d then reference_node_geq p
    else Array.init n (fun a -> Array.init n (fun b -> Diagram.geq d a b))
  in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Diagram.geq d a b <> geq.(a).(b) then
        Alcotest.failf "%s: geq %d %d is %b, reference %b" what a b (Diagram.geq d a b)
          geq.(a).(b)
    done
  done;
  let gt a b = geq.(a).(b) && not geq.(b).(a) in
  let reference_minimal s =
    let els = Labelset.elements s in
    Labelset.of_list
      (List.filter (fun l -> List.for_all (fun l' -> l' = l || not (gt l l')) els) els)
  in
  let rng = Random.State.make [| Qseed.seed; n |] in
  let random_set () =
    Labelset.inter (Labelset.full n)
      (Labelset.of_bits (Random.State.bits rng lor (Random.State.bits rng lsl 30)))
  in
  let rc = try Diagram.right_closed_sets ~limit:5_000 d with Budget.Budget_exceeded _ -> [] in
  List.iter
    (fun s ->
      if not (Labelset.equal (Diagram.minimal_elements d s) (reference_minimal s)) then
        Alcotest.failf "%s: minimal elements of 0x%x differ" what (Labelset.to_bits s))
    ((Labelset.full n :: rc) @ List.init 20 (fun _ -> random_set ()))

(* A problem, its R image and the R̄ images of both, where they exist
   within the default budgets. *)
let with_images p =
  let image f q = match f q with d -> [ d.Rounde.problem ] | exception (Budget.Budget_exceeded _ | Failure _) -> [] in
  let rp = image Rounde.r p in
  (p :: rp) @ image Rounde.rbar p @ List.concat_map (image Rounde.rbar) rp

let presets () =
  let pi (delta, a, x) = Core.Family.pi { Core.Family.delta; a; x } in
  let pi_plus (delta, a, x) = Core.Family.pi_plus { Core.Family.delta; a; x } in
  let r_pi (delta, a, x) = Core.Family.r_pi_claimed { Core.Family.delta; a; x } in
  List.concat_map
    (fun delta ->
      [
        Lcl.Encodings.mis ~delta;
        Lcl.Encodings.sinkless_orientation ~delta;
        Lcl.Encodings.maximal_matching ~delta;
        Lcl.Encodings.weak_2_coloring ~delta;
      ])
    [ 2; 3; 4 ]
  @ List.map pi [ (3, 2, 0); (4, 3, 1); (5, 4, 2); (8, 6, 1) ]
  @ List.map pi_plus [ (4, 3, 1); (5, 4, 2) ]
  @ List.map r_pi [ (4, 3, 1); (5, 4, 2) ]

let test_node_diagram_presets () =
  List.iter
    (fun p ->
      List.iteri
        (fun i q -> check_node_diagram ~what:(Printf.sprintf "%s image %d" p.Problem.name i) q)
        (with_images p))
    (presets ())

let test_node_diagram_fuzz () =
  let rng = Random.State.make [| Qseed.seed |] in
  for i = 1 to 300 do
    let p = Certify.Fuzz.gen_problem rng in
    List.iteri
      (fun k q -> check_node_diagram ~what:(Printf.sprintf "fuzz %d image %d" i k) q)
      (with_images p)
  done

(* ------------------------------------------------------------------ *)
(* Simplify: the screened prune against the reference prune            *)
(* ------------------------------------------------------------------ *)

(* Every preset (whose lines are condensed) and its one-step result.
   The Δ = 8 step is left out: certifying it on the RELIM_CERTIFY=1 leg
   takes about 18 s. *)
let test_prune_presets () =
  List.iter
    (fun p ->
      check_bool p.Problem.name true (prune_matches_reference p);
      if Problem.delta p <= 5 then
        match Rounde.step p with
        | d ->
            check_bool (p.Problem.name ^ " step 1") true
              (prune_matches_reference d.Rounde.problem)
        | exception Budget.Budget_exceeded _ -> ())
    (presets ())

(* mm Δ=3's third identity step: 46 labels, 26 node lines and 599 edge
   lines, of which the support screen leaves 976 ordered edge-line
   pairs for [Line.covers]. *)
let test_prune_mm3_third_step () =
  let step q = Simplify.normalize (Rounde.step q).Rounde.problem in
  let third =
    (Rounde.step (step (step (Lcl.Encodings.maximal_matching ~delta:3)))).Rounde.problem
  in
  check_int "labels" 46 (Problem.label_count third);
  check_int "node lines" 26 (List.length (Constr.lines third.Problem.node));
  check_int "edge lines" 599 (List.length (Constr.lines third.Problem.edge));
  check_bool "same lines as the reference prune" true (prune_matches_reference third)

(* ------------------------------------------------------------------ *)
(* Membership, multisets and the parser against their unscreened,      *)
(* hashtable and three-pass bodies                                     *)
(* ------------------------------------------------------------------ *)

(* [Constr.mem] without the support screen: a [Line.contains] max-flow
   on every line. *)
let reference_mem c m = List.exists (fun l -> Line.contains l m) (Constr.lines c)

(* [Multiset.of_counts] through a hashtable, returned as its counts. *)
let reference_of_counts pairs =
  List.iter (fun (_, c) -> if c < 0 then invalid_arg "Multiset.of_counts") pairs;
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (l, c) ->
      let cur = try Hashtbl.find tbl l with Not_found -> 0 in
      Hashtbl.replace tbl l (cur + c))
    pairs;
  let items = Hashtbl.fold (fun l c acc -> if c > 0 then (l, c) :: acc else acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) items

(* [Parse.problem]'s three-pass body: the labels of both texts, then the
   node lines for Δ, then both constraints, each pass through the
   public single-text functions.  OCaml evaluates [@]'s right operand
   first, so an edge syntax error is raised before a node one. *)
let reference_parse_problem ~name ~node ~edge =
  let split_lines s =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let names = Parse.scan_labels node @ Parse.scan_labels edge in
  let names =
    List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) [] names
    |> List.rev
  in
  let alpha = Alphabet.create names in
  let node_lines = List.map (Parse.line alpha) (split_lines node) in
  let delta =
    match node_lines with
    | [] -> failwith "empty node constraint"
    | first :: _ -> Line.arity first
  in
  let node = Parse.constr alpha ~arity:delta node in
  let edge = Parse.constr alpha ~arity:2 edge in
  Problem.make ~name ~alpha ~node ~edge

(* Both parsers on one input: [Ok] with equal problems (which includes
   alphabet order), or [Error] with the same message.  The reference's
   [Invalid_argument] from [Alphabet.create] is the error the one-pass
   parser must raise as [Failure]. *)
let parse_outcomes ~node ~edge =
  let outcome parse =
    match parse ~name:"p" ~node ~edge with
    | p -> Ok p
    | exception Failure msg -> Error msg
  in
  ( outcome Parse.problem,
    outcome (fun ~name ~node ~edge ->
        try reference_parse_problem ~name ~node ~edge
        with Invalid_argument msg -> failwith msg) )

let parsers_agree ~node ~edge =
  match parse_outcomes ~node ~edge with
  | Ok p, Ok q -> Problem.equal p q
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* The node and edge sections of a [Serialize.to_string] text. *)
let serialized_sections text =
  let section = ref `Header and node = ref [] and edge = ref [] in
  List.iter
    (fun l ->
      match (l, !section) with
      | "node:", _ -> section := `Node
      | "edge:", _ -> section := `Edge
      | _, `Node -> node := l :: !node
      | _, `Edge -> edge := l :: !edge
      | _, `Header -> ())
    (String.split_on_char '\n' text);
  let join ls = String.concat "\n" (List.rev ls) in
  (join !node, join !edge)

let one_pass_parse_matches_reference (p : Problem.t) =
  let text = Serialize.to_string p in
  let node, edge = serialized_sections text in
  match parse_outcomes ~node ~edge with
  | Ok q, Ok q' ->
      Problem.equal q q'
      && Problem.equal (Serialize.of_string text)
           (reference_parse_problem ~name:p.Problem.name ~node ~edge)
  | _ -> false

let membership_ref_qcheck =
  let open QCheck.Gen in
  (* Lines over labels 0–5; labels 6 and 7 lie in no line's support. *)
  let group = map Labelset.of_bits (int_range 1 63) in
  let case =
    int_range 1 4 >>= fun arity ->
    list_size (int_range 1 6) (list_repeat arity group) >>= fun lines ->
    let member =
      oneofl lines >>= fun groups ->
      flatten_l (List.map (fun s -> oneofl (Labelset.elements s)) groups)
    in
    let near = member >>= fun ls -> map (fun x -> x :: List.tl ls) (int_range 0 7) in
    frequency
      [
        (2, member);
        (2, near);
        (2, list_repeat arity (int_range 0 7));
        (1, list_size (int_range 0 5) (int_range 0 7));
      ]
    >>= fun labels ->
    return
      ( Constr.make (List.map (fun gs -> Line.make (List.map (fun s -> (s, 1)) gs)) lines),
        Multiset.of_list labels )
  in
  let alpha8 = Alphabet.create (List.init 8 (Printf.sprintf "l%d")) in
  let print (c, m) =
    Printf.sprintf "%s\n  mem %s" (Constr.to_string alpha8 c) (Multiset.to_string alpha8 m)
  in
  [
    QCheck.Test.make ~name:"screened-mem-equals-unscreened" ~count:1000
      (QCheck.make ~print case)
      (fun (c, m) -> Constr.mem c m = reference_mem c m);
  ]

let of_counts_ref_qcheck =
  let pairs = QCheck.(small_list (pair (int_bound 7) (int_bound 3))) in
  [
    QCheck.Test.make ~name:"sorted-merge-equals-hashtable" ~count:500 pairs
      (fun pairs ->
        Multiset.counts (Multiset.of_counts pairs) = reference_of_counts pairs);
    QCheck.Test.make ~name:"negative-count-still-raises" ~count:200
      QCheck.(triple pairs (pair (int_bound 7) (int_range (-3) (-1))) pairs)
      (fun (front, bad, back) ->
        match Multiset.of_counts (front @ (bad :: back)) with
        | exception Invalid_argument msg -> msg = "Multiset.of_counts"
        | _ -> false);
  ]

(* Texts built from fragments that hit every tokenizer branch, so most
   are malformed; both parsers must give the same problem or the same
   first error. *)
let parse_ref_qcheck =
  let fragments =
    [ "A"; "B"; "Ab"; "A("; " "; "\t"; "\n"; ";"; "["; "]"; "[AB]"; "[A Ab]"; "[]"; "^";
      "^0"; "^2"; "[A^2]" ]
  in
  let text =
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 8) (oneofl fragments)))
  in
  [
    QCheck.Test.make ~name:"one-pass-equals-three-pass-random" ~count:200
      (QCheck.pair (QCheck.int_range 1 1023) (QCheck.int_range 1 63))
      (fun masks ->
        match random_problem masks with
        | None -> true
        | Some p -> one_pass_parse_matches_reference p);
    QCheck.Test.make ~name:"one-pass-equals-three-pass-fuzz" ~count:300 QCheck.small_nat
      (fun seed ->
        let rng = Random.State.make [| Qseed.seed; seed |] in
        one_pass_parse_matches_reference
          (Certify.Fuzz.gen_problem ~max_labels:6 ~max_delta:4 rng));
    QCheck.Test.make ~name:"fragment-texts-fail-alike" ~count:2000
      (QCheck.make ~print:(fun (n, e) -> Printf.sprintf "node %S edge %S" n e)
         QCheck.Gen.(pair text text))
      (fun (node, edge) -> parsers_agree ~node ~edge);
  ]

(* Malformed inputs: both parsers fail with the same message. *)
let malformed_problems =
  [
    ("unclosed [", "M [PO", "M M");
    ("^0", "M^1\nP O^0", "M [PO]\nO O");
    ("[]", "[] M", "M M");
    ("missing count", "M^ M", "M M");
    ("caret inside brackets", "[M^2] O", "M O\nO O");
    ("unexpected ]", "M ] M", "M M");
    ("node arity mismatch", "M M M\nP O", "M [PO]\nO O");
    ("edge arity mismatch", "M M", "M M M");
    ("empty node constraint", "", "M M");
    ("empty edge constraint", "M M", " ;\n");
    ("bad label name", "A( A( A(", "A( A(");
    ("61 labels", labels61, "l0 l0");
    ("tab inside brackets", "[A\tB] A", "A A");
    ("edge syntax error before node syntax error", "[M", "[P");
    ("tokens before the alphabet", labels61, "l0 [l1");
    ("alphabet before arity", "A A\nA A A", "A( A(");
  ]

let test_parse_one_pass_malformed () =
  List.iter
    (fun (what, node, edge) ->
      match parse_outcomes ~node ~edge with
      | Error m, Error m' -> check Alcotest.string what m' m
      | _ -> Alcotest.failf "%s: both parsers must fail" what)
    malformed_problems

(* Every preset and, where Δ ≤ 5, its step result, whose nested label
   names hold commas and reach hundreds of bytes. *)
let test_parse_one_pass_presets () =
  List.iter
    (fun p ->
      check_bool p.Problem.name true (one_pass_parse_matches_reference p);
      if Problem.delta p <= 5 then
        match Rounde.step p with
        | d ->
            check_bool (p.Problem.name ^ " step 1") true
              (one_pass_parse_matches_reference d.Rounde.problem)
        | exception Budget.Budget_exceeded _ -> ())
    (presets ())

(* ------------------------------------------------------------------ *)
(* Work accounting: engine counters and budget trips, pinned           *)
(* ------------------------------------------------------------------ *)

(* Every R̄ budget is charged in the units these counters count, so a
   kernel rewrite that keeps them keeps every budget verdict: the same
   instances trip the same budget at the same point.  Each job starts
   from zeroed stats, and passes the engine and a sequential pool
   explicitly, so the RELIM_ZDD and RELIM_DOMAINS legs run the same
   engine.  A step is R, then R̄, then normalization.  The table is
   test/relim/golden/work_accounting.golden; DUNE_GOLDEN_UPDATE=1
   rewrites it from the current engine. *)

let col_problem k =
  let name i = Printf.sprintf "c%d" i in
  let node =
    String.concat "\n"
      (List.init k (fun i -> Printf.sprintf "%s %s %s" (name i) (name i) (name i)))
  in
  let edge =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i < j then Some (name i ^ " " ^ name j) else None)
          (List.init k Fun.id))
      (List.init k Fun.id)
  in
  Parse.problem ~name:(Printf.sprintf "col%d" k) ~node ~edge:(String.concat "\n" edge)

(* (id, input, steps (0: a single R̄ on the input), zdd).  Five jobs
   trip a budget: pi542's second step (node constraint expansion),
   col11 (explicit box-enumeration work), col21-zdd and mis3-zdd's
   third step (the streaming rung's box-enumeration and scan work). *)
let work_accounting_jobs () =
  let pi delta a x = Core.Family.pi { Core.Family.delta; a; x } in
  let mis delta = Lcl.Encodings.mis ~delta in
  [
    ("pi542", pi 5 4 2, 2, false);
    ("pi861", pi 8 6 1, 1, false);
    ("mis3", mis 3, 2, false);
    ("mis4", mis 4, 2, false);
    ("so3", Lcl.Encodings.sinkless_orientation ~delta:3, 2, false);
    ("col10", col_problem 10, 0, false);
    ("col11", col_problem 11, 0, false);
    ("chain30", chain_problem 30, 0, false);
    ("col21-zdd", col_problem 21, 0, true);
    ("mis3-zdd", mis 3, 3, true);
  ]

(* Runs one job from zeroed stats; returns its golden line, whether a
   budget tripped, and the job's [rbar_time_s]. *)
let run_work_accounting_job (id, input, steps, zdd) =
  Rounde.reset_stats ();
  Zdd.reset_stats ();
  let rbar q = (Rounde.rbar ~pool:Parallel.Pool.sequential ~zdd q).Rounde.problem in
  let step q = Simplify.normalize (rbar (Rounde.r q).Rounde.problem) in
  let rec go q done_ =
    if done_ = steps then (done_, "-")
    else
      match step q with
      | q' -> go q' (done_ + 1)
      | exception Budget.Budget_exceeded { budget; _ } -> (done_, budget)
  in
  let completed, budget =
    if steps > 0 then go input 0
    else
      match rbar input with
      | _ -> (1, "-")
      | exception Budget.Budget_exceeded { budget; _ } -> (0, budget)
  in
  let s = Rounde.stats in
  let fields =
    [
      ("completed", completed);
      ("r_calls", s.Rounde.r_calls);
      ("closures_visited", s.Rounde.closures_visited);
      ("closure_joins", s.Rounde.closure_joins);
      ("closure_revisits", s.Rounde.closure_revisits);
      ("rbar_calls", s.Rounde.rbar_calls);
      ("rc_sets", s.Rounde.rc_sets);
      ("boxes_emitted", s.Rounde.boxes_emitted);
      ("boxes_pruned", s.Rounde.boxes_pruned);
      ("box_dom_checks", s.Rounde.box_dom_checks);
      ("box_dom_cheap_skips", s.Rounde.box_dom_cheap_skips);
      ("box_transport_calls", s.Rounde.box_transport_calls);
      ("transport_cache_hits", s.Rounde.transport_cache_hits);
      ("maxbox_tuples", s.Rounde.maxbox_tuples);
      ("maxbox_cubes", s.Rounde.maxbox_cubes);
      ("maxbox_maximal", s.Rounde.maxbox_maximal);
      ("maxbox_enumerated", s.Rounde.maxbox_enumerated);
      ("zdd_nodes", Zdd.stats.Zdd.nodes);
      ("zdd_peak_unique", Zdd.stats.Zdd.peak_unique);
    ]
  in
  ( Printf.sprintf "%s budget=%S %s" id budget
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields)),
    budget <> "-",
    s.Rounde.rbar_time_s )

let test_work_accounting () =
  let runs = List.map run_work_accounting_job (work_accounting_jobs ()) in
  (* Work that ended in a budget trip still shows in the times, and in
     the golden's counters: col11 and col21-zdd run a single R̄ call,
     and it trips. *)
  List.iter
    (fun (line, tripped, rbar_time_s) ->
      if tripped then check_bool ("R-bar time of a tripped job: " ^ line) true (rbar_time_s > 0.))
    runs;
  Golden.check ~suite:"relim" "work_accounting"
    (String.concat "" (List.map (fun (line, _, _) -> line ^ "\n") runs))

(* The streaming rung filters its boxes with the explicit path's scan:
   the R̄ input of mis Δ=2's third step (46 labels, so Δ·n is past the
   slotted encoding's 62 bits) gets the same dominance checks, screen
   skips, matchings and memo hits, and the same outcome, on both
   engines.  Both calls trip the output alphabet width after the
   filter has run. *)
let test_streaming_filter_is_explicit () =
  let seq = Parallel.Pool.sequential in
  let step q =
    Simplify.normalize
      (Rounde.rbar ~pool:seq ~zdd:false (Rounde.r q).Rounde.problem).Rounde.problem
  in
  let input = (Rounde.r (step (step (Lcl.Encodings.mis ~delta:2)))).Rounde.problem in
  check_int "labels" 46 (Problem.label_count input);
  let run zdd =
    Rounde.reset_stats ();
    Zdd.reset_stats ();
    let outcome =
      match Rounde.rbar ~pool:seq ~zdd input with
      | r -> Problem.to_string r.Rounde.problem
      | exception Budget.Budget_exceeded { budget; _ } -> budget
    in
    let s = Rounde.stats in
    ( outcome,
      [ s.Rounde.box_dom_checks; s.Rounde.box_dom_cheap_skips;
        s.Rounde.box_transport_calls; s.Rounde.transport_cache_hits ] )
  in
  let explicit_outcome, explicit_counts = run false in
  let zdd_outcome, zdd_counts = run true in
  (* The compressed DFS built the right-closed family; the symbolic
     rung did not run. *)
  check_bool "streaming rung ran" true
    (Zdd.stats.Zdd.nodes > 0 && Rounde.stats.Rounde.maxbox_tuples = 0);
  check Alcotest.string "explicit trips the width" "Rounde.rbar: output alphabet width"
    explicit_outcome;
  check Alcotest.string "same outcome" explicit_outcome zdd_outcome;
  check Alcotest.(list int) "same scan counters" explicit_counts zdd_counts

(* The maximal-box filter on its own, against definitions.  Boxes are
   random lists of Δ non-empty sets over a few labels, Δ from 1 to 10.
   Half of the cases draw every set from a pool of a few sets, so boxes
   share sets and size vectors; the rest draw each set afresh.  Boxes
   equal as multisets are dropped, so every pair is distinct. *)
let gen_filter_boxes =
  QCheck.Gen.(
    int_range 1 10 >>= fun delta ->
    int_range 1 6 >>= fun labels ->
    let set = map (fun x -> 1 + (x mod ((1 lsl labels) - 1))) nat in
    list_size (int_range 1 8) set >>= fun pool ->
    bool >>= fun shared ->
    list_size (int_range 1 90) (list_size (return delta) (if shared then oneofl pool else set))
    >|= fun boxes ->
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun box ->
        let canon = List.sort compare box in
        if Hashtbl.mem seen canon then None
        else begin
          Hashtbl.add seen canon ();
          Some (List.map Labelset.of_bits box)
        end)
      boxes)

let arb_filter_boxes =
  QCheck.make gen_filter_boxes
    ~print:
      QCheck.Print.(
        list (fun box -> String.concat " " (List.map (fun s -> string_of_int (Labelset.to_bits s)) box)))

let maximal_boxes_qcheck =
  let seq = Parallel.Pool.sequential in
  [
    QCheck.Test.make ~name:"filter-equals-pairwise-bruteforce" ~count:150 arb_filter_boxes
      (fun boxes ->
        let indexed = List.mapi (fun i b -> (i, b)) boxes in
        let brute =
          List.filteri
            (fun i b -> not (List.exists (fun (k, a) -> k <> i && dominates a b) indexed))
            boxes
        in
        Rounde.maximal_boxes ~pool:seq ~zdd:false boxes = brute);
    QCheck.Test.make ~name:"one-and-two-domains-agree" ~count:60 arb_filter_boxes (fun boxes ->
        let run pool =
          Rounde.reset_stats ();
          let kept = Rounde.maximal_boxes ~pool ~zdd:false boxes in
          let s = Rounde.stats in
          (kept, [ s.Rounde.box_dom_checks; s.Rounde.box_dom_cheap_skips; s.Rounde.box_transport_calls ])
        in
        let pool2 = Parallel.Pool.create ~domains:2 in
        let one = run seq in
        let two = run pool2 in
        Parallel.Pool.shutdown pool2;
        one = two);
    (* Relation [r] realized as boxes: row i is the singleton {i} and
       column j the set of rows related to j, so [{i} ⊆ b_j] iff
       [r.(i).(j)].  Half of the relations hold a planted permutation,
       maybe with one edge dropped, so a perfect matching often hinges
       on a single bit; Δ reaches 12, a key of three words. *)
    QCheck.Test.make ~name:"matcher-equals-transport-feasible" ~count:400
      QCheck.(
        make
          Gen.(
            int_range 1 12 >>= fun d ->
            int_range 0 60 >>= fun density ->
            shuffle_l (List.init d Fun.id) >>= fun perm ->
            int_range 0 d >>= fun dropped ->
            bool >>= fun planted ->
            array_size (return (d * d)) (int_bound 99) >|= fun cells ->
            let perm = Array.of_list perm in
            Array.init d (fun i ->
                Array.init d (fun j ->
                    (planted && perm.(i) = j && i <> dropped) || cells.((i * d) + j) < density))))
      (fun r ->
        let d = Array.length r in
        let a = Array.init d Labelset.singleton in
        let b =
          Array.init d (fun j ->
              Labelset.of_list (List.filter (fun i -> r.(i).(j)) (List.init d Fun.id)))
        in
        Rounde.box_leq a b
        = Util.transport_feasible ~supply:(Array.make d 1) ~demand:(Array.make d 1)
            ~allowed:(fun i j -> r.(i).(j)));
  ]

let extra_suites =
  [
    ( "work-accounting",
      [
        Alcotest.test_case "R-bar counters and budget trips" `Quick test_work_accounting;
        Alcotest.test_case "streaming filter is the explicit filter" `Quick
          test_streaming_filter_is_explicit;
      ] );
    qsuite "maximal-box-filter-props" maximal_boxes_qcheck;
    ( "parallel-pool",
      [
        Alcotest.test_case "map/filter_mapi order" `Quick test_pool_map_order;
        Alcotest.test_case "exception propagation" `Quick test_pool_exception;
        Alcotest.test_case "run merge exactness" `Quick test_pool_run_merge;
      ] );
    qsuite "parallel-determinism-props" parallel_determinism_qcheck;
    ( "simplify",
      [
        Alcotest.test_case "merge" `Quick test_simplify_merge;
        Alcotest.test_case "soundness" `Quick test_merge_soundness;
        Alcotest.test_case "equivalents" `Quick test_merge_equivalent;
        Alcotest.test_case "redundant lines" `Quick test_drop_redundant;
        Alcotest.test_case "cover chain" `Quick test_drop_redundant_cover_chain;
      ] );
    ( "serialize",
      [
        Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
        Alcotest.test_case "errors" `Quick test_serialize_errors;
      ] );
    ( "fixedpoint",
      [
        Alcotest.test_case "sinkless orientation" `Quick test_fixedpoint_so;
        Alcotest.test_case "trivial" `Quick test_fixedpoint_trivial;
        Alcotest.test_case "counter = applications" `Quick
          test_fixedpoint_counter_matches_steps;
        Alcotest.test_case "cache up to renaming" `Quick
          test_fixedpoint_renamed_input_only;
        Alcotest.test_case "engineered hash collision pair" `Quick
          test_collision_pair_is_engineered;
        Alcotest.test_case "cache sound under hash collision" `Quick
          test_fixedpoint_collision_input_only;
      ] );
    ( "parctl",
      [
        Alcotest.test_case "parse_env classification" `Quick
          test_parctl_parse_env;
        Alcotest.test_case "malformed warns exactly once" `Quick
          test_parctl_warns_once;
      ] );
    ( "parse-strict",
      [
        Alcotest.test_case "zero counts rejected" `Quick
          test_parse_rejects_zero_count;
        Alcotest.test_case "bracket syntax rejected" `Quick
          test_parse_rejects_nested_bracket_syntax;
        Alcotest.test_case "Line.make zero count" `Quick
          test_line_make_zero_count;
      ] );
    ( "r-equivalence",
      [
        Alcotest.test_case "MIS (Delta=3)" `Quick test_r_reference_mis;
        Alcotest.test_case "Pi family" `Quick test_r_reference_family;
      ] );
    qsuite "r-equivalence-props" r_reference_qcheck;
    ( "rc-equivalence",
      [
        Alcotest.test_case "MIS diagrams" `Quick test_rc_reference_mis;
        Alcotest.test_case "Pi family diagrams" `Quick test_rc_reference_family;
        Alcotest.test_case "12-label chain" `Quick test_rc_reference_chain;
        Alcotest.test_case "budget and early exit" `Quick test_rc_limit_guard;
      ] );
    qsuite "rc-equivalence-props" rc_reference_qcheck;
    ( "node-diagram-equivalence",
      [
        Alcotest.test_case "presets and their R, R-bar images" `Quick test_node_diagram_presets;
        Alcotest.test_case "300 fuzzed problems and images" `Quick test_node_diagram_fuzz;
      ] );
    ( "simplify-prune-reference",
      [
        Alcotest.test_case "presets and their step results" `Quick test_prune_presets;
        Alcotest.test_case "mm3 third step, 599 edge lines" `Quick
          test_prune_mm3_third_step;
      ] );
    ( "clique-equivalence",
      [
        Alcotest.test_case "MIS" `Quick test_cliques_mis;
        Alcotest.test_case "Pi family" `Quick test_cliques_family;
        Alcotest.test_case "edge cases" `Quick test_cliques_edge_cases;
        Alcotest.test_case "expansion budget" `Quick test_clique_guard;
        Alcotest.test_case "stats counters" `Quick test_zeroround_stats;
      ] );
    qsuite "clique-equivalence-props" clique_reference_qcheck;
    ( "rbar-equivalence",
      [
        Alcotest.test_case "MIS" `Quick test_rbar_reference_mis;
        Alcotest.test_case "sinkless orientation" `Quick test_rbar_reference_so;
        Alcotest.test_case "3-coloring" `Quick test_rbar_reference_coloring;
        Alcotest.test_case "24-label chain (beyond seed caps)" `Quick
          test_rbar_beyond_old_cap;
      ] );
    qsuite "rbar-equivalence-props" rbar_reference_qcheck;
    qsuite "simplify-prune-props" simplify_prune_qcheck;
    qsuite "roundtrip-props" roundtrip_qcheck;
    qsuite "multiset-ref-props" (multiset_ref_qcheck @ of_counts_ref_qcheck);
    qsuite "membership-ref-props" membership_ref_qcheck;
    qsuite "parse-one-pass-props" parse_ref_qcheck;
    ( "parse-one-pass",
      [
        Alcotest.test_case "malformed inputs fail alike" `Quick
          test_parse_one_pass_malformed;
        Alcotest.test_case "presets and their step results" `Quick
          test_parse_one_pass_presets;
      ] );
    ( "definitions",
      [
        Alcotest.test_case "R on MIS" `Quick test_r_definition_mis;
        Alcotest.test_case "R on the family" `Quick test_r_definition_family;
        Alcotest.test_case "Rbar extensional" `Quick test_rbar_definition;
      ] );
    ( "theorem3-props",
      List.map (Qseed.to_alcotest) theorem3_qcheck );
    ( "transport-props",
      List.map (Qseed.to_alcotest) transport_qcheck );
    ( "invariants",
      List.map (Qseed.to_alcotest) invariant_qcheck );
  ]

let () =
  (* RELIM_CERTIFY=1 re-checks every engine output in this suite with
     the independent certifiers in lib/certify. *)
  Certify.Hooks.install_if_env ();
  (* RELIM_TRACE=<path> records an execution trace of the whole suite
     (the CI trace leg exercises this). *)
  Trace.setup_from_env ();
  Alcotest.run "relim" (main_suites @ extra_suites)
