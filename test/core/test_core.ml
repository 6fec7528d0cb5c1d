(* Tests for the paper's contribution: the Π_Δ(a,x) family, the
   mechanized lemmas, the lower-bound chains, and the bound formulas. *)

open Core
module Graph = Dsgraph.Graph
module Tree_gen = Dsgraph.Tree_gen
module Check = Dsgraph.Check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let params delta a x = { Family.delta; a; x }

(* ------------------------------------------------------------------ *)
(* Family                                                              *)
(* ------------------------------------------------------------------ *)

let test_pi_shape () =
  let p = Family.pi (params 8 6 1) in
  check_int "5 labels" 5 (Relim.Problem.label_count p);
  check_int "arity" 8 (Relim.Problem.delta p);
  check_int "3 node lines" 3 (List.length (Relim.Constr.lines p.node));
  (* k = 0 and a = Delta degenerate cases still build. *)
  ignore (Family.pi (params 4 4 0));
  ignore (Family.pi (params 4 0 4))

let test_pi_mis_special_case () =
  (* Pi_Delta(Delta, 0) restricted to the labels {M, P, O} matches the
     MIS encoding: M^Delta and P O^(Delta-1) node lines; the A-line
     A^Delta is the extra "own all edges" option, and X never helps
     when x = 0.  We check the M and P lines coincide with MIS. *)
  let pi = Family.pi (params 5 5 0) in
  let mis = Lcl.Encodings.mis ~delta:5 in
  let line_strings p =
    List.map
      (Relim.Line.to_string p.Relim.Problem.alpha)
      (Relim.Constr.lines p.Relim.Problem.node)
  in
  let pi_lines = line_strings pi in
  let mis_lines = line_strings mis in
  List.iter
    (fun ml -> check_bool ("pi contains " ^ ml) true (List.mem ml pi_lines))
    mis_lines

let test_pi_edge_constraint () =
  (* MM, PP, AA, PA, PO forbidden; MO, MA, MP, MX, OO, ... allowed. *)
  let p = Family.pi (params 4 3 1) in
  let l name = Relim.Alphabet.find p.alpha name in
  let pair a b = Relim.Multiset.of_list [ l a; l b ] in
  let mem a b = Relim.Constr.mem p.edge (pair a b) in
  check_bool "MM forbidden" false (mem "M" "M");
  check_bool "AA forbidden" false (mem "A" "A");
  check_bool "PP forbidden" false (mem "P" "P");
  check_bool "PA forbidden" false (mem "P" "A");
  check_bool "PO forbidden" false (mem "P" "O");
  List.iter
    (fun (a, b) -> check_bool (a ^ b ^ " allowed") true (mem a b))
    [ ("M", "P"); ("M", "O"); ("M", "A"); ("M", "X"); ("O", "O");
      ("O", "A"); ("O", "X"); ("P", "M"); ("P", "X"); ("A", "X");
      ("X", "X"); ("O", "M") ]

let test_family_edge_diagram_fig4 () =
  (* Figure 4: X is the unique top (everything else points to it);
     A -> O and P -> O?  From the constraint: N(P) = {M,X},
     N(A) = {M,O,X}, N(O) = {M,A,O,X}, N(M) = {P,A,O,X},
     N(X) = all.  So X >= everything; O >= A (N(A) ⊆ N(O));
     O vs M incomparable; A vs P: N(P) ⊆ N(A)? {M,X} ⊆ {M,O,X} yes,
     so A >= P, and O >= P by transitivity. *)
  let p = Family.pi (params 6 4 1) in
  let d = Relim.Diagram.edge_diagram p in
  let l name = Relim.Alphabet.find p.alpha name in
  let geq a b = Relim.Diagram.geq d (l a) (l b) in
  List.iter
    (fun (a, b) -> check_bool (a ^ " >= " ^ b) true (geq a b))
    [ ("X", "M"); ("X", "P"); ("X", "O"); ("X", "A"); ("O", "A");
      ("A", "P"); ("O", "P") ];
  List.iter
    (fun (a, b) -> check_bool (a ^ " not >= " ^ b) false (geq a b))
    [ ("M", "O"); ("O", "M"); ("M", "P"); ("P", "M"); ("A", "O");
      ("P", "A"); ("M", "X") ]

let test_pi_plus_shape () =
  let p = Family.pi_plus (params 8 6 1) in
  check_int "6 labels" 6 (Relim.Problem.label_count p);
  check_int "4 node lines" 4 (List.length (Relim.Constr.lines p.node));
  (* C compatible with exactly M, A, O, X. *)
  let l name = Relim.Alphabet.find p.alpha name in
  let mem a b = Relim.Constr.mem p.edge (Relim.Multiset.of_list [ l a; l b ]) in
  check_bool "CC forbidden" false (mem "C" "C");
  check_bool "CP forbidden" false (mem "C" "P");
  List.iter
    (fun b -> check_bool ("C" ^ b ^ " allowed") true (mem "C" b))
    [ "M"; "A"; "O"; "X" ]

let test_param_validation () =
  Alcotest.check_raises "a too large"
    (Invalid_argument "Family: need 0 <= a <= delta") (fun () ->
      ignore (Family.pi (params 4 5 0)));
  Alcotest.check_raises "pi_plus range"
    (Invalid_argument "Family: requires x + 2 <= a <= delta") (fun () ->
      ignore (Family.pi_plus (params 4 2 1)))

(* ------------------------------------------------------------------ *)
(* Lemma 6                                                             *)
(* ------------------------------------------------------------------ *)

let test_lemma6_exhaustive_small () =
  for delta = 3 to 7 do
    for x = 0 to delta - 2 do
      for a = x + 2 to delta do
        check_bool
          (Printf.sprintf "lemma6 D=%d a=%d x=%d" delta a x)
          true
          (Lemma6.holds (params delta a x))
      done
    done
  done

let test_lemma6_large_delta () =
  List.iter
    (fun (delta, a, x) ->
      check_bool
        (Printf.sprintf "lemma6 D=%d" delta)
        true
        (Lemma6.holds (params delta a x)))
    [ (32, 20, 3); (128, 64, 5); (1024, 700, 10); (4096, 100, 7) ]

let test_lemma6_renaming_is_paper_table () =
  let report = Lemma6.verify (params 8 6 1) in
  match report.renaming with
  | None -> Alcotest.fail "no renaming"
  | Some pairs ->
      (* The computed Galois labels, renamed, must match the paper's
         mapping: MX -> M, OX -> O, MOX -> U, AOX -> A, MAOX -> B,
         PAOX -> P, MPAOX -> Q, X -> X (names in computed problems sort
         members by alphabet index M,P,O,A,X... rendered sorted). *)
      let get computed = List.assoc computed pairs in
      check_bool "X" true (get "X" = "X");
      check_bool "MX" true (get "MX" = "M");
      check_bool "MPAOX -> Q is the full set" true
        (List.exists (fun (c, d) -> d = "Q" && String.length c = 5) pairs)

(* ------------------------------------------------------------------ *)
(* Lemma 8                                                             *)
(* ------------------------------------------------------------------ *)

let test_lemma8_symbolic_exhaustive_small () =
  for delta = 3 to 8 do
    for x = 0 to delta - 2 do
      for a = x + 2 to delta do
        let r = Lemma8.verify_symbolic (params delta a x) in
        check_bool
          (Printf.sprintf "lemma8 D=%d a=%d x=%d" delta a x)
          true (Lemma8.all_ok r)
      done
    done
  done

let test_lemma8_symbolic_large () =
  List.iter
    (fun (delta, a, x) ->
      check_bool
        (Printf.sprintf "lemma8 D=%d" delta)
        true
        (Lemma8.all_ok (Lemma8.verify_symbolic (params delta a x))))
    [ (256, 100, 4); (65536, 4096, 11); (1 lsl 20, 1 lsl 10, 17) ]

let test_lemma8_concrete () =
  List.iter
    (fun (delta, a, x) ->
      let r = Lemma8.verify_concrete (params delta a x) in
      check_bool
        (Printf.sprintf "concrete D=%d a=%d x=%d" delta a x)
        true
        (r.all_relax && r.pi_rel_is_pi_plus_c && r.boxes > 0))
    [ (3, 3, 1); (4, 3, 1); (4, 4, 2); (5, 4, 2) ]

let test_pi_rel_problem () =
  let p = Lemma8.pi_rel_problem (params 8 6 1) in
  check_int "6 labels" 6 (Relim.Problem.label_count p);
  check_bool "equals pi_plus" true
    (Relim.Iso.equal_up_to_renaming p (Family.pi_plus (params 8 6 1)))

(* ------------------------------------------------------------------ *)
(* Lemma 5                                                             *)
(* ------------------------------------------------------------------ *)

let test_lemma5_basic () =
  let g = Tree_gen.balanced ~delta:5 ~depth:3 in
  let k = 1 in
  let r = Distalgo.Kods.via_arbdefective g ~k in
  let labeling, rounds =
    Lemma5.convert g ~k ~a:3 r.Distalgo.Kods.selected r.Distalgo.Kods.orientation
  in
  check_int "one round" 1 rounds;
  check_bool "valid" true
    (Lcl.Labeling.is_valid ~boundary:`Extendable
       (Family.pi (params 5 3 1))
       labeling)

let test_lemma5_rejects_invalid () =
  let g = Tree_gen.path 4 in
  let bad = [| true; true; false; false |] in
  (* 0-outdegree DS with adjacent members and no orientation: invalid *)
  let o = Dsgraph.Orientation.make g [| -1; -1; -1 |] in
  Alcotest.check_raises "invalid input"
    (Invalid_argument "Lemma5.convert: not a k-outdegree dominating set")
    (fun () -> ignore (Lemma5.convert g ~k:0 ~a:1 bad o))

let lemma5_qcheck =
  [
    QCheck.Test.make ~name:"lemma5-pipeline-always-valid" ~count:15
      QCheck.(triple (int_range 4 100) (int_range 3 8) (int_range 0 3))
      (fun (n, max_degree, k) ->
        let g = Tree_gen.random ~n ~max_degree ~seed:(n * 5 + k) in
        let delta = Graph.max_degree g in
        (* A small random tree may realize a max degree below the
           requested k (e.g. a 4-node path has delta = 2); an
           outdegree bound above delta is meaningless and trips the
           Family parameter check inside the conversion. *)
        let k = min k delta in
        let r = Distalgo.Kods.via_arbdefective g ~k in
        let a = delta in
        let labeling, rounds =
          Lemma5.convert g ~k ~a r.Distalgo.Kods.selected
            r.Distalgo.Kods.orientation
        in
        rounds = 1
        && Lcl.Labeling.is_valid ~boundary:`Extendable
             (Family.pi (params delta a (min k delta)))
             labeling);
  ]

(* ------------------------------------------------------------------ *)
(* Lemma 9                                                             *)
(* ------------------------------------------------------------------ *)

let test_lemma9_arithmetic () =
  check_int "target" 2 (Lemma9.target_a ~a:8 ~x:1);
  check_int "threshold" 3 (Lemma9.threshold ~a:8);
  check_int "target 16,0" 7 (Lemma9.target_a ~a:16 ~x:0)

(* End-to-end: kODS -> Lemma 5 -> Pi -> Pi+ -> Lemma 9 -> next Pi. *)
let lemma9_chain_on g k =
  let delta = Graph.max_degree g in
  let a = delta in
  let r = Distalgo.Kods.via_arbdefective g ~k in
  let labeling, _ =
    Lemma5.convert g ~k ~a r.Distalgo.Kods.selected r.Distalgo.Kods.orientation
  in
  let p0 = params delta a k in
  let plus = Lemma9.pi_to_pi_plus p0 labeling in
  let ok_plus =
    Lcl.Labeling.is_valid ~boundary:`Free (Family.pi_plus p0) plus
  in
  let colors = Dsgraph.Edge_coloring.color_tree g in
  let next = Lemma9.convert p0 g colors plus in
  let p1 = params delta (Lemma9.target_a ~a ~x:k) (k + 1) in
  let ok_next = Lcl.Labeling.is_valid ~boundary:`Free (Family.pi p1) next in
  (ok_plus, ok_next, next, p1)

let test_lemma9_balanced () =
  let g = Tree_gen.balanced ~delta:8 ~depth:3 in
  let ok_plus, ok_next, _, _ = lemma9_chain_on g 0 in
  check_bool "pi+ valid" true ok_plus;
  check_bool "converted valid" true ok_next

let test_lemma9_no_aa_edges () =
  (* The heart of the lemma: the conversion can never produce an AA
     edge.  Check explicitly on a large instance. *)
  let g = Tree_gen.balanced ~delta:9 ~depth:3 in
  let _, ok, next, p1 = lemma9_chain_on g 1 in
  check_bool "valid" true ok;
  let target = Family.pi p1 in
  let a_lab = Relim.Alphabet.find target.alpha "A" in
  List.iter
    (fun (u, v) ->
      let e = Graph.edge_id g u (Graph.port_of g u v) in
      let lu = Lcl.Labeling.label_at next ~v:u ~e in
      let lv = Lcl.Labeling.label_at next ~v ~e in
      check_bool "no AA" false (lu = a_lab && lv = a_lab))
    (Graph.edges g)

let lemma9_qcheck =
  [
    QCheck.Test.make ~name:"lemma9-chain-always-valid" ~count:10
      QCheck.(pair (int_range 20 120) (int_range 0 1))
      (fun (n, k) ->
        (* Need 2x+1 <= target chain: max_degree >= 5 ensures a =
           Delta >= 2k+1 for k <= 1. *)
        let g = Tree_gen.random ~n ~max_degree:(6 + (n mod 3)) ~seed:(n * 11) in
        let delta = Graph.max_degree g in
        if delta < 2 * k + 3 then true
        else begin
          let _, ok, _, _ = lemma9_chain_on g k in
          ok
        end);
  ]

(* Exhaustive pipeline over every labeled tree on 6 nodes: k-ODS ->
   Lemma 5 -> Pi -> Pi+ -> Lemma 9 -> valid. *)
let test_lemma9_all_small_trees () =
  let checked = ref 0 in
  Tree_gen.all_trees 6 (fun g ->
      let delta = Graph.max_degree g in
      let k = 0 in
      if delta >= k + 2 && 2 * k + 1 <= delta then begin
        incr checked;
        let r = Distalgo.Kods.via_arbdefective g ~k in
        let labeling, _ =
          Lemma5.convert g ~k ~a:delta r.Distalgo.Kods.selected
            r.Distalgo.Kods.orientation
        in
        let p0 = params delta delta k in
        let plus = Lemma9.pi_to_pi_plus p0 labeling in
        let colors = Dsgraph.Edge_coloring.color_tree g in
        let next = Lemma9.convert p0 g colors plus in
        let p1 = params delta (Lemma9.target_a ~a:delta ~x:k) (k + 1) in
        if not (Lcl.Labeling.is_valid ~boundary:`Free (Family.pi p1) next) then
          Alcotest.failf "invalid conversion on a 6-node tree (Delta=%d)" delta
      end);
  check_int "covered every tree" 1296 !checked

let test_lemma9_all_trees7 () =
  let checked = ref 0 in
  Tree_gen.all_trees 7 (fun g ->
      let delta = Graph.max_degree g in
      List.iter
        (fun k ->
          if delta >= k + 2 && (2 * k) + 1 <= delta then begin
            incr checked;
            let r = Distalgo.Kods.via_arbdefective g ~k in
            let labeling, _ =
              Lemma5.convert g ~k ~a:delta r.Distalgo.Kods.selected
                r.Distalgo.Kods.orientation
            in
            let p0 = params delta delta k in
            let plus = Lemma9.pi_to_pi_plus p0 labeling in
            let colors = Dsgraph.Edge_coloring.color_tree g in
            let next = Lemma9.convert p0 g colors plus in
            let p1 = params delta (Lemma9.target_a ~a:delta ~x:k) (k + 1) in
            if
              not (Lcl.Labeling.is_valid ~boundary:`Free (Family.pi p1) next)
            then
              Alcotest.failf "invalid conversion on a 7-node tree (Delta=%d, k=%d)"
                delta k
          end)
        [ 0; 1 ]);
  check_bool "covered tens of thousands of cases" true (!checked > 25_000)

(* ------------------------------------------------------------------ *)
(* Lemma 11                                                            *)
(* ------------------------------------------------------------------ *)

let test_lemma11 () =
  let g = Tree_gen.balanced ~delta:6 ~depth:2 in
  let k = 1 in
  let r = Distalgo.Kods.via_arbdefective g ~k in
  let labeling, _ =
    Lemma5.convert g ~k ~a:6 r.Distalgo.Kods.selected r.Distalgo.Kods.orientation
  in
  let from_ = params 6 6 1 in
  let to_ = params 6 3 2 in
  let relaxed = Lemma11.relax ~from_ ~to_ labeling in
  check_bool "relaxed valid" true
    (Lcl.Labeling.is_valid ~boundary:`Free (Family.pi to_) relaxed);
  Alcotest.check_raises "wrong direction"
    (Invalid_argument "Lemma11.relax: requires a <= a' and x >= x'")
    (fun () -> ignore (Lemma11.relax ~from_:to_ ~to_:from_ labeling))

let lemma11_qcheck =
  [
    QCheck.Test.make ~name:"lemma11-relax-always-valid" ~count:12
      QCheck.(quad (int_range 10 60) (int_range 0 2) (int_range 0 3) (int_range 0 3))
      (fun (n, k, da, dx) ->
        let g = Tree_gen.random ~n ~max_degree:8 ~seed:(n * 23) in
        let delta = Graph.max_degree g in
        if delta < k + 1 then true
        else begin
          let r = Distalgo.Kods.via_arbdefective g ~k in
          let labeling, _ =
            Lemma5.convert g ~k ~a:delta r.Distalgo.Kods.selected
              r.Distalgo.Kods.orientation
          in
          let from_ = params delta delta k in
          let a = max 0 (delta - da) in
          let x = min delta (k + dx) in
          let to_ = params delta a x in
          let relaxed = Lemma11.relax ~from_ ~to_ labeling in
          Lcl.Labeling.is_valid ~boundary:`Free (Family.pi to_) relaxed
        end);
  ]

let zero_round_qcheck =
  [
    QCheck.Test.make ~name:"lemma12-range-exact" ~count:60
      QCheck.(triple (int_range 2 30) small_nat small_nat)
      (fun (delta, a0, x0) ->
        let a = a0 mod (delta + 1) and x = x0 mod (delta + 1) in
        let in_range = x <= delta - 1 && a >= 1 in
        Zero_round.deterministic_unsolvable (params delta a x) = in_range);
  ]

(* ------------------------------------------------------------------ *)
(* Zero round (Lemmas 12 and 15)                                       *)
(* ------------------------------------------------------------------ *)

let test_zero_round_family () =
  check_bool "standard params" true
    (Zero_round.deterministic_unsolvable (params 6 4 1));
  (* x = Delta: the M-line becomes X^Delta, solvable. *)
  check_bool "x = Delta solvable" false
    (Zero_round.deterministic_unsolvable (params 4 2 4));
  (* a = 0: the A-line becomes X^Delta, solvable. *)
  check_bool "a = 0 solvable" false
    (Zero_round.deterministic_unsolvable (params 4 0 1))

let test_zero_round_randomized () =
  (match Zero_round.randomized_failure_bound (params 6 4 1) with
  | Some b ->
      Alcotest.(check (float 1e-12)) "1/(3*6)^2" (1. /. 324.) b;
      check_bool "at least 1/Delta^8" true (b >= 1. /. (6. ** 8.))
  | None -> Alcotest.fail "expected bound");
  check_bool "none out of range" true
    (Zero_round.randomized_failure_bound (params 4 2 4) = None)

let test_witnesses () =
  let ws = Zero_round.self_incompatible_witnesses (params 5 3 1) in
  check_int "three configurations" 3 (List.length ws);
  Alcotest.(check (list string)) "witness labels" [ "M"; "A"; "P" ]
    (List.map snd ws)

(* ------------------------------------------------------------------ *)
(* Sequence (Lemma 13)                                                 *)
(* ------------------------------------------------------------------ *)

let test_sequence_values () =
  let chain = Sequence.build ~delta:64 ~x0:0 in
  check_int "length" 2 (Sequence.length chain);
  let steps = Array.of_list chain.steps in
  check_int "a0" 64 steps.(0).a;
  check_int "a1" 8 steps.(1).a;
  check_int "a2" 1 steps.(2).a;
  check_int "x2" 2 steps.(2).x

let test_sequence_verified () =
  List.iter
    (fun delta ->
      let chain = Sequence.build ~delta ~x0:0 in
      let checkr = Sequence.verify chain in
      check_bool
        (Printf.sprintf "chain D=%d verified" delta)
        true
        (Sequence.chain_ok checkr))
    [ 16; 64; 256; 1024; 8192 ]

let test_sequence_scaling () =
  (* t grows like log Delta: within [log2 D / 4, log2 D]. *)
  List.iter
    (fun e ->
      let delta = 1 lsl e in
      let t = Sequence.kods_pn_lower_bound ~delta ~k:0 in
      check_bool
        (Printf.sprintf "t(2^%d)=%d in range" e t)
        true
        (t >= (e / 4) - 1 && t <= e))
    [ 6; 10; 14; 20; 26; 40 ]

let test_sequence_monotone_in_delta () =
  let t d = Sequence.kods_pn_lower_bound ~delta:d ~k:0 in
  check_bool "monotone" true (t 64 <= t 512 && t 512 <= t 4096)

let test_sequence_k_dependence () =
  (* Larger k shortens (or keeps) the chain, never lengthens it. *)
  let t k = Sequence.kods_pn_lower_bound ~delta:4096 ~k in
  check_bool "k monotone" true (t 0 >= t 2 && t 2 >= t 8);
  check_bool "huge k kills the chain" true (t 2000 <= 1)

let test_sequence_trivial_delta () =
  (* Tiny Delta: no speedup steps, but the chain object still exists. *)
  let chain = Sequence.build ~delta:3 ~x0:0 in
  check_bool "non-negative" true (Sequence.length chain >= 0)

let test_optimal_chain () =
  (* The exact recurrence gives longer chains, still Theta(log Delta). *)
  List.iter
    (fun e ->
      let delta = 1 lsl e in
      let canon = Sequence.kods_pn_lower_bound ~delta ~k:0 in
      let opt = Sequence.optimal_length ~delta ~x0:0 in
      check_bool
        (Printf.sprintf "optimal >= canonical at 2^%d" e)
        true (opt >= canon);
      check_bool "still at most log2" true (opt <= e))
    [ 8; 12; 20; 30 ];
  (* Optimal chains satisfy the same mechanical certificates. *)
  let chain = Sequence.optimal ~delta:512 ~x0:0 in
  check_bool "optimal chain verified" true
    (Sequence.chain_ok (Sequence.verify chain))

(* ------------------------------------------------------------------ *)
(* k-degree dominating sets (the corollary reduction)                  *)
(* ------------------------------------------------------------------ *)

let test_kdeg_reduction () =
  let g = Tree_gen.random ~n:150 ~max_degree:8 ~seed:81 in
  List.iter
    (fun k ->
      let r = Distalgo.Kods.via_defective g ~k in
      check_bool
        (Printf.sprintf "k=%d reduction" k)
        true
        (Kdeg.reduction_valid g ~k r.Distalgo.Kods.selected))
    [ 0; 1; 2; 4 ]

let test_kdeg_pipeline () =
  let g = Tree_gen.balanced ~delta:6 ~depth:3 in
  let labeling, _ = Kdeg.pipeline g ~k:2 in
  check_bool "labeling valid" true
    (Lcl.Labeling.is_valid ~boundary:`Extendable
       (Family.pi (params 6 6 2))
       labeling)

let test_kdeg_negative () =
  (* The reduction claim is vacuous (hence true) for non-dominating
     sets, and the orientation only touches induced edges. *)
  let g = Tree_gen.path 4 in
  let sel = [| true; false; false; false |] in
  check_bool "vacuous" true (Kdeg.reduction_valid g ~k:0 sel);
  let o = Kdeg.orient_arbitrarily g [| true; true; false; true |] in
  check_bool "only induced edges" true
    (Dsgraph.Orientation.oriented o 0 && not (Dsgraph.Orientation.oriented o 1))

(* ------------------------------------------------------------------ *)
(* Master report                                                       *)
(* ------------------------------------------------------------------ *)

let test_paper_verify () =
  List.iter
    (fun (delta, k) ->
      let report = Paper.verify ~delta ~k () in
      check_bool
        (Printf.sprintf "paper verify D=%d k=%d" delta k)
        true (Paper.all_ok report))
    [ (64, 0); (256, 1); (1024, 2) ];
  let deep = Paper.verify ~concrete_lemma8:true ~delta:64 ~k:0 () in
  check_bool "with concrete cross-check" true (Paper.all_ok deep)

(* ------------------------------------------------------------------ *)
(* Theorem 14                                                          *)
(* ------------------------------------------------------------------ *)

let test_theorem14_certificate () =
  let cert = Theorem14.certify ~delta:1024 ~k:0 in
  check_bool "valid" true (Theorem14.valid cert);
  check_int "t" (Sequence.kods_pn_lower_bound ~delta:1024 ~k:0) cert.Theorem14.t;
  (* Conclusions evaluate and respect the min. *)
  let det = Theorem14.conclusion_det cert ~n:1e30 in
  check_bool "det positive" true (det > 0.);
  check_bool "det bounded by t" true (det <= float_of_int cert.Theorem14.t)

let test_theorem14_k_sweep () =
  List.iter
    (fun k ->
      let cert = Theorem14.certify ~delta:4096 ~k in
      check_bool (Printf.sprintf "k=%d valid" k) true (Theorem14.valid cert))
    [ 0; 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_log_star () =
  check_int "log* 1" 0 (Bounds.log_star 1.);
  check_int "log* 2" 1 (Bounds.log_star 2.);
  check_int "log* 16" 3 (Bounds.log_star 16.);
  check_int "log* 65536" 4 (Bounds.log_star 65536.);
  check_bool "log* 2^65536 is 5-ish" true (Bounds.log_star 1e300 <= 6)

let test_theorem1_shape () =
  (* For fixed n, the bound grows with Delta up to the crossover and
     then the log_Delta n term takes over. *)
  let n = 2. ** 30. in
  let small = Bounds.theorem1_det ~delta:8. ~n in
  let mid = Bounds.theorem1_det ~delta:(2. ** 5.) ~n in
  check_bool "increasing below crossover" true (small < mid);
  let huge = Bounds.theorem1_det ~delta:(2. ** 25.) ~n in
  check_bool "decreasing above crossover" true (huge < mid);
  (* At the Corollary-2 optimum the two terms balance. *)
  let delta_star = Bounds.best_delta_det ~n in
  let at_star = Bounds.corollary2_det ~delta:delta_star ~n in
  Alcotest.(check (float 1e-6)) "sqrt(log n)" (sqrt 30.) at_star

let test_improvement_over_prior () =
  (* This paper's log Delta beats [5]'s log Delta / loglog Delta. *)
  let delta = 2. ** 20. in
  let n = 2. ** 60. in
  check_bool "improvement" true
    (Bounds.corollary2_det ~delta ~n > Bounds.bbo20_det ~delta ~n)

let test_upper_vs_lower () =
  (* Upper bounds dominate the lower bounds everywhere we evaluate. *)
  List.iter
    (fun (delta, n) ->
      check_bool "MIS upper >= lower" true
        (Bounds.upper_mis ~delta ~n >= Bounds.theorem1_det ~delta ~n);
      check_bool "kods upper >= lower (k=2)" true
        (Bounds.upper_kods ~delta ~k:2. ~n
        >= Bounds.theorem1_det ~delta ~n))
    [ (8., 1e6); (64., 1e9); (1024., 1e12) ]

let bounds_qcheck =
  [
    QCheck.Test.make ~name:"theorem1-monotone-in-n" ~count:100
      QCheck.(pair (int_range 3 30) (int_range 20 200))
      (fun (dexp, nexp) ->
        let delta = 2. ** float_of_int dexp in
        let n1 = 2. ** float_of_int nexp in
        let n2 = 2. ** float_of_int (nexp + 5) in
        Bounds.theorem1_det ~delta ~n:n1 <= Bounds.theorem1_det ~delta ~n:n2
        && Bounds.theorem1_rand ~delta ~n:n1
           <= Bounds.theorem1_rand ~delta ~n:n2);
    QCheck.Test.make ~name:"rand-never-exceeds-det" ~count:100
      QCheck.(pair (int_range 3 30) (int_range 20 200))
      (fun (dexp, nexp) ->
        let delta = 2. ** float_of_int dexp in
        let n = 2. ** float_of_int nexp in
        Bounds.theorem1_rand ~delta ~n <= Bounds.theorem1_det ~delta ~n +. 1e-9);
    QCheck.Test.make ~name:"upper-dominates-lower" ~count:100
      QCheck.(triple (int_range 2 16) (int_range 20 100) (int_range 1 10))
      (fun (dexp, nexp, k) ->
        let delta = 2. ** float_of_int dexp in
        let n = 2. ** float_of_int nexp in
        Bounds.upper_kods ~delta ~k:(float_of_int k) ~n
        >= Bounds.theorem1_det ~delta ~n -. 1e-9);
  ]

let family_qcheck =
  [
    QCheck.Test.make ~name:"pi-always-5-labels-3-lines" ~count:100
      QCheck.(triple (int_range 1 200) small_nat small_nat)
      (fun (delta, a0, x0) ->
        let a = a0 mod (delta + 1) and x = x0 mod (delta + 1) in
        let p = Family.pi (params delta a x) in
        Relim.Problem.label_count p = 5
        && List.length (Relim.Constr.lines p.Relim.Problem.node) <= 3
        && List.length (Relim.Constr.lines p.Relim.Problem.edge) = 5);
    QCheck.Test.make ~name:"lemma6-random-params" ~count:25
      QCheck.(triple (int_range 3 40) small_nat small_nat)
      (fun (delta, a0, x0) ->
        let x = x0 mod (delta - 1) in
        let a = (x + 2) + (a0 mod (delta - x - 1)) in
        Lemma6.holds (params delta a x));
    QCheck.Test.make ~name:"lemma8-random-params" ~count:25
      QCheck.(triple (int_range 3 60) small_nat small_nat)
      (fun (delta, a0, x0) ->
        let x = x0 mod (delta - 1) in
        let a = (x + 2) + (a0 mod (delta - x - 1)) in
        Lemma8.all_ok (Lemma8.verify_symbolic (params delta a x)));
  ]

(* ------------------------------------------------------------------ *)
(* Growth ablation                                                     *)
(* ------------------------------------------------------------------ *)

let test_growth_blowup () =
  let mis = Lcl.Encodings.mis ~delta:3 in
  let trace = Growth.naive_iteration ~steps:3 ~max_labels:60 mis in
  (* Description sizes (not just labels) blow up: edge lines explode. *)
  (match trace.Growth.sizes with
  | first :: rest ->
      check_int "initial edge lines" 2 first.Growth.edge_lines;
      check_bool "edge lines explode" true
        (List.exists (fun s -> s.Growth.edge_lines > 50) rest)
  | [] -> Alcotest.fail "sizes missing");
  (match trace.label_counts with
  | 3 :: 6 :: rest ->
      check_bool "keeps growing" true
        (match rest with c :: _ -> c > 6 | [] -> true)
  | other ->
      Alcotest.failf "unexpected prefix: %s"
        (String.concat "," (List.map string_of_int other)));
  check_bool "exhausts budget" true (trace.stopped = `Exhausted_budget)

let test_family_stays_constant () =
  (* Every problem in the paper's chain uses exactly 5 labels. *)
  let chain = Sequence.build ~delta:1024 ~x0:0 in
  List.iter
    (fun { Sequence.a; x; _ } ->
      check_int "5 labels" 5
        (Relim.Problem.label_count (Family.pi (params 1024 a x))))
    chain.steps

let test_r_label_counts () =
  let mis = Lcl.Encodings.mis ~delta:3 in
  match Growth.r_label_counts ~steps:2 ~max_labels:60 mis with
  | 4 :: _ -> ()
  | other ->
      Alcotest.failf "expected R(MIS) to have 4 labels, got %s"
        (String.concat "," (List.map string_of_int other))

(* ------------------------------------------------------------------ *)
(* Golden snapshots: Pi_Delta(a,x) and its R image (Figs. 4 and 5)     *)
(* ------------------------------------------------------------------ *)

(* Snapshots live in test/core/golden/ (see test/support/golden.ml). *)
let check_golden = Golden.check ~suite:"core"

(* Two parameter points: the paper's running example Pi_8(6,1) and the
   Pi_5(4,2) instance the benchmarks use.  Four snapshots each: the
   serialized problem, the serialized R image, the edge diagram of Pi
   (Fig. 4), and the node diagram of R(Pi) (Fig. 5). *)
let golden_family_point ~delta ~a ~x () =
  let tag = Printf.sprintf "pi_%d_%d_%d" delta a x in
  let p = Family.pi (params delta a x) in
  check_golden tag (Relim.Serialize.to_string p);
  check_golden
    (tag ^ "_edge_diagram")
    (Format.asprintf "%a" Relim.Diagram.pp (Relim.Diagram.edge_diagram p));
  let { Relim.Rounde.problem = rp; _ } = Relim.Rounde.r p in
  check_golden (tag ^ "_r") (Relim.Serialize.to_string rp);
  check_golden
    (tag ^ "_r_node_diagram")
    (Format.asprintf "%a" Relim.Diagram.pp (Relim.Diagram.node_diagram rp))

let () =
  (* RELIM_CERTIFY=1 re-checks every engine output in this suite with
     the independent certifiers in lib/certify. *)
  Certify.Hooks.install_if_env ();
  (* RELIM_TRACE=<path> records an execution trace of the whole suite
     (the CI trace leg exercises this). *)
  Trace.setup_from_env ();
  let qsuite name tests =
    (name, List.map (Qseed.to_alcotest) tests)
  in
  Alcotest.run "core"
    [
      ( "family",
        [
          Alcotest.test_case "pi shape" `Quick test_pi_shape;
          Alcotest.test_case "MIS special case" `Quick test_pi_mis_special_case;
          Alcotest.test_case "edge constraint" `Quick test_pi_edge_constraint;
          Alcotest.test_case "edge diagram (Fig 4)" `Quick
            test_family_edge_diagram_fig4;
          Alcotest.test_case "pi+ shape" `Quick test_pi_plus_shape;
          Alcotest.test_case "validation" `Quick test_param_validation;
        ] );
      ( "lemma6",
        [
          Alcotest.test_case "exhaustive small Delta" `Slow
            test_lemma6_exhaustive_small;
          Alcotest.test_case "large Delta" `Quick test_lemma6_large_delta;
          Alcotest.test_case "paper renaming" `Quick
            test_lemma6_renaming_is_paper_table;
        ] );
      ( "lemma8",
        [
          Alcotest.test_case "symbolic exhaustive small" `Slow
            test_lemma8_symbolic_exhaustive_small;
          Alcotest.test_case "symbolic large Delta" `Quick
            test_lemma8_symbolic_large;
          Alcotest.test_case "concrete engine" `Slow test_lemma8_concrete;
          Alcotest.test_case "pi_rel = pi_plus" `Quick test_pi_rel_problem;
        ] );
      ( "lemma5",
        [
          Alcotest.test_case "basic" `Quick test_lemma5_basic;
          Alcotest.test_case "rejects invalid" `Quick test_lemma5_rejects_invalid;
        ] );
      qsuite "lemma5-props" lemma5_qcheck;
      ( "lemma9",
        [
          Alcotest.test_case "arithmetic" `Quick test_lemma9_arithmetic;
          Alcotest.test_case "balanced tree" `Quick test_lemma9_balanced;
          Alcotest.test_case "no AA edges" `Quick test_lemma9_no_aa_edges;
        ] );
      qsuite "lemma9-props" lemma9_qcheck;
      ( "lemma9-exhaustive",
        [
          Alcotest.test_case "all 6-node trees" `Slow
            test_lemma9_all_small_trees;
          Alcotest.test_case "all 7-node trees, k=0 and k=1" `Slow
            test_lemma9_all_trees7;
        ] );
      ("lemma11", [ Alcotest.test_case "relax" `Quick test_lemma11 ]);
      qsuite "lemma11-props" lemma11_qcheck;
      qsuite "lemma12-props" zero_round_qcheck;
      ( "zero-round",
        [
          Alcotest.test_case "deterministic" `Quick test_zero_round_family;
          Alcotest.test_case "randomized" `Quick test_zero_round_randomized;
          Alcotest.test_case "witnesses" `Quick test_witnesses;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "values" `Quick test_sequence_values;
          Alcotest.test_case "verified chains" `Slow test_sequence_verified;
          Alcotest.test_case "scaling" `Quick test_sequence_scaling;
          Alcotest.test_case "monotone in Delta" `Quick
            test_sequence_monotone_in_delta;
          Alcotest.test_case "k dependence" `Quick test_sequence_k_dependence;
          Alcotest.test_case "trivial Delta" `Quick test_sequence_trivial_delta;
          Alcotest.test_case "optimal chain" `Quick test_optimal_chain;
        ] );
      ( "kdeg",
        [
          Alcotest.test_case "reduction" `Quick test_kdeg_reduction;
          Alcotest.test_case "pipeline" `Quick test_kdeg_pipeline;
          Alcotest.test_case "negative" `Quick test_kdeg_negative;
        ] );
      ( "paper",
        [ Alcotest.test_case "master report" `Slow test_paper_verify ] );
      ( "theorem14",
        [
          Alcotest.test_case "certificate" `Quick test_theorem14_certificate;
          Alcotest.test_case "k sweep" `Slow test_theorem14_k_sweep;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "log*" `Quick test_log_star;
          Alcotest.test_case "theorem 1 shape" `Quick test_theorem1_shape;
          Alcotest.test_case "improvement over FOCS'20" `Quick
            test_improvement_over_prior;
          Alcotest.test_case "upper vs lower" `Quick test_upper_vs_lower;
        ] );
      qsuite "bounds-props" bounds_qcheck;
      qsuite "family-props" family_qcheck;
      ( "growth",
        [
          Alcotest.test_case "naive blow-up" `Quick test_growth_blowup;
          Alcotest.test_case "family stays at 5" `Quick
            test_family_stays_constant;
          Alcotest.test_case "R label counts" `Quick test_r_label_counts;
        ] );
      ( "golden",
        [
          Alcotest.test_case "Pi_8(6,1) and R image" `Quick
            (golden_family_point ~delta:8 ~a:6 ~x:1);
          Alcotest.test_case "Pi_5(4,2) and R image" `Quick
            (golden_family_point ~delta:5 ~a:4 ~x:2);
        ] );
    ]
