(* Benchmark / reproduction harness.

   One section per paper artifact (figure, lemma, theorem or claim),
   following the per-experiment index of DESIGN.md; EXPERIMENTS.md
   records expected-vs-produced for each section.

   Run with:  dune exec bench/main.exe            (everything)
              dune exec bench/main.exe -- fig1 lemma13   (a selection) *)

module Graph = Dsgraph.Graph
module Tree_gen = Dsgraph.Tree_gen

let section id title = Format.printf "@.===== [%s] %s =====@." id title

let result fmt = Format.printf fmt

let count sel = Array.fold_left (fun acc b -> acc + if b then 1 else 0) 0 sel

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — the MIS edge diagram                                 *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "F1" "Figure 1: edge diagram of the MIS encoding";
  let mis = Lcl.Encodings.mis ~delta:3 in
  let d = Relim.Diagram.edge_diagram mis in
  result "computed Hasse edges (weaker -> stronger):@.%a@." Relim.Diagram.pp d;
  result "paper: single relation P -> O, M unrelated.@."

(* ------------------------------------------------------------------ *)
(* F2/F3: Figures 2 and 3 — example instance and labeling of the       *)
(* family (a = x = 2, Delta = 4)                                       *)
(* ------------------------------------------------------------------ *)

let fig23 () =
  section "F2/F3" "Figures 2-3: a valid Pi_4(2,2) labeling on a Delta=4 tree";
  let g = Tree_gen.balanced ~delta:4 ~depth:3 in
  let delta = 4 and k = 2 in
  let r = Distalgo.Kods.via_arbdefective g ~k in
  let labeling, _ =
    Core.Lemma5.convert g ~k ~a:2 r.Distalgo.Kods.selected
      r.Distalgo.Kods.orientation
  in
  let params = { Core.Family.delta; a = 2; x = 2 } in
  let valid =
    Lcl.Labeling.is_valid ~boundary:`Extendable (Core.Family.pi params) labeling
  in
  result "tree: n = %d, Delta = %d; labeling valid for Pi(2,2): %b@."
    (Graph.n g) delta valid;
  let type1 = count r.Distalgo.Kods.selected in
  result
    "type-1 (dominating set) nodes: %d; type-2/3 nodes: %d — every node\n\
     dominated, induced edges oriented with outdegree <= %d (paper Fig. 3).@."
    type1
    (Graph.n g - type1)
    k

(* ------------------------------------------------------------------ *)
(* F4: Figure 4 — edge diagram of Pi_Delta(a, x)                       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "F4" "Figure 4: edge diagram of Pi_Delta(a,x)";
  let pi = Core.Family.pi { delta = 8; a = 6; x = 1 } in
  result "computed:@.%a@." Relim.Diagram.pp (Relim.Diagram.edge_diagram pi);
  result "paper: P -> A -> O -> X and M -> X (X strongest).@."

(* ------------------------------------------------------------------ *)
(* F5: Figure 5 — node diagram of R(Pi_Delta(a, x))                    *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "F5" "Figure 5: node diagram of R(Pi_Delta(a,x))";
  let claimed = Core.Family.r_pi_claimed { delta = 8; a = 6; x = 1 } in
  result "computed (exact expansion):@.%a@." Relim.Diagram.pp
    (Relim.Diagram.node_diagram claimed);
  result
    "paper: two chains X -> M -> U -> B -> Q and X -> O -> [U,A], A -> [B,P] -> Q.@."

(* ------------------------------------------------------------------ *)
(* L6: Lemma 6 verification sweep                                      *)
(* ------------------------------------------------------------------ *)

let lemma6 () =
  section "L6" "Lemma 6: R(Pi_Delta(a,x)) equals the claimed 8-label problem";
  let total = ref 0 and ok = ref 0 in
  for delta = 3 to 9 do
    for x = 0 to delta - 2 do
      for a = x + 2 to delta do
        incr total;
        if Core.Lemma6.holds { Core.Family.delta; a; x } then incr ok
      done
    done
  done;
  result "exhaustive 3 <= Delta <= 9: %d/%d parameter triples verified@." !ok
    !total;
  let spot =
    [ (64, 32, 3); (512, 300, 5); (4096, 1000, 9); (32768, 4096, 12) ]
  in
  List.iter
    (fun (delta, a, x) ->
      result "spot check Delta=%-6d a=%-5d x=%-3d : %b@." delta a x
        (Core.Lemma6.holds { Core.Family.delta; a; x }))
    spot

(* ------------------------------------------------------------------ *)
(* L8: Lemma 8 verification                                            *)
(* ------------------------------------------------------------------ *)

let lemma8 () =
  section "L8" "Lemma 8: Pi+ is one round easier (symbolic + concrete)";
  let total = ref 0 and ok = ref 0 in
  for delta = 3 to 10 do
    for x = 0 to delta - 2 do
      for a = x + 2 to delta do
        incr total;
        if
          Core.Lemma8.all_ok
            (Core.Lemma8.verify_symbolic { Core.Family.delta; a; x })
        then incr ok
      done
    done
  done;
  result "symbolic certificate, exhaustive 3 <= Delta <= 10: %d/%d@." !ok !total;
  List.iter
    (fun (delta, a, x) ->
      result "symbolic at Delta = 2^%d: %b@."
        (int_of_float (Float.round (Core.Bounds.log2 (float_of_int delta))))
        (Core.Lemma8.all_ok
           (Core.Lemma8.verify_symbolic { Core.Family.delta; a; x })))
    [ (1 lsl 10, 1 lsl 7, 5); (1 lsl 16, 1 lsl 10, 9); (1 lsl 20, 1 lsl 12, 13) ];
  List.iter
    (fun (delta, a, x) ->
      let r = Core.Lemma8.verify_concrete { Core.Family.delta; a; x } in
      result
        "full Rbar(R(Pi)) at (Delta=%d, a=%d, x=%d): %d node configurations, all relax: %b@."
        delta a x r.boxes r.all_relax)
    [ (3, 3, 1); (4, 3, 1); (4, 4, 2); (5, 4, 2) ]

(* ------------------------------------------------------------------ *)
(* L9: Lemma 9 — the edge-coloring conversion, executed                *)
(* ------------------------------------------------------------------ *)

let lemma9 () =
  section "L9" "Lemma 9: 0-round conversion via the input Delta-edge coloring";
  List.iter
    (fun (delta, depth, k) ->
      let g = Tree_gen.balanced ~delta ~depth in
      let r = Distalgo.Kods.via_arbdefective g ~k in
      let labeling, _ =
        Core.Lemma5.convert g ~k ~a:delta r.Distalgo.Kods.selected
          r.Distalgo.Kods.orientation
      in
      let params = { Core.Family.delta; a = delta; x = k } in
      let colors = Dsgraph.Edge_coloring.color_tree g in
      let plus = Core.Lemma9.pi_to_pi_plus params labeling in
      let converted = Core.Lemma9.convert params g colors plus in
      let target =
        { Core.Family.delta;
          a = Core.Lemma9.target_a ~a:delta ~x:k;
          x = k + 1 }
      in
      let valid =
        Lcl.Labeling.is_valid ~boundary:`Free (Core.Family.pi target) converted
      in
      result
        "Delta=%2d depth=%d k=%d (n=%5d): Pi(%d,%d) -> Pi(%d,%d) conversion valid: %b@."
        delta depth k (Graph.n g) delta k target.Core.Family.a
        target.Core.Family.x valid)
    [ (8, 3, 0); (8, 3, 1); (12, 3, 2); (16, 3, 1); (24, 2, 3) ]

(* ------------------------------------------------------------------ *)
(* L12/L15: zero-round impossibility                                   *)
(* ------------------------------------------------------------------ *)

let lemma12_15 () =
  section "L12/L15" "Lemmas 12 and 15: 0-round impossibility in the PN model";
  result "Delta    a     x  | det-unsolvable  rand-failure-bound  >= 1/Delta^8@.";
  List.iter
    (fun (delta, a, x) ->
      let params = { Core.Family.delta; a; x } in
      let det = Core.Zero_round.deterministic_unsolvable params in
      match Core.Zero_round.randomized_failure_bound params with
      | Some b ->
          result "%-8d %-5d %-2d |      %b        %10.3g        %b@." delta a x
            det b
            (b >= 1. /. (float_of_int delta ** 8.))
      | None -> result "%-8d %-5d %-2d |      %b        (solvable)@." delta a x det)
    [ (4, 2, 1); (8, 6, 1); (16, 8, 2); (64, 32, 4); (1024, 128, 7);
      (* boundary cases where 0 rounds suffice: *)
      (4, 2, 4); (4, 0, 1) ]

(* ------------------------------------------------------------------ *)
(* L13: the chain-length table                                         *)
(* ------------------------------------------------------------------ *)

let lemma13 () =
  section "L13" "Lemma 13: lower-bound chains, length vs Delta (the log Delta law)";
  result "Delta        t(k=0)  t(k=1)  t(k=4)  t(k=16)  log2(Delta)  t/log2(Delta)@.";
  List.iter
    (fun e ->
      let delta = 1 lsl e in
      let t k = Core.Sequence.kods_pn_lower_bound ~delta ~k in
      result "2^%-10d %5d  %5d  %5d  %6d  %10d  %12.3f@." e (t 0) (t 1) (t 4)
        (t 16) e
        (float_of_int (t 0) /. float_of_int e))
    [ 4; 6; 8; 10; 12; 16; 20; 24; 30; 40; 50 ];
  result "@.mechanical verification of every link (engine + certificates):@.";
  List.iter
    (fun delta ->
      let chain = Core.Sequence.build ~delta ~x0:0 in
      let check = Core.Sequence.verify chain in
      result "Delta = %-6d: %d steps, verified = %b@." delta
        (Core.Sequence.length chain)
        (Core.Sequence.chain_ok check))
    [ 16; 64; 256; 1024; 4096; 16384 ]

(* ------------------------------------------------------------------ *)
(* T1: Theorem 1 / Corollary 2 bound tables                            *)
(* ------------------------------------------------------------------ *)

let theorem1 () =
  section "T1" "Theorem 1 and Corollary 2: the lifted LOCAL-model bounds";
  result "lower bounds (constants = 1), deterministic / randomized:@.";
  result "  n        Delta     Thm1-det  Thm1-rand   Cor2-det  Cor2-rand@.";
  List.iter
    (fun (n, dexp) ->
      let delta = 2. ** float_of_int dexp in
      result "  %8.0e 2^%-7d %8.2f  %8.2f  %9.2f  %9.2f@." n dexp
        (Core.Bounds.theorem1_det ~delta ~n)
        (Core.Bounds.theorem1_rand ~delta ~n)
        (Core.Bounds.corollary2_det ~delta ~n)
        (Core.Bounds.corollary2_rand ~delta ~n))
    [ (1e6, 4); (1e6, 10); (1e9, 6); (1e9, 16); (1e18, 8); (1e18, 24) ];
  result "@.the Corollary 2 sweet spot Delta* = 2^sqrt(log n):@.";
  List.iter
    (fun n ->
      let d = Core.Bounds.best_delta_det ~n in
      result "  n = %8.0e: Delta* = %10.0f, bound = sqrt(log n) = %6.2f@." n d
        (Core.Bounds.corollary2_det ~delta:d ~n))
    [ 1e6; 1e12; 1e30 ]

(* ------------------------------------------------------------------ *)
(* C1: comparison with prior lower bounds                              *)
(* ------------------------------------------------------------------ *)

let comparison () =
  section "C1" "Improvement over prior work (Section 1.1)";
  result
    "this paper: Omega(log D) vs FOCS'20 [5]: Omega(log D / loglog D) — in trees@.";
  result "  Delta      this-det   BBO20-det   ratio@.";
  List.iter
    (fun e ->
      let delta = 2. ** float_of_int e in
      let n = 1e300 in
      (* so the Delta term is the minimum *)
      let ours = Core.Bounds.corollary2_det ~delta ~n in
      let prior = Core.Bounds.bbo20_det ~delta ~n in
      result "  2^%-8d %9.1f  %9.1f  %7.2f@." e ours prior (ours /. prior))
    [ 8; 12; 16; 24; 32; 48 ];
  result
    "@.general graphs [4,15] (b-matching, b = 1) still stronger in Delta, weaker in n:@.";
  List.iter
    (fun (dexp, n) ->
      let delta = 2. ** float_of_int dexp in
      result
        "  Delta = 2^%-3d n = %8.0e : trees (ours) %6.1f vs general-graphs %8.1f@."
        dexp n
        (Core.Bounds.theorem1_det ~delta ~n)
        (Core.Bounds.bbhors_det ~delta ~b:1. ~n))
    [ (4, 1e9); (10, 1e9); (16, 1e9) ]

(* ------------------------------------------------------------------ *)
(* C2: measured upper bounds vs the lower-bound curve                  *)
(* ------------------------------------------------------------------ *)

let upper_vs_lower () =
  section "C2" "Measured algorithm rounds vs the paper's lower bound";
  result
    "trees, measured on the simulator (selection stage for kODS; CV = full schedule):@.";
  result
    "  n      Delta | Luby  CV+greedy | kODS rounds (k=1, k=2, k=4) | Thm1-det lower@.";
  List.iter
    (fun (n, max_degree, seed) ->
      let g = Tree_gen.random ~n ~max_degree ~seed in
      let delta = Graph.max_degree g in
      let _, luby = Distalgo.Luby.run ~seed g in
      let _, cv = Distalgo.Kods.mis_on_tree g ~root:0 in
      let kods k = (Distalgo.Kods.via_arbdefective g ~k).Distalgo.Kods.rounds in
      result "  %-6d %-4d | %4d  %9d | %10d %4d %4d          | %14.1f@." n delta
        luby cv (kods 1) (kods 2) (kods 4)
        (Core.Bounds.theorem1_det ~delta:(float_of_int delta)
           ~n:(float_of_int n)))
    [ (1000, 4, 1); (1000, 8, 2); (4000, 8, 3); (4000, 16, 4); (16000, 16, 5) ];
  result
    "@.fully distributed MIS on general graphs (Linial O(Delta^2+log* n) + selection):@.";
  result "  graph              n    Delta | rounds (Linial fixpoint dominates)@.";
  List.iter
    (fun (name, g) ->
      let _, rounds = Distalgo.Kods.mis_via_linial g in
      result "  %-16s %5d  %3d  | %6d@." name (Graph.n g) (Graph.max_degree g)
        rounds)
    [
      ("cycle", Graph.of_edges ~n:500 (List.init 500 (fun i -> (i, (i + 1) mod 500))));
      ("random tree D=4", Tree_gen.random ~n:2000 ~max_degree:4 ~seed:21);
      ("random tree D=8", Tree_gen.random ~n:2000 ~max_degree:8 ~seed:22);
      ("4-reg bipartite", fst (Tree_gen.regular_bipartite ~delta:4 ~half:250 ~seed:23));
    ];
  result
    "@.the Delta/k palette law (generic algorithm, worst-case palette, balanced tree Delta=48):@.";
  let g = Tree_gen.balanced ~delta:48 ~depth:2 in
  result "  k    | palette  selection-rounds  (expect ~ Delta/(k+1) + 1)@.";
  List.iter
    (fun k ->
      let r = Distalgo.Kods.via_round_robin g ~k ~root:0 in
      result "  %-4d | %7d  %16d@." k r.Distalgo.Kods.palette
        r.Distalgo.Kods.rounds)
    [ 1; 2; 3; 5; 7; 11; 15; 23; 47 ];
  result
    "@.shape check: kODS selection rounds shrink as 1/k, matching the@.";
  result "O(Delta/k + log* n) upper bound of Section 1.1.@."

(* ------------------------------------------------------------------ *)
(* A1: the label-growth ablation                                       *)
(* ------------------------------------------------------------------ *)

let ablation_growth () =
  section "A1" "Ablation: naive round elimination blows up; the family stays at 5 labels";
  let mis = Lcl.Encodings.mis ~delta:3 in
  let trace = Core.Growth.naive_iteration ~steps:4 ~max_labels:60 mis in
  result "naive speedup steps on MIS (Delta=3): labels %s%s@."
    (String.concat " -> " (List.map string_of_int trace.label_counts))
    (match trace.stopped with
    | `Exhausted_budget -> " -> (budget exhausted: combinatorial blow-up)"
    | `Completed -> "");
  List.iter
    (fun { Core.Growth.labels; node_lines; edge_lines } ->
      result "  description: %2d labels, %3d node lines, %3d edge lines@."
        labels node_lines edge_lines)
    trace.Core.Growth.sizes;
  let r_counts = Core.Growth.r_label_counts ~steps:2 ~max_labels:60 mis in
  result "intermediate R(.) label counts: %s@."
    (String.concat " -> " (List.map string_of_int r_counts));
  let chain = Core.Sequence.build ~delta:4096 ~x0:0 in
  let labels =
    List.map
      (fun { Core.Sequence.a; x; _ } ->
        Relim.Problem.label_count (Core.Family.pi { Core.Family.delta = 4096; a; x }))
      chain.Core.Sequence.steps
  in
  result "the paper's chain at Delta = 4096: labels per step: %s@."
    (String.concat ", " (List.map string_of_int labels));
  result
    "(the FOCS'20 authors believed no constant-label sequence existed; this is the paper's refutation)@."

(* ------------------------------------------------------------------ *)
(* A2: Lemma 5 pipeline                                                *)
(* ------------------------------------------------------------------ *)

let lemma5_pipeline () =
  section "A2" "Lemma 5: k-outdegree dominating set -> Pi_Delta(a,k) in one round";
  List.iter
    (fun (n, max_degree, k, seed) ->
      let g = Tree_gen.random ~n ~max_degree ~seed in
      let delta = Graph.max_degree g in
      let r = Distalgo.Kods.via_arbdefective g ~k in
      let _, rounds =
        Core.Lemma5.convert g ~k ~a:delta r.Distalgo.Kods.selected
          r.Distalgo.Kods.orientation
      in
      result
        "n=%-6d Delta=%-3d k=%d: |S|=%-5d -> valid Pi(%d,%d) labeling in %d round@."
        n delta k
        (count r.Distalgo.Kods.selected)
        delta k rounds)
    [ (500, 6, 0, 1); (2000, 8, 1, 2); (2000, 12, 2, 3); (8000, 16, 4, 4) ];
  result
    "@.k-degree variant (the corollary: orient induced edges arbitrarily):@.";
  List.iter
    (fun (delta, depth, k) ->
      let g = Tree_gen.balanced ~delta ~depth in
      let labeling, rounds = Core.Kdeg.pipeline g ~k in
      let valid =
        Lcl.Labeling.is_valid ~boundary:`Extendable
          (Core.Family.pi { Core.Family.delta; a = delta; x = k })
          labeling
      in
      result "Delta=%-3d k=%d: k-degree DS -> oriented -> Pi(%d,%d) valid: %b (%d selection rounds)@."
        delta k delta k valid rounds)
    [ (6, 3, 1); (8, 3, 2); (12, 2, 3) ]

(* ------------------------------------------------------------------ *)
(* L15E: Monte-Carlo check of the Lemma 15 failure bound               *)
(* ------------------------------------------------------------------ *)

(* Lemma 15's adversary: both endpoints of a color-i edge see port i.
   Any randomized 0-round algorithm is a distribution over (allowed
   configuration, assignment of its labels to ports).  For the natural
   uniform algorithm we estimate, by sampling, the probability that a
   single edge receives an incompatible label pair, and compare with
   the proven lower bound 1/(3Delta)^2 — the estimate must dominate it. *)
let lemma15_mc () =
  section "L15E"
    "Monte-Carlo: single-edge failure of the uniform random 0-round algorithm";
  let trials = 200_000 in
  result "uniform over (configuration, port assignment); %d trials per row@."
    trials;
  result "Delta  a   x  | estimated edge-failure  proven bound 1/(3D)^2  ok@.";
  List.iter
    (fun (delta, a, x) ->
      let p = Core.Family.pi { Core.Family.delta; a; x } in
      let rng = Random.State.make [| delta; a; x; 0xfa11 |] in
      (* Expand node configurations (the family's are concrete). *)
      let configs =
        List.map
          (fun line ->
            match Relim.Line.to_multiset line with
            | Some m -> Array.of_list (Relim.Multiset.to_list m)
            | None -> failwith "family lines are concrete")
          (Relim.Constr.lines p.node)
      in
      let configs = Array.of_list configs in
      let compat =
        let n = Relim.Alphabet.size p.alpha in
        let matrix = Array.make_matrix n n false in
        List.iter
          (fun line ->
            Relim.Line.expand line (fun m ->
                match Relim.Multiset.to_list m with
                | [ u; v ] ->
                    matrix.(u).(v) <- true;
                    matrix.(v).(u) <- true
                | _ -> assert false))
          (Relim.Constr.lines p.edge);
        matrix
      in
      let sample_port_label () =
        (* One node's random output at a fixed port (port 0 wlog, by
           symmetry of the uniform assignment). *)
        let config = configs.(Random.State.int rng (Array.length configs)) in
        config.(Random.State.int rng (Array.length config))
      in
      let failures = ref 0 in
      for _ = 1 to trials do
        let lu = sample_port_label () and lv = sample_port_label () in
        if not compat.(lu).(lv) then incr failures
      done;
      let estimate = float_of_int !failures /. float_of_int trials in
      let bound = 1. /. (9. *. float_of_int (delta * delta)) in
      result "%-6d %-3d %-2d | %20.5f  %20.5f  %b@." delta a x estimate bound
        (estimate >= bound))
    [ (4, 3, 1); (8, 6, 1); (16, 10, 2); (32, 16, 3) ]

(* ------------------------------------------------------------------ *)
(* T14: Theorem 14 certificates                                        *)
(* ------------------------------------------------------------------ *)

let theorem14 () =
  section "T14" "Theorem 14: lift certificates (PN chain -> LOCAL bound)";
  List.iter
    (fun (delta, k) ->
      let cert = Core.Theorem14.certify ~delta ~k in
      result
        "Delta=%-6d k=%d: t=%2d, links=%b, labels<=D^2=%b, Lemma15-bounds=%b  => valid=%b@."
        delta k cert.Core.Theorem14.t cert.Core.Theorem14.links_verified
        cert.Core.Theorem14.label_budget_ok cert.Core.Theorem14.failure_bounds_ok
        (Core.Theorem14.valid cert))
    [ (256, 0); (1024, 0); (1024, 2); (4096, 0); (16384, 1); (65536, 4) ];
  result "@.master reports (Paper.verify — everything at once):@.";
  List.iter
    (fun (delta, k) ->
      let report = Core.Paper.verify ~delta ~k () in
      result "  Delta=%-6d k=%d: all OK = %b (chain %d, constructive pipeline %b)@."
        delta k (Core.Paper.all_ok report) report.Core.Paper.chain_length
        report.Core.Paper.constructive_pipeline_ok)
    [ (256, 0); (4096, 2) ];
  let cert = Core.Theorem14.certify ~delta:1024 ~k:0 in
  result "@.conclusions at Delta = 1024, k = 0:@.";
  List.iter
    (fun n ->
      result "  n = %8.0e: det >= %5.2f  rand >= %5.2f@." n
        (Core.Theorem14.conclusion_det cert ~n)
        (Core.Theorem14.conclusion_rand cert ~n))
    [ 1e6; 1e9; 1e15; 1e30 ]

(* ------------------------------------------------------------------ *)
(* FP: the fixed-point technique (Section 1.2 taxonomy)                *)
(* ------------------------------------------------------------------ *)

let fixed_points () =
  section "FP"
    "Section 1.2 taxonomy: the fixed-point technique on sinkless orientation";
  let so = Lcl.Encodings.sinkless_orientation ~delta:3 in
  (match Relim.Fixedpoint.detect so with
  | Relim.Fixedpoint.Reaches_fixed_point (steps, fp) ->
      result "sinkless orientation stabilizes after %d step(s):@.%a@." steps
        Relim.Problem.pp fp;
      Option.iter (result "=> %s@.")
        (Relim.Fixedpoint.lower_bound_statement
           (Relim.Fixedpoint.Reaches_fixed_point (steps, fp)))
  | Relim.Fixedpoint.Fixed_point (fp, _) ->
      result "sinkless orientation is itself a fixed point:@.%a@."
        Relim.Problem.pp fp
  | Relim.Fixedpoint.No_fixed_point_found _ ->
      result "UNEXPECTED: no fixed point found@.");
  result
    "@.MIS, by contrast, admits no small fixed point — the naive iteration@.";
  result
    "blows up (section A1), which is why the paper needs the Pi(a,x) family.@."

(* ------------------------------------------------------------------ *)
(* SYN: exhaustive algorithm synthesis on the Lemma-12 adversary       *)
(* ------------------------------------------------------------------ *)

let synthesis () =
  section "SYN"
    "Machine-checked Lemma 12: exhausting ALL T-round algorithms on mirrored instances";
  let mirrored_cycle n =
    let g = Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n))) in
    let colors = Array.init n (fun e -> e mod 2) in
    match Dsgraph.Edge_coloring.mirrored_ports g colors with
    | Some gm -> { Localsim.Synthesis.graph = gm; edge_colors = Some colors }
    | None -> failwith "mirroring failed"
  in
  let instance = mirrored_cycle 8 in
  let report name problem =
    List.iter
      (fun radius ->
        let verdict =
          Localsim.Synthesis.search ~radius problem [ instance ]
        in
        result "%-14s T = %d: %s@." name radius
          (match verdict with
          | Localsim.Synthesis.Impossible ->
              "IMPOSSIBLE (no deterministic PN algorithm exists)"
          | Localsim.Synthesis.Algorithm rows ->
              Printf.sprintf "solvable (%d view classes)" (List.length rows)))
      [ 0; 1; 2 ]
  in
  result
    "instance: mirrored-port 2-edge-colored C8 (2-regular, high girth, one view class):@.";
  report "trivial" (Relim.Parse.problem ~name:"t" ~node:"A A" ~edge:"A A");
  report "MIS"
    (Relim.Parse.problem ~name:"MIS2" ~node:"M M\nP O" ~edge:"M [PO]\nO O");
  report "Pi(2,2,0)"
    (Relim.Parse.problem ~name:"Pi" ~node:"M M\nA A\nP O"
       ~edge:"M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]");
  (* Δ = 3 regular instances: union of 3 random matchings, colors =
     matching indices, mirrored ports at every node. *)
  let g3, colors3 = Tree_gen.regular_bipartite ~delta:3 ~half:8 ~seed:11 in
  (match Dsgraph.Edge_coloring.mirrored_ports g3 colors3 with
  | None -> result "UNEXPECTED: Delta=3 instance not mirrorable@."
  | Some gm ->
      let inst3 = { Localsim.Synthesis.graph = gm; edge_colors = Some colors3 } in
      result
        "@.instance: mirrored 3-regular bipartite (n = %d, girth %s):@."
        (Graph.n gm)
        (match Graph.girth gm with
        | Some girth -> string_of_int girth
        | None -> "inf");
      List.iter
        (fun radius ->
          let verdict =
            Localsim.Synthesis.search ~radius (Lcl.Encodings.mis ~delta:3)
              [ inst3 ]
          in
          result "MIS (Delta=3)  T = %d: %s@." radius
            (match verdict with
            | Localsim.Synthesis.Impossible -> "IMPOSSIBLE"
            | Localsim.Synthesis.Algorithm rows ->
                Printf.sprintf "solvable (%d view classes)" (List.length rows)))
        [ 0; 1 ]);
  result
    "@.the paper proves T = 0 impossibility (Lemma 12); the brute force extends@.";
  result
    "it to every small T on the symmetric instance — views never diverge.@."

(* ------------------------------------------------------------------ *)
(* OP5: Section 5 — how far can THIS family go?                        *)
(* ------------------------------------------------------------------ *)

let open_problems () =
  section "OP5"
    "Section 5: the family's best possible chain is Theta(log Delta), not Omega(Delta)";
  result
    "canonical chain (Lemma 13, a_i = Delta/8^i) vs exact recurrence a' = (a-2x-1)/2:@.";
  result "  Delta     canonical-t  optimal-t  optimal/log2(Delta)  Delta (conjectured)@.";
  List.iter
    (fun e ->
      let delta = 1 lsl e in
      let t_canon = Core.Sequence.kods_pn_lower_bound ~delta ~k:0 in
      let t_opt = Core.Sequence.optimal_length ~delta ~x0:0 in
      result "  2^%-7d %11d  %9d  %19.3f  %d@." e t_canon t_opt
        (float_of_int t_opt /. float_of_int e)
        delta)
    [ 6; 10; 14; 20; 30; 40 ];
  (* Verify a couple of optimal chains with the full certificates. *)
  List.iter
    (fun delta ->
      let chain = Core.Sequence.optimal ~delta ~x0:0 in
      let check = Core.Sequence.verify chain in
      result "optimal chain at Delta=%-5d: %d steps, verified = %b@." delta
        (Core.Sequence.length chain)
        (Core.Sequence.chain_ok check))
    [ 256; 4096 ];
  result
    "@.even with the exact recurrence the chain caps at ~log2(Delta) steps: a@.";
  result
    "halves per step because every speedup costs a factor-2 loss in owned edges.@.";
  result
    "Closing the gap to the conjectured Omega(Delta) (Section 5) provably needs a@.";
  result "different problem family, not better bookkeeping in this one.@."

(* ------------------------------------------------------------------ *)
(* RS: ruling sets (the other MIS relaxation, Sections 1 and 5)        *)
(* ------------------------------------------------------------------ *)

let ruling_sets () =
  section "RS" "Ruling sets: the domination-side relaxation of MIS";
  result
    "(beta+1, beta)-ruling sets via Luby MIS on G^beta; rounds scaled by beta:@.";
  result "  n     Delta | beta  |S|    rounds-in-G@.";
  List.iter
    (fun (n, max_degree, beta, seed) ->
      let g = Tree_gen.random ~n ~max_degree ~seed in
      let sel, rounds = Distalgo.Ruling_set.via_power_mis g ~beta ~seed in
      result "  %-5d %-4d  | %-4d %-5d  %6d@." n (Graph.max_degree g) beta
        (count sel) rounds)
    [ (800, 6, 1, 3); (800, 6, 2, 3); (800, 6, 3, 3); (2000, 10, 2, 4) ];
  result
    "@.|S| shrinks as beta grows (sparser sets suffice), matching the (2, r)@.";
  result
    "discussion of Section 1; ruling-set lower bounds remain open (Section 5).@."

(* ------------------------------------------------------------------ *)
(* V: views — the indistinguishability behind Lemma 12                 *)
(* ------------------------------------------------------------------ *)

let views () =
  section "V" "Radius-T views under the Lemma 12 adversary";
  let g = Tree_gen.balanced ~delta:4 ~depth:5 in
  let colors = Dsgraph.Edge_coloring.color_tree g in
  (match Dsgraph.Edge_coloring.mirrored_ports g colors with
  | Some _ -> result "(mirrored ports constructed)@."
  | None ->
      result
        "(finite trees have leaves, so full mirroring is impossible — the@.";
      result
        " adversary lives on the infinite tree; we measure view collisions on@.";
      result " the colored finite tree instead)@.");
  result
    "distinct radius-T views among the %d nodes of a balanced Delta=4 tree (with colors):@."
    (Graph.n g);
  List.iter
    (fun radius ->
      let distinct = Localsim.Views.count_distinct ~edge_colors:colors g ~radius in
      let classes = Localsim.Views.classes ~edge_colors:colors g ~radius in
      let biggest = match classes with c :: _ -> List.length c | [] -> 0 in
      result "  T = %d: %4d distinct views, largest class %4d nodes@." radius
        distinct biggest)
    [ 0; 1; 2; 3 ];
  result
    "@.nodes sharing a view are forced to answer identically by ANY T-round PN@.";
  result
    "algorithm — with hundreds of interior nodes per class, symmetric outputs@.";
  result "break M/A/P self-incompatibility exactly as in Lemma 12.@."

(* ------------------------------------------------------------------ *)
(* CG: CONGEST accounting                                              *)
(* ------------------------------------------------------------------ *)

let congest () =
  section "CG" "CONGEST accounting: all implemented algorithms use small messages";
  let g = Tree_gen.random ~n:2000 ~max_degree:8 ~seed:9 in
  let log2i x = int_of_float (ceil (Core.Bounds.log2 (float_of_int x))) in
  (* Luby: a status (2 bits) + a 60-bit draw. *)
  let luby =
    Localsim.Run.run_measured
      ~bits:(fun (m : Distalgo.Luby.message) ->
        ignore m;
        62)
      ~ids:Localsim.Run.Anonymous ~seed:9 g
      ~inputs:(Localsim.Run.no_inputs g)
      Distalgo.Luby.algo
  in
  result "Luby MIS       : max message %3d bits over %7d messages (O(log n) = %d ok)@."
    luby.Localsim.Run.max_message_bits luby.Localsim.Run.total_messages
    (log2i (Graph.n g));
  (* Cole–Vishkin: the current color, initially an id < n. *)
  let cv =
    Localsim.Run.run_measured
      ~bits:(fun (color : int) -> max 1 (log2i (color + 2)))
      g
      ~inputs:(Distalgo.Rooted.parent_ports g ~root:0)
      Distalgo.Cole_vishkin.algo
  in
  result "Cole-Vishkin   : max message %3d bits over %7d messages@."
    cv.Localsim.Run.max_message_bits cv.Localsim.Run.total_messages;
  (* Color-class selection: 1 bit. *)
  let colors, _ = Distalgo.Cole_vishkin.run g ~root:0 in
  let palette = 1 + Array.fold_left max 0 colors in
  let sel =
    Localsim.Run.run_measured
      ~bits:(fun (m : Distalgo.Color_to_ds.message) ->
        ignore m;
        1)
      ~ids:Localsim.Run.Anonymous g
      ~inputs:
        (Array.map (fun c -> { Distalgo.Color_to_ds.color = c; palette }) colors)
      Distalgo.Color_to_ds.algo
  in
  result "color-selection: max message %3d bits over %7d messages@."
    sel.Localsim.Run.max_message_bits sel.Localsim.Run.total_messages;
  result
    "@.=> the upper-bound pipelines are CONGEST algorithms, and the paper's@.";
  result "lower bounds hold in CONGEST a fortiori (Section 2.1).@."

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("fig1", fig1);
    ("fig23", fig23);
    ("fig4", fig4);
    ("fig5", fig5);
    ("lemma6", lemma6);
    ("lemma8", lemma8);
    ("lemma9", lemma9);
    ("lemma12_15", lemma12_15);
    ("lemma15_mc", lemma15_mc);
    ("lemma13", lemma13);
    ("theorem1", theorem1);
    ("theorem14", theorem14);
    ("fixed_points", fixed_points);
    ("comparison", comparison);
    ("upper_vs_lower", upper_vs_lower);
    ("ablation", ablation_growth);
    ("lemma5", lemma5_pipeline);
    ("synthesis", synthesis);
    ("open_problems", open_problems);
    ("ruling_sets", ruling_sets);
    ("views", views);
    ("congest", congest);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all_sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
          Format.printf "unknown section %s; available: %s@." name
            (String.concat ", " (List.map fst all_sections)))
    requested;
  Format.printf "@.done.@."
