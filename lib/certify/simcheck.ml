open Relim
module Graph = Dsgraph.Graph
module Tree_gen = Dsgraph.Tree_gen

let fail fmt = Printf.ksprintf (fun s -> raise (Check.Violation s)) fmt

(* Definitional label-pair compatibility: {x, y} allowed by ℰ. *)
let edge_compat (p : Problem.t) =
  let n = Problem.label_count p in
  Array.init n (fun x ->
      Array.init n (fun y -> Constr.mem p.Problem.edge (Multiset.of_list [ x; y ])))

(* The 0-round algorithm induced by a degree-indexed port->label map:
   every node outputs [label ctx p] at port [p] from its initial view
   and terminates immediately.  [Run.run] reports [rounds = 0], which
   is asserted — these really are 0-round algorithms. *)
let zero_round_algo ~name label : (unit, int array, unit, int array) Localsim.Algo.t
    =
  {
    Localsim.Algo.name;
    init = (fun ctx () -> Array.init ctx.Localsim.Ctx.degree (label ctx));
    send = (fun ctx _ ~round:_ -> Array.make ctx.Localsim.Ctx.degree ());
    recv = (fun _ st ~round:_ _ -> st);
    output = (fun st -> Some st);
  }

let simulate ?edge_colors g algo =
  let result =
    Localsim.Run.run ~ids:Localsim.Run.Anonymous ?edge_colors g
      ~inputs:(Localsim.Run.no_inputs g) algo
  in
  if result.Localsim.Run.rounds <> 0 then
    fail "Simcheck: candidate algorithm used %d rounds instead of 0"
      result.Localsim.Run.rounds;
  Lcl.Labeling.make g result.Localsim.Run.outputs

(* ------------------------------------------------------------------ *)
(* Witness direction: simulate the algorithm the witness induces.      *)
(* ------------------------------------------------------------------ *)

(* Arbitrary ports: the witness w is pairwise/self compatible, so
   outputting its labels in any fixed port order survives every port
   numbering; degree-d nodes output a d-prefix, valid under the
   [`Extendable] boundary because w itself extends it. *)
let check_witness_arbitrary ~trees ~tree_size ~seed (p : Problem.t) w =
  let delta = max 1 (Problem.delta p) in
  let t = Array.of_list (Multiset.to_list w) in
  let algo =
    zero_round_algo ~name:"witness-arbitrary" (fun _ctx port -> t.(port))
  in
  for k = 0 to trees - 1 do
    let g =
      if delta = 1 then Tree_gen.path 2
      else
        Tree_gen.shuffle_ports
          (Tree_gen.random ~n:tree_size ~max_degree:delta ~seed:(seed + k))
          ~seed:(seed + (31 * k))
    in
    let labeling = simulate g algo in
    match Lcl.Labeling.violations ~boundary:`Extendable p labeling with
    | [] -> ()
    | v :: _ ->
        fail
          "Simcheck (%s, arbitrary): witness %s fails on a random tree (%s)"
          p.Problem.name
          (Multiset.to_string p.Problem.alpha w)
          (Format.asprintf "%a" Lcl.Labeling.pp_violation v)
  done

(* Mirrored ports: the algorithm keys its output on the input edge
   color, so an edge colored c sees the same label on both sides —
   exactly the adversary of Lemma 12.  The witness guarantees each
   label is self-compatible and the color multiset is a sub-multiset
   of w, valid under [`Extendable]. *)
let check_witness_mirrored ~trees ~tree_size ~seed (p : Problem.t) w =
  let delta = max 1 (Problem.delta p) in
  let t = Array.of_list (Multiset.to_list w) in
  let algo =
    zero_round_algo ~name:"witness-mirrored" (fun ctx port ->
        t.(Localsim.Ctx.edge_color ctx port))
  in
  for k = 0 to trees - 1 do
    let g =
      if delta = 1 then Tree_gen.path 2
      else Tree_gen.random ~n:tree_size ~max_degree:delta ~seed:(seed + k)
    in
    let colors = Dsgraph.Edge_coloring.color_tree g in
    let labeling = simulate ~edge_colors:colors g algo in
    match Lcl.Labeling.violations ~boundary:`Extendable p labeling with
    | [] -> ()
    | v :: _ ->
        fail "Simcheck (%s, mirrored): witness %s fails on a random tree (%s)"
          p.Problem.name
          (Multiset.to_string p.Problem.alpha w)
          (Format.asprintf "%a" Lcl.Labeling.pp_violation v)
  done

(* ------------------------------------------------------------------ *)
(* None direction: exhaustive refutation on the double-star family.    *)
(* ------------------------------------------------------------------ *)

(* The double star: two adjacent degree-Δ centers.  A 0-round
   algorithm is determined, on degree-Δ nodes, by one tuple t ∈ Σ^Δ;
   whatever it does on other degrees cannot repair a violation at the
   centers or on the center-center edge, so asserting that violation
   refutes every algorithm extending t. *)
let double_star delta =
  let g =
    if delta = 1 then Tree_gen.path 2
    else Tree_gen.caterpillar ~spine:2 ~legs:(delta - 1)
  in
  let centers =
    List.filter (fun v -> Graph.degree g v = delta)
      (List.init (Graph.n g) Fun.id)
  in
  match centers with
  | [ u; v ] -> (g, u, v)
  | _ -> invalid_arg "Simcheck: double star construction"

let iter_tuples n delta f =
  let t = Array.make delta 0 in
  let rec go k = if k = delta then f t else
    for l = 0 to n - 1 do
      t.(k) <- l;
      go (k + 1)
    done
  in
  if delta > 0 then go 0

let find_violation ~expect violations g u v =
  List.exists
    (fun viol ->
      match (viol, expect) with
      | Lcl.Labeling.Node_violation w, `Node -> w = u || w = v
      | Lcl.Labeling.Edge_violation e, `Edge ->
          let a, b = Graph.endpoints g e in
          (a = u && b = v) || (a = v && b = u)
      | _ -> false)
    violations

let check_none_arbitrary ~tuple_budget (p : Problem.t) =
  let n = Problem.label_count p in
  let delta = Problem.delta p in
  let space = float_of_int n ** float_of_int delta in
  (* Past [tuple_budget] the exhaustive refutation is skipped. *)
  if delta >= 1 && space <= float_of_int tuple_budget then begin
    let compat = edge_compat p in
    let g, u, v = double_star delta in
    let pu = Graph.port_of g u v and pv = Graph.port_of g v u in
    iter_tuples n delta (fun t ->
        let m = Multiset.of_list (Array.to_list t) in
        let algo =
          let t = Array.copy t in
          zero_round_algo ~name:"refute-arbitrary" (fun _ctx port -> t.(port))
        in
        if not (Constr.mem p.Problem.node m) then begin
          (* The tuple's configuration is disallowed: node violation at
             the centers on the unpermuted double star. *)
          let labeling = simulate g algo in
          let violations = Lcl.Labeling.violations ~boundary:`Free p labeling in
          if not (find_violation ~expect:`Node violations g u v) then
            fail
              "Simcheck (%s, arbitrary None): tuple %s should violate the \
               node constraint at a center but the simulation shows no such \
               violation"
              p.Problem.name
              (Multiset.to_string p.Problem.alpha m)
        end
        else begin
          (* The configuration is allowed, so (since the engine claims
             unsolvability) some pair of its labels must be
             incompatible; connect those two ports across the
             center-center edge. *)
          let bad = ref None in
          for i = 0 to delta - 1 do
            for j = 0 to delta - 1 do
              if !bad = None && not compat.(t.(i)).(t.(j)) then
                bad := Some (i, j)
            done
          done;
          match !bad with
          | None ->
              fail
                "Simcheck (%s, arbitrary None): engine claims unsolvable but \
                 tuple %s is an allowed configuration with pairwise \
                 compatible labels"
                p.Problem.name
                (Multiset.to_string p.Problem.alpha m)
          | Some (i, j) ->
              let perms =
                Array.init (Graph.n g) (fun w ->
                    let id = Array.init (Graph.degree g w) Fun.id in
                    let swap a b =
                      let tmp = id.(a) in
                      id.(a) <- id.(b);
                      id.(b) <- tmp
                    in
                    if w = u then swap pu i
                    else if w = v then swap pv j;
                    id)
              in
              let g' = Graph.permute_ports g perms in
              let labeling = simulate g' algo in
              let violations =
                Lcl.Labeling.violations ~boundary:`Free p labeling
              in
              if not (find_violation ~expect:`Edge violations g' u v) then
                fail
                  "Simcheck (%s, arbitrary None): tuple %s with the \
                   center-center edge at ports (%d, %d) should violate the \
                   edge constraint but the simulation shows no such violation"
                  p.Problem.name
                  (Multiset.to_string p.Problem.alpha m)
                  i j
        end)
  end

let check_none_mirrored ~tuple_budget (p : Problem.t) =
  let n = Problem.label_count p in
  let delta = Problem.delta p in
  let space = float_of_int n ** float_of_int delta in
  (* Past [tuple_budget] the exhaustive refutation is skipped. *)
  if delta >= 1 && space <= float_of_int tuple_budget then begin
    let compat = edge_compat p in
    let g, u, v = double_star delta in
    (* A proper coloring of the double star parameterized by the color
       [c] of the center-center edge: each center's remaining edges take
       the other colors in increasing order, so both centers see every
       color exactly once. *)
    let coloring c =
      let colors = Array.make (Graph.m g) (-1) in
      let assign w =
        let next = ref 0 in
        for port = 0 to Graph.degree g w - 1 do
          let e = Graph.edge_id g w port in
          if colors.(e) < 0 then
            if Graph.neighbor g w port = u || Graph.neighbor g w port = v then
              colors.(e) <- c
            else begin
              if !next = c then incr next;
              colors.(e) <- !next;
              incr next
            end
        done
      in
      assign u;
      assign v;
      colors
    in
    iter_tuples n delta (fun t ->
        (* t is indexed by edge color. *)
        let m = Multiset.of_list (Array.to_list t) in
        let algo =
          let t = Array.copy t in
          zero_round_algo ~name:"refute-mirrored" (fun ctx port ->
              t.(Localsim.Ctx.edge_color ctx port))
        in
        if not (Constr.mem p.Problem.node m) then begin
          let labeling = simulate ~edge_colors:(coloring 0) g algo in
          let violations = Lcl.Labeling.violations ~boundary:`Free p labeling in
          if not (find_violation ~expect:`Node violations g u v) then
            fail
              "Simcheck (%s, mirrored None): tuple %s should violate the node \
               constraint at a center but the simulation shows no such \
               violation"
              p.Problem.name
              (Multiset.to_string p.Problem.alpha m)
        end
        else begin
          let bad = ref None in
          for c = 0 to delta - 1 do
            if !bad = None && not compat.(t.(c)).(t.(c)) then bad := Some c
          done;
          match !bad with
          | None ->
              fail
                "Simcheck (%s, mirrored None): engine claims unsolvable but \
                 tuple %s is an allowed configuration of self-compatible \
                 labels"
                p.Problem.name
                (Multiset.to_string p.Problem.alpha m)
          | Some c ->
              let labeling = simulate ~edge_colors:(coloring c) g algo in
              let violations =
                Lcl.Labeling.violations ~boundary:`Free p labeling
              in
              if not (find_violation ~expect:`Edge violations g u v) then
                fail
                  "Simcheck (%s, mirrored None): tuple %s with the \
                   center-center edge colored %d should violate the edge \
                   constraint but the simulation shows no such violation"
                  p.Problem.name
                  (Multiset.to_string p.Problem.alpha m)
                  c
        end)
  end

let cross_check ?(trees = 3) ?(tree_size = 16) ?(tuple_budget = 100_000)
    ?(seed = 0) ~mode (p : Problem.t) verdict =
  match (verdict, mode) with
  | Some w, `Arbitrary -> check_witness_arbitrary ~trees ~tree_size ~seed p w
  | Some w, `Mirrored -> check_witness_mirrored ~trees ~tree_size ~seed p w
  | None, `Arbitrary -> check_none_arbitrary ~tuple_budget p
  | None, `Mirrored -> check_none_mirrored ~tuple_budget p
