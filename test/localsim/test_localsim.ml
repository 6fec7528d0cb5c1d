(* Tests for the LOCAL / port-numbering simulator. *)

open Localsim
module Graph = Dsgraph.Graph
module Tree_gen = Dsgraph.Tree_gen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A 0-round algorithm: output the degree immediately. *)
let degree_algo : (unit, int, unit, int) Algo.t =
  {
    name = "degree";
    init = (fun ctx () -> ctx.Ctx.degree);
    send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
    recv = (fun _ st ~round:_ _ -> st);
    output = (fun st -> Some st);
  }

let test_zero_rounds () =
  let g = Tree_gen.star 5 in
  let result = Run.run g ~inputs:(Run.no_inputs g) degree_algo in
  check_int "rounds" 0 result.Run.rounds;
  check_int "center" 4 result.Run.outputs.(0);
  check_int "leaf" 1 result.Run.outputs.(1)

(* One round: collect neighbor ids.  Verifies inbox indexing. *)
type gather_state = { my_id : int; seen : int list option }

let gather_algo : (unit, gather_state, int, int list) Algo.t =
  {
    name = "gather";
    init = (fun ctx () -> { my_id = Ctx.the_id ctx; seen = None });
    send = (fun ctx st ~round:_ -> Array.make ctx.Ctx.degree st.my_id);
    recv =
      (fun _ st ~round:_ inbox ->
        { st with seen = Some (Array.to_list inbox) });
    output = (fun st -> Option.map (fun s -> s) st.seen);
  }

let test_inbox_routing () =
  let g = Tree_gen.path 3 in
  let result = Run.run ~ids:Run.Sequential g ~inputs:(Run.no_inputs g) gather_algo in
  check_int "rounds" 1 result.Run.rounds;
  Alcotest.(check (list int)) "node 0 sees node 1" [ 2 ] result.Run.outputs.(0);
  Alcotest.(check (list int))
    "node 1 sees both" [ 1; 3 ]
    (List.sort compare result.Run.outputs.(1))

let test_inbox_routing_shuffled_ports () =
  let g = Tree_gen.shuffle_ports (Tree_gen.random ~n:40 ~max_degree:5 ~seed:3) ~seed:9 in
  let result = Run.run ~ids:Run.Sequential g ~inputs:(Run.no_inputs g) gather_algo in
  (* Each node must see exactly the ids of its neighbors. *)
  for v = 0 to Graph.n g - 1 do
    let expected =
      List.init (Graph.degree g v) (fun p -> Graph.neighbor g v p + 1)
      |> List.sort compare
    in
    Alcotest.(check (list int))
      (Printf.sprintf "node %d inbox" v)
      expected
      (List.sort compare result.Run.outputs.(v))
  done

let test_anonymous () =
  let g = Tree_gen.path 2 in
  let saw_id : (unit, bool, unit, bool) Algo.t =
    {
      name = "saw-id";
      init = (fun ctx () -> ctx.Ctx.id <> None);
      send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun st -> Some st);
    }
  in
  let r = Run.run ~ids:Run.Anonymous g ~inputs:(Run.no_inputs g) saw_id in
  check_bool "no ids" false r.Run.outputs.(0);
  let r2 = Run.run ~ids:Run.Sequential g ~inputs:(Run.no_inputs g) saw_id in
  check_bool "ids" true r2.Run.outputs.(0)

let test_shuffled_ids_are_permutation () =
  let g = Tree_gen.path 10 in
  let collect : (unit, int, unit, int) Algo.t =
    {
      name = "id";
      init = (fun ctx () -> Ctx.the_id ctx);
      send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun st -> Some st);
    }
  in
  let r = Run.run ~ids:(Run.Shuffled 7) g ~inputs:(Run.no_inputs g) collect in
  let ids = List.sort compare (Array.to_list r.Run.outputs) in
  Alcotest.(check (list int)) "permutation of 1..n" (List.init 10 (fun i -> i + 1)) ids

let test_edge_colors_exposed () =
  let g = Tree_gen.path 3 in
  let algo : (unit, int list, unit, int list) Algo.t =
    {
      name = "colors";
      init =
        (fun ctx () ->
          List.init ctx.Ctx.degree (fun p -> Ctx.edge_color ctx p));
      send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun st -> Some st);
    }
  in
  let r = Run.run ~edge_colors:[| 5; 9 |] g ~inputs:(Run.no_inputs g) algo in
  Alcotest.(check (list int)) "middle node colors" [ 5; 9 ] r.Run.outputs.(1)

let test_inputs_delivered () =
  let g = Tree_gen.path 3 in
  let algo : (int, int, unit, int) Algo.t =
    {
      name = "echo-input";
      init = (fun _ input -> input * 2);
      send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun st -> Some st);
    }
  in
  let r = Run.run g ~inputs:[| 10; 20; 30 |] algo in
  Alcotest.(check (array int)) "inputs" [| 20; 40; 60 |] r.Run.outputs

let test_max_rounds () =
  let g = Tree_gen.path 2 in
  let never : (unit, unit, unit, unit) Algo.t =
    {
      name = "never";
      init = (fun _ () -> ());
      send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun _ -> None);
    }
  in
  match Run.run ~max_rounds:5 g ~inputs:(Run.no_inputs g) never with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_randomness_deterministic () =
  let g = Tree_gen.path 4 in
  let draw : (unit, int, unit, int) Algo.t =
    {
      name = "draw";
      init = (fun ctx () -> Random.State.int (Ctx.the_rng ctx) 1000000);
      send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree ());
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun st -> Some st);
    }
  in
  let r1 = Run.run ~seed:5 g ~inputs:(Run.no_inputs g) draw in
  let r2 = Run.run ~seed:5 g ~inputs:(Run.no_inputs g) draw in
  let r3 = Run.run ~seed:6 g ~inputs:(Run.no_inputs g) draw in
  Alcotest.(check (array int)) "same seed same draws" r1.Run.outputs r2.Run.outputs;
  check_bool "different seed differs" true (r1.Run.outputs <> r3.Run.outputs);
  check_bool "nodes draw independently" true
    (r1.Run.outputs.(0) <> r1.Run.outputs.(1)
    || r1.Run.outputs.(1) <> r1.Run.outputs.(2))

let test_wrong_outbox_size () =
  let g = Tree_gen.path 3 in
  let bad : (unit, unit, unit, unit) Algo.t =
    {
      name = "bad";
      init = (fun _ () -> ());
      send = (fun _ _ ~round:_ -> [| () |]);
      recv = (fun _ st ~round:_ _ -> st);
      output = (fun _ -> None);
    }
  in
  match Run.run g ~inputs:(Run.no_inputs g) bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected outbox-size failure"

(* Termination semantics: a wave that takes exactly ecc(root) rounds. *)
type wave_state = { lit : bool; t : int }

let wave : (bool, wave_state, bool, int) Algo.t =
  {
    name = "wave";
    init = (fun _ is_root -> { lit = is_root; t = 0 });
    send = (fun ctx st ~round:_ -> Array.make ctx.Ctx.degree st.lit);
    recv =
      (fun _ st ~round:_ inbox ->
        if st.lit then { st with t = st.t + 1 }
        else if Array.exists Fun.id inbox then { lit = true; t = st.t + 1 }
        else { st with t = st.t + 1 });
    output = (fun st -> if st.lit then Some st.t else None);
  }

let test_round_counting () =
  let g = Tree_gen.path 5 in
  let inputs = Array.init 5 (fun v -> v = 0) in
  let r = Run.run g ~inputs wave in
  (* The far end lights up after 4 rounds. *)
  check_int "rounds = eccentricity" 4 r.Run.rounds

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let test_views_symmetry () =
  (* Star: at radius 0 all leaves look alike (degree only); at radius 2
     the center's distinct port numbers leak through the back-ports and
     separate them — correct PN semantics. *)
  let g = Tree_gen.star 6 in
  let v1 = Views.view g ~radius:0 1 in
  for leaf = 2 to 5 do
    Alcotest.(check string) "radius-0 leaf views equal" v1
      (Views.view g ~radius:0 leaf)
  done;
  check_bool "radius-2 back-ports separate leaves" true
    (Views.view g ~radius:2 1 <> Views.view g ~radius:2 2);
  check_bool "center differs" true (Views.view g ~radius:0 0 <> v1)

let test_views_mirrored_adversary () =
  (* The Lemma 12 adversary: ports mirror the edge colors on both
     endpoints.  On a properly colored even path this is realizable,
     and symmetric nodes become indistinguishable at EVERY radius. *)
  let g = Tree_gen.path 4 in
  let colors = [| 0; 1; 0 |] in
  match Dsgraph.Edge_coloring.mirrored_ports g colors with
  | None -> Alcotest.fail "mirroring must be possible here"
  | Some gm ->
      List.iter
        (fun radius ->
          Alcotest.(check string) "ends indistinguishable"
            (Views.view ~edge_colors:colors gm ~radius 0)
            (Views.view ~edge_colors:colors gm ~radius 3);
          Alcotest.(check string) "middles indistinguishable"
            (Views.view ~edge_colors:colors gm ~radius 1)
            (Views.view ~edge_colors:colors gm ~radius 2))
        [ 0; 1; 2; 3; 5 ]

let test_views_radius_refines () =
  (* Increasing the radius can only split classes, never merge them. *)
  let g = Tree_gen.balanced ~delta:3 ~depth:4 in
  let counts =
    List.map (fun radius -> Views.count_distinct g ~radius) [ 0; 1; 2; 3 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "monotone refinement" true (monotone counts);
  check_int "radius 0 = degree classes" 2 (List.nth counts 0)

let test_views_path_ends () =
  let g = Tree_gen.path 7 in
  (* Endpoints share a radius-0 view (degree 1) but differ from
     interior nodes at any radius. *)
  Alcotest.(check string) "symmetric ends at radius 0"
    (Views.view g ~radius:0 0) (Views.view g ~radius:0 6);
  check_bool "ends differ from middle" true
    (Views.view g ~radius:2 0 <> Views.view g ~radius:2 3)

let test_views_colors_split () =
  (* Edge colors can separate otherwise identical views. *)
  let g = Tree_gen.path 3 in
  let same = Views.view g ~radius:0 0 = Views.view g ~radius:0 2 in
  check_bool "uncolored endpoints equal" true same;
  let colored = [| 0; 1 |] in
  check_bool "colors split them" true
    (Views.view ~edge_colors:colored g ~radius:0 0
    <> Views.view ~edge_colors:colored g ~radius:0 2)

let test_views_classes_partition () =
  let g = Tree_gen.random ~n:50 ~max_degree:4 ~seed:3 in
  let classes = Views.classes g ~radius:1 in
  let total = List.fold_left (fun acc c -> acc + List.length c) 0 classes in
  check_int "partition" 50 total

(* ------------------------------------------------------------------ *)
(* Measured runs                                                       *)
(* ------------------------------------------------------------------ *)

let test_run_measured () =
  let g = Tree_gen.path 4 in
  let m =
    Run.run_measured
      ~bits:(fun (x : int) -> x)
      g
      ~inputs:(Run.no_inputs g)
      {
        Algo.name = "const";
        init = (fun _ () -> ());
        send = (fun ctx _ ~round:_ -> Array.make ctx.Ctx.degree 7);
        recv = (fun _ _ ~round:_ _ -> ());
        output = (fun () -> None);
      }
  in
  ignore m

let test_run_measured_counts () =
  let g = Tree_gen.path 3 in
  (* One round of gather: 4 port-messages total (2 + 1 + 1). *)
  let m =
    Run.run_measured
      ~bits:(fun (_ : int) -> 5)
      ~ids:Run.Sequential g
      ~inputs:(Run.no_inputs g)
      gather_algo
  in
  check_int "bits" 5 m.Run.max_message_bits;
  check_int "messages" 4 m.Run.total_messages;
  check_int "rounds preserved" 1 m.Run.result.Run.rounds

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

(* Even cycle with a proper 2-edge-coloring and mirrored ports: the
   canonical Lemma-12 adversary instance (2-regular, high girth). *)
let mirrored_cycle n =
  assert (n mod 2 = 0);
  let g =
    Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))
  in
  let colors = Array.init n (fun e -> e mod 2) in
  match Dsgraph.Edge_coloring.mirrored_ports g colors with
  | Some gm -> { Synthesis.graph = gm; edge_colors = Some colors }
  | None -> assert false

let mis2 =
  Relim.Parse.problem ~name:"MIS2" ~node:"M M
P O" ~edge:"M [PO]
O O"

let test_synthesis_trivial () =
  let triv = Relim.Parse.problem ~name:"triv" ~node:"A A" ~edge:"A A" in
  match Synthesis.search ~radius:0 triv [ mirrored_cycle 6 ] with
  | Synthesis.Algorithm _ -> ()
  | Synthesis.Impossible -> Alcotest.fail "trivial must be solvable"

let test_synthesis_lemma12_radius0 () =
  (* No 0-round algorithm solves MIS on the mirrored cycle: the
     machine-checked Lemma 12. *)
  match Synthesis.search ~radius:0 mis2 [ mirrored_cycle 6 ] with
  | Synthesis.Impossible -> ()
  | Synthesis.Algorithm _ -> Alcotest.fail "Lemma 12 violated?!"

let test_synthesis_beyond_zero_rounds () =
  (* The mirrored cycle is vertex-transitive with symmetric colors, so
     views coincide at EVERY radius and no T-round algorithm exists —
     brute force confirms it for T = 1, 2. *)
  List.iter
    (fun radius ->
      match Synthesis.search ~radius mis2 [ mirrored_cycle 8 ] with
      | Synthesis.Impossible -> ()
      | Synthesis.Algorithm _ ->
          Alcotest.failf "T=%d algorithm on a symmetric cycle?!" radius)
    [ 1; 2 ]

let test_synthesis_path_solvable () =
  (* On a finite path the leaves break symmetry and a 1-round algorithm
     exists (ends join the MIS, the rest point at them, etc.). *)
  let inst = { Synthesis.graph = Tree_gen.path 4; edge_colors = None } in
  match Synthesis.search ~radius:1 mis2 [ inst ] with
  | Synthesis.Algorithm rows ->
      check_bool "several classes" true (List.length rows >= 2)
  | Synthesis.Impossible -> Alcotest.fail "paths are 1-round solvable"

let test_synthesis_family_lemma12 () =
  (* The paper's family at Delta = 2: unsolvable at radius 0 on the
     mirrored cycle, exactly Lemma 12. *)
  let pi =
    Relim.Parse.problem ~name:"Pi(2,2,0)" ~node:"M M
A A
P O"
      ~edge:"M [PAOX]
O [MAOX]
P [MX]
A [MOX]
X [MPAOX]"
  in
  match Synthesis.search ~radius:0 pi [ mirrored_cycle 6 ] with
  | Synthesis.Impossible -> ()
  | Synthesis.Algorithm _ -> Alcotest.fail "family Lemma 12 violated"

let test_synthesis_multi_instance () =
  (* The same algorithm must work on all instances simultaneously: a
     path alone is solvable, but adding the symmetric cycle makes the
     set unsolvable. *)
  let path = { Synthesis.graph = Tree_gen.path 4; edge_colors = None } in
  (match Synthesis.search ~radius:1 mis2 [ path ] with
  | Synthesis.Algorithm _ -> ()
  | Synthesis.Impossible -> Alcotest.fail "path solvable");
  match Synthesis.search ~radius:1 mis2 [ path; mirrored_cycle 8 ] with
  | Synthesis.Impossible -> ()
  | Synthesis.Algorithm _ -> Alcotest.fail "cycle still blocks"

(* Cross-validation: on the mirrored even cycle the synthesis verdict
   at radius 0 must coincide with the engine's mirrored-port decider
   for random small problems (both implement the same adversary
   independently). *)
let synthesis_vs_zeroround_qcheck =
  [
    QCheck.Test.make ~name:"synthesis-agrees-with-zeroround" ~count:50
      QCheck.(pair (int_range 1 63) (int_range 1 63))
      (fun (node_mask, edge_mask) ->
        (* Random Delta=2 problem over 3 labels. *)
        let alpha_names = [ "A"; "B"; "C" ] in
        let multisets2 =
          [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 1 ]; [ 1; 2 ]; [ 2; 2 ] ]
        in
        let node_lines =
          List.filteri (fun i _ -> (node_mask lsr i) land 1 = 1) multisets2
        in
        let edge_lines =
          List.filteri (fun i _ -> (edge_mask lsr i) land 1 = 1) multisets2
        in
        if node_lines = [] || edge_lines = [] then true
        else begin
          let alpha = Relim.Alphabet.create alpha_names in
          let line ls =
            Relim.Line.of_multiset (Relim.Multiset.of_list ls)
          in
          let p =
            Relim.Problem.make ~name:"rnd" ~alpha
              ~node:(Relim.Constr.make (List.map line node_lines))
              ~edge:(Relim.Constr.make (List.map line edge_lines))
          in
          let decider = Relim.Zeroround.solvable_mirrored p <> None in
          let g =
            Graph.of_edges ~n:6 (List.init 6 (fun i -> (i, (i + 1) mod 6)))
          in
          let colors = Array.init 6 (fun e -> e mod 2) in
          let instance =
            match Dsgraph.Edge_coloring.mirrored_ports g colors with
            | Some gm -> { Synthesis.graph = gm; edge_colors = Some colors }
            | None -> assert false
          in
          let synth =
            match Synthesis.search ~radius:0 p [ instance ] with
            | Synthesis.Algorithm _ -> true
            | Synthesis.Impossible -> false
          in
          decider = synth
        end);
  ]

let () =
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  Alcotest.run "localsim"
    [
      ( "run",
        [
          Alcotest.test_case "zero-rounds" `Quick test_zero_rounds;
          Alcotest.test_case "inbox-routing" `Quick test_inbox_routing;
          Alcotest.test_case "inbox-shuffled-ports" `Quick
            test_inbox_routing_shuffled_ports;
          Alcotest.test_case "anonymous" `Quick test_anonymous;
          Alcotest.test_case "shuffled-ids" `Quick
            test_shuffled_ids_are_permutation;
          Alcotest.test_case "edge-colors" `Quick test_edge_colors_exposed;
          Alcotest.test_case "inputs" `Quick test_inputs_delivered;
          Alcotest.test_case "max-rounds" `Quick test_max_rounds;
          Alcotest.test_case "randomness" `Quick test_randomness_deterministic;
          Alcotest.test_case "outbox-size" `Quick test_wrong_outbox_size;
          Alcotest.test_case "round-counting" `Quick test_round_counting;
        ] );
      ( "views",
        [
          Alcotest.test_case "symmetry" `Quick test_views_symmetry;
          Alcotest.test_case "mirrored adversary" `Quick
            test_views_mirrored_adversary;
          Alcotest.test_case "refinement" `Quick test_views_radius_refines;
          Alcotest.test_case "path ends" `Quick test_views_path_ends;
          Alcotest.test_case "colors split" `Quick test_views_colors_split;
          Alcotest.test_case "partition" `Quick test_views_classes_partition;
        ] );
      ( "measured",
        [
          Alcotest.test_case "never-terminating guard" `Quick (fun () ->
              match test_run_measured () with
              | () -> Alcotest.fail "expected timeout"
              | exception Failure _ -> ());
          Alcotest.test_case "counts" `Quick test_run_measured_counts;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "trivial" `Quick test_synthesis_trivial;
          Alcotest.test_case "Lemma 12 at T=0" `Quick
            test_synthesis_lemma12_radius0;
          Alcotest.test_case "T=1,2 impossibility" `Quick
            test_synthesis_beyond_zero_rounds;
          Alcotest.test_case "paths solvable" `Quick test_synthesis_path_solvable;
          Alcotest.test_case "family Lemma 12" `Quick
            test_synthesis_family_lemma12;
          Alcotest.test_case "multi-instance" `Quick test_synthesis_multi_instance;
        ] );
      ( "synthesis-props",
        List.map
          (Qseed.to_alcotest)
          synthesis_vs_zeroround_qcheck );
    ]
